"""Command-line front end: run, compare, sweep, erlang, gen.

Configuration is a flat key = value file (arrays bracketed); every key can
also be set by a flag, and flags win over the file. Reports are written as
JSON or CSV; each run also prints a short console block (home pool,
overload notice, handover tallies).
"""

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .engine import (
    DEFAULT_CONTEXT_SWITCH_MS,
    DEFAULT_WAITING_MS,
    NO_BSC,
    ComparisonReport,
    Disposition,
    LbParams,
    SimulationReport,
    UndefinedQuantum,
    compare_systems,
    simulate_load_balanced,
    simulate_normal,
)
from .teletraffic import OfferedLoad, blocking_sweep, erlang_b, format_blocking_csv
from .topology import (
    DEFAULT_AREA_KM,
    DEFAULT_BSC_CHANNELS,
    DEFAULT_CELLS_PER_BSC,
    HOME_BSC,
    NetworkTopology,
)
from .traffic import (
    DEFAULT_ARRIVAL_WINDOW_MS,
    DEFAULT_DEMAND_MS,
    DEFAULT_SEED,
    Workload,
    WorkloadParams,
    format_workload,
    generate_workload,
    import_workload,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    """User-facing configuration problem; maps to exit status 2 like every
    ValueError."""


@dataclass(frozen=True)
class RunConfig:
    bsc_channels: tuple[int, ...] = DEFAULT_BSC_CHANNELS
    cells_per_bsc: int = DEFAULT_CELLS_PER_BSC
    area_km: float = DEFAULT_AREA_KM
    n_calls: int = 900
    seed: int = DEFAULT_SEED
    arrival_window_ms: float = DEFAULT_ARRIVAL_WINDOW_MS
    demand_ms: float = DEFAULT_DEMAND_MS
    context_switch_ms: float = DEFAULT_CONTEXT_SWITCH_MS
    waiting_ms: float = DEFAULT_WAITING_MS
    quantum_override_ms: float | None = None
    format: str = "json"
    output: str | None = None

    # Each is built, and so validated, once: the range checks live in the
    # objects themselves and their messages name the config key.
    @cached_property
    def lb_params(self) -> LbParams:
        return LbParams(
            context_switch_ms=self.context_switch_ms,
            waiting_ms=self.waiting_ms,
            quantum_override_ms=self.quantum_override_ms,
        )

    @cached_property
    def topology(self) -> NetworkTopology:
        return NetworkTopology(
            bsc_channels=self.bsc_channels,
            cells_per_bsc=self.cells_per_bsc,
            area_km=self.area_km,
        )

    @cached_property
    def workload_params(self) -> WorkloadParams:
        return WorkloadParams(
            n_calls=self.n_calls,
            seed=self.seed,
            arrival_window_ms=self.arrival_window_ms,
            demand_ms=self.demand_ms,
        )


_INT_KEYS = {"cells_per_bsc", "n_calls", "seed"}
_FLOAT_KEYS = {
    "area_km",
    "arrival_window_ms",
    "demand_ms",
    "context_switch_ms",
    "waiting_ms",
}
_KNOWN_KEYS = (
    {"bsc_channels", "quantum_override_ms", "format", "output"} | _INT_KEYS | _FLOAT_KEYS
)


def _parse_channels(text: str, where: str) -> tuple[int, ...]:
    inner = text.strip()
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    items = [part.strip() for part in inner.split(",") if part.strip()]
    try:
        return tuple(int(part) for part in items)
    except ValueError as exc:
        raise ConfigError(f"{where}: bsc_channels must be integers, got '{text}'") from exc


def _parse_value(key: str, raw: str, where: str):
    if key == "bsc_channels":
        return _parse_channels(raw, where)
    if key == "format":
        if raw not in ("csv", "json"):
            raise ConfigError(f"{where}: format must be csv or json, got '{raw}'")
        return raw
    if key == "output":
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key == "quantum_override_ms":
            return None if raw.lower() in ("none", "") else float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: key '{key}' has invalid value '{raw}'") from exc
    raise ConfigError(f"{where}: unknown key '{key}'")


def load_config_file(path: str) -> dict:
    """Parse a flat key = value file into typed config entries."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{stripped}'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        values[key] = _parse_value(key, raw, f"{path}:{lineno}")
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, then the config file, then command-line flags.

    Builds the topology, workload and load-balancing params, so a bad value
    raises ValueError (exit 2) before any subcommand runs.
    """
    config = RunConfig()
    if getattr(args, "config", None):
        config = replace(config, **load_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            key = f.name
            overrides[key] = (
                _parse_channels(value, "--bsc-channels") if key == "bsc_channels" else value
            )
    config = replace(config, **overrides)
    config.topology, config.workload_params, config.lb_params  # built and checked here
    return config


def _load_calls(config: RunConfig, workload_path: str | None) -> tuple[Workload, dict]:
    """The calls to simulate, sorted by arrival, and the report params that
    say where they came from: the file's digest, or what generated them."""
    if workload_path:
        try:
            calls, digest = import_workload(workload_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"workload '{workload_path}': {exc}") from exc
        return calls.sorted_by_arrival(), {"workload_sha256": digest}
    source = {
        "seed": config.seed,
        "arrival_window_ms": config.arrival_window_ms,
        "demand_ms": config.demand_ms,
    }
    return generate_workload(config.workload_params, config.topology), source


# --- report serialization ---------------------------------------------------


def report_params(
    config: RunConfig, report: SimulationReport, n_calls: int, source: dict
) -> dict:
    """The run's parameters; n_calls is the number of calls simulated and
    `source` where they came from, which a replayed workload file sets, not
    the config."""
    return {
        "bsc_channels": list(config.bsc_channels),
        "cells_per_bsc": config.cells_per_bsc,
        "area_km": config.area_km,
        "n_calls": n_calls,
        **source,
        "context_switch_ms": config.context_switch_ms,
        "waiting_ms": config.waiting_ms,
        "quantum_ms": report.quantum_ms,
    }


def report_document(report: SimulationReport, params: dict, full: bool = False) -> dict:
    """The report's summary. With `full`, its last key, "records", holds the
    report itself, which write_json renders as the per-call records."""
    doc = {
        "system": report.system,
        "params": params,
        "counts": {
            "accepted_home": report.accepted_home,
            "handed_over": report.handed_over,
            "blocked": report.blocked,
        },
        "per_bsc_handled": {str(b): n for b, n in sorted(report.per_bsc_handled.items())},
        "total_execution_time_ms": report.total_execution_time_ms,
        "empirical_blocking": report.empirical_blocking,
    }
    if full:
        doc["records"] = report
    return doc


def comparison_document(comparison: ComparisonReport, params: dict, full: bool) -> dict:
    return {
        "normal": report_document(comparison.normal, params, full),
        "load_balanced": report_document(comparison.load_balanced, params, full),
        "deltas": {
            "blocking_delta_pp": comparison.blocking_delta_pp,
            "execution_time_delta_ms": comparison.execution_time_delta_ms,
        },
    }


def _holds_report(value) -> bool:
    return isinstance(value, SimulationReport) or (
        isinstance(value, dict) and any(map(_holds_report, value.values()))
    )


def write_json(write, value, depth: int = 0) -> None:
    """Write json.dumps(value, indent=2) as it reads `depth` levels deep in
    a document. A SimulationReport in `value` stands for its per-call
    records array: only the dicts that hold one are written key by key,
    and the records are rendered from the report's columns."""
    pad = "\n" + "  " * depth
    if isinstance(value, SimulationReport):
        _write_json_records(write, value, pad)
    elif _holds_report(value):
        for i, (key, item) in enumerate(value.items()):
            write(("," if i else "{") + pad + "  " + json.dumps(key) + ": ")
            write_json(write, item, depth + 1)
        write(pad + "}")
    else:
        write(json.dumps(value, indent=2).replace("\n", pad))


CHUNK_CALLS = 4096  # calls rendered per write: bounds the text held at once


def _record_chunks(report: SimulationReport, outcome):
    """The per-call columns, CHUNK_CALLS calls at a time, as four lists: call
    id, outcome, execution time and slices. A call's outcome is its
    disposition and serving BSC fields, `outcome(disposition, serving BSC
    or None)`, rendered once per serving BSC."""
    outcomes = {
        bsc: outcome(Disposition.of(bsc).value, None if bsc == NO_BSC else bsc)
        for bsc in np.unique(report.serving_bscs).tolist()
    }
    for start in range(0, len(report.call_ids), CHUNK_CALLS):
        part = slice(start, start + CHUNK_CALLS)
        yield (
            report.call_ids[part].tolist(),
            list(map(outcomes.__getitem__, report.serving_bscs[part].tolist())),
            report.execution_times_ms[part].tolist(),
            report.slices[part].tolist(),
        )


def _write_json_records(write, report: SimulationReport, pad: str) -> None:
    def outcome(disposition: str, bsc: int | None) -> str:
        return f'"{disposition}",{pad}    "serving_bsc": {"null" if bsc is None else bsc}'

    # a float's str is its repr, as json writes it; json writes a non-finite
    # one as Infinity or NaN, str as inf or nan
    record = (
        f'{pad}  {{{pad}    "call_id": %d,{pad}    "disposition": %s,'
        f'{pad}    "execution_time_ms": %s,{pad}    "slices_used": %d{pad}  }}'
    )
    finite = bool(np.isfinite(report.execution_times_ms).all())
    opening = "["
    for ids, outcomes, times, slices in _record_chunks(report, outcome):
        if not finite:
            times = list(map(json.dumps, times))
        write(opening + ",".join(map(record.__mod__, zip(ids, outcomes, times, slices))))
        opening = ","
    write("[]" if opening == "[" else pad + "]")


def write_records_csv(write, report: SimulationReport) -> None:
    def outcome(disposition: str, bsc: int | None) -> str:
        return f"{disposition},{'' if bsc is None else bsc}"

    write("call_id,disposition,serving_bsc,execution_time_ms,slices_used\n")
    for chunk in _record_chunks(report, outcome):
        write("".join(map("%d,%s,%r,%d\n".__mod__, zip(*chunk))))


def comparison_csv(comparison: ComparisonReport) -> str:
    lines = ["system,accepted_home,handed_over,blocked,total_execution_time_ms,empirical_blocking"]
    for report in (comparison.normal, comparison.load_balanced):
        lines.append(
            f"{report.system},{report.accepted_home},{report.handed_over},{report.blocked},"
            f"{report.total_execution_time_ms!r},{report.empirical_blocking!r}"
        )
    return "\n".join(lines) + "\n"


def console_block(report: SimulationReport, topology: NetworkTopology) -> str:
    """Human-readable run summary: home pool, overload notice, tallies."""
    total = report.accepted_home + report.handed_over + report.blocked
    overflow = total - report.accepted_home
    pools = topology.bsc_channels
    neighbors = range(HOME_BSC + 1, len(pools))
    lines = [
        f"system have {topology.cells_per_bsc} cell per BSC",
        f"channel free BSC1 = {pools[HOME_BSC]}",
        f"number of call request = {total}",
    ]
    if overflow > 0:
        lines.append("BSC1 overloaded")
    if report.system == "normal":
        lines.append(f"Number of Blocked calls = {report.blocked}")
    else:
        lines.append(f"Number of Handover calls = {report.handed_over}")
        for bsc in neighbors:
            lines.append(f"channel free BSC{bsc + 1} = {pools[bsc]}")
        for bsc in neighbors:
            lines.append(f"BSC{bsc + 1} Handeled = {report.per_bsc_handled[bsc]}")
        if report.blocked > 0:
            lines.append(f"Number of Blocked calls = {report.blocked}")
    return "\n".join(lines)


@contextmanager
def _output(path: str | None):
    """A write function for the document: into `path`, or onto stdout."""
    if not path:
        yield sys.stdout.write
    else:
        with open(path, "w") as fh:
            yield fh.write


@contextmanager
def _quantum_named(workload_path: str | None):
    """Says which calls left the quantum undefined, and how to set one."""
    try:
        yield
    except UndefinedQuantum as exc:
        source = f"workload '{workload_path}'" if workload_path else "the generated workload"
        raise ConfigError(
            f"{source}: the overflow calls' mean arrival is {exc.avg_arrival_range_ms} ms, "
            "so the round-robin quantum (mean arrival / overflow calls) is undefined; "
            "set one with --quantum"
        ) from exc


# --- subcommands ------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    topology = config.topology
    calls, source = _load_calls(config, args.workload)
    if args.system == "normal":
        report = simulate_normal(topology, calls, waiting_ms=config.waiting_ms)
    else:
        with _quantum_named(args.workload):
            report = simulate_load_balanced(topology, calls, config.lb_params)
    print(console_block(report, topology))
    with _output(config.output) as write:
        if config.format == "json":
            params = report_params(config, report, len(calls), source)
            write_json(write, report_document(report, params, args.full))
            write("\n")
        else:
            write_records_csv(write, report)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    topology = config.topology
    calls, source = _load_calls(config, args.workload)
    with _quantum_named(args.workload):
        comparison = compare_systems(topology, calls, config.lb_params)
    ns, lb = comparison.normal, comparison.load_balanced
    print(console_block(lb, topology))
    print(
        f"normal: blocked = {ns.blocked}, total execution time = "
        f"{ns.total_execution_time_ms:.4f} ms"
    )
    print(
        f"load_balanced: blocked = {lb.blocked}, total execution time = "
        f"{lb.total_execution_time_ms:.4f} ms"
    )
    print(f"blocking delta = {comparison.blocking_delta_pp:.4f} percentage points")
    print(f"execution time delta = {comparison.execution_time_delta_ms:.4f} ms")
    with _output(config.output) as write:
        if config.format == "json":
            params = report_params(config, lb, len(calls), source)
            write_json(write, comparison_document(comparison, params, args.full))
            write("\n")
        else:
            write(comparison_csv(comparison))
    return EXIT_OK


def parse_levels(text: str) -> list[int]:
    """Either start:stop:step (stop inclusive) or a comma list of levels.

    Checks syntax only; blocking_sweep checks the levels themselves.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range '{text}' must be start:stop:step")
        try:
            start, stop, step = (int(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"range '{text}' must be integers") from exc
        if step <= 0:
            raise ConfigError(f"range '{text}': step must be > 0")
        levels = list(range(start, stop + 1, step))
    else:
        try:
            levels = [int(p) for p in text.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigError(f"levels '{text}' must be integers") from exc
    if not levels:
        raise ConfigError(f"levels '{text}' is empty (a descending range holds no level)")
    return levels


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    levels = parse_levels(args.levels)
    points = blocking_sweep(
        config.topology,
        levels,
        seed=config.seed,
        lb_params=config.lb_params,
        arrival_window_ms=config.arrival_window_ms,
        demand_ms=config.demand_ms,
    )
    with _output(config.output) as write:
        write(format_blocking_csv(points))
    return EXIT_OK


def _cmd_erlang(args: argparse.Namespace) -> int:
    if args.a is not None and (args.lam is not None or args.mu is not None):
        raise ConfigError("give either --a or --lambda with --mu, not both")
    if args.a is not None:
        load = OfferedLoad(args.a)
    elif args.lam is not None and args.mu is not None:
        load = OfferedLoad.from_rates(args.lam, args.mu)
    else:
        raise ConfigError("offered load missing: give --a or both --lambda and --mu")
    print(f"{erlang_b(load, args.n):.6f}")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    calls = generate_workload(config.workload_params, config.topology)
    with _output(config.output) as write:
        format_workload(write, calls)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellbalance",
        description="Cellular call-admission simulator: home-BSC blocking "
        "versus round-robin handover load balancing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, workload: bool = False) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--calls", dest="n_calls", type=int, help="number of call requests")
        p.add_argument("--seed", type=int, help="workload RNG seed")
        p.add_argument("--bsc-channels", dest="bsc_channels",
                       help="per-BSC channel pools, e.g. '313,346,382'")
        p.add_argument("--cells-per-bsc", dest="cells_per_bsc", type=int)
        p.add_argument("--area-km", dest="area_km", type=float)
        p.add_argument("--window", dest="arrival_window_ms", type=float,
                       help="arrival window in ms")
        p.add_argument("--demand", dest="demand_ms", type=float,
                       help="handover demand per call in ms")
        p.add_argument("--context-switch", dest="context_switch_ms", type=float)
        p.add_argument("--waiting", dest="waiting_ms", type=float)
        p.add_argument("--quantum", dest="quantum_override_ms", type=float,
                       help="override the computed quantum, ms")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--output", help="write the document here instead of stdout")
        p.add_argument("--full", action="store_true",
                       help="include per-call records in JSON reports")
        if workload:
            p.add_argument("--workload", help="replay calls from an exported workload file")

    p_run = sub.add_parser("run", help="run one admission system")
    p_run.add_argument("system", choices=("normal", "lb"))
    add_common(p_run, workload=True)
    p_run.set_defaults(handler=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run both systems on one workload")
    add_common(p_cmp, workload=True)
    p_cmp.set_defaults(handler=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="blocking curve over load levels")
    p_sweep.add_argument("levels", help="start:stop:step (stop inclusive) or n1,n2,...")
    add_common(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_erl = sub.add_parser("erlang", help="Erlang B blocking probability")
    p_erl.add_argument("--a", type=float, help="offered load in erlangs")
    p_erl.add_argument("--lambda", dest="lam", type=float, help="arrival rate per second")
    p_erl.add_argument("--mu", type=float, help="departure rate per second")
    p_erl.add_argument("--n", type=int, required=True, help="number of channels")
    p_erl.set_defaults(handler=_cmd_erlang)

    p_gen = sub.add_parser("gen", help="generate and export a workload file")
    add_common(p_gen)
    p_gen.set_defaults(handler=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
