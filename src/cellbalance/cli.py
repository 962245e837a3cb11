"""Command-line front end: run, compare, sweep, erlang, gen.

Configuration is a flat key = value file (arrays bracketed); each key also
has a flag, which wins over the file. One file may hold every key, and each
subcommand takes the flags of the keys that can change what it writes.
Reports are written as JSON or CSV; each run also prints a short console
block (home pool, overload notice, handover tallies).
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

from .engine import (
    NO_BSC,
    ComparisonReport,
    LbParams,
    SimulationReport,
    UndefinedQuantum,
    compare_systems,
    disposition,
    simulate_load_balanced,
    simulate_normal,
)
from .teletraffic import OfferedLoad, blocking_sweep, erlang_b, format_blocking_csv
from .topology import CELLS_PER_BSC, HOME_BSC, NetworkTopology
from .traffic import (
    AREA_KM,
    WorkloadParams,
    format_workload,
    generate_workload,
    import_workload,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader left


@dataclass(frozen=True)
class RunConfig:
    """The validated objects a subcommand runs on, and where its document goes."""

    topology: NetworkTopology
    workload_params: WorkloadParams
    lb_params: LbParams
    format: str
    output: str | None


def _parse_channels(text: str) -> tuple[int, ...]:
    inner = text.strip()
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    return tuple(int(part) for part in inner.split(","))


def _parse_quantum(text: str) -> float | None:
    return None if text.lower() in ("none", "") else float(text)


def _parse_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(text)
    return text


# config key: (flag, parser of a file value or flag, help). The topology,
# workload and load-balancing keys are the field names of the objects built
# from them.
CONFIG_KEYS = {
    "bsc_channels": ("--bsc-channels", _parse_channels,
                     "per-BSC channel pools, home first, e.g. '313,346,382'"),
    "n_calls": ("--calls", int, "number of call requests"),
    "seed": ("--seed", int, "workload RNG seed"),
    "arrival_window_ms": ("--window", float, "arrival window in ms"),
    "demand_ms": ("--demand", float, "handover demand per call in ms"),
    "context_switch_ms": ("--context-switch", float, "round-robin context switch, ms"),
    "waiting_ms": ("--waiting", float, "waiting time per examined call, ms"),
    "quantum_override_ms": ("--quantum", _parse_quantum,
                            "override the computed quantum, ms (none: computed)"),
    "format": ("--format", _parse_format, "json or csv"),
    "output": ("--output", str, "write the document here instead of stdout"),
}
WORKLOAD_KEYS = tuple(f.name for f in fields(WorkloadParams))


def _parse_value(key: str, raw: str, where: str):
    try:
        return CONFIG_KEYS[key][1](raw)
    except ValueError as exc:
        raise ValueError(f"{where}: key '{key}' has invalid value '{raw}'") from exc


def load_config_file(path: str) -> dict:
    """Parse a flat key = value file into typed config entries."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config '{path}': {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got '{stripped}'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
        values[key] = _parse_value(key, raw, f"{path}:{lineno}")
    return values


def _built(cls, values: dict):
    """cls from the values of its own fields; the rest keep cls's defaults."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, then the config file, then command-line flags.

    Builds the topology, workload and load-balancing params, so a bad value
    raises ValueError (exit 2) before any subcommand runs.
    """
    values = {"n_calls": 900}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key, (flag, _, _) in CONFIG_KEYS.items():
        raw = getattr(args, key, None)
        if raw is not None:
            values[key] = _parse_value(key, raw, flag)
    return RunConfig(
        topology=_built(NetworkTopology, values),
        workload_params=_built(WorkloadParams, values),
        lb_params=_built(LbParams, values),
        format=values.get("format", "json"),
        output=values.get("output"),
    )


# --- report serialization ---------------------------------------------------


def report_params(config: RunConfig, report: SimulationReport, source: dict) -> dict:
    """The run's parameters: n_calls counts the calls simulated, and
    `source` says where they came from, which a replayed workload file sets,
    not the config."""
    lb_params = config.lb_params
    return {
        "bsc_channels": list(report.bsc_channels),
        "cells_per_bsc": CELLS_PER_BSC,
        "area_km": AREA_KM,
        "n_calls": len(report.call_ids),
        **source,
        "context_switch_ms": lb_params.context_switch_ms,
        "waiting_ms": lb_params.waiting_ms,
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


RECORDS_MARKER = "\0records"  # json.dumps's stand-in for a report: no document holds it


def write_json(write, doc: dict) -> None:
    """Write json.dumps(doc, indent=2) and a newline. A SimulationReport in
    `doc` stands for its per-call records array, rendered from the report's
    columns where json.dumps put its marker, indented as the line that holds
    the marker."""
    reports = []

    def marked(value) -> str:
        if not isinstance(value, SimulationReport):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        reports.append(value)
        return RECORDS_MARKER

    *pieces, last = json.dumps(doc, indent=2, default=marked).split(json.dumps(RECORDS_MARKER))
    for piece, report in zip(pieces, reports):
        write(piece)
        line = piece[piece.rfind("\n") + 1:]
        _write_json_records(write, report, "\n" + " " * (len(line) - len(line.lstrip(" "))))
    write(last + "\n")


CHUNK_CALLS = 4096  # calls rendered per write: bounds the text held at once


def _record_chunks(report: SimulationReport, outcome):
    """The per-call columns, CHUNK_CALLS calls at a time, as four lists: call
    id, outcome, execution time and slices. A call's outcome is its
    disposition and serving BSC fields, `outcome(disposition, serving BSC
    or None)`, rendered once per serving BSC."""
    outcomes = {
        bsc: outcome(disposition(bsc), None if bsc == NO_BSC else bsc)
        for bsc in range(NO_BSC, len(report.bsc_channels))
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

    # a float's str is its repr, as json writes a finite one
    record = (
        f'{pad}  {{{pad}    "call_id": %d,{pad}    "disposition": %s,'
        f'{pad}    "execution_time_ms": %s,{pad}    "slices_used": %d{pad}  }}'
    )
    opening = "["
    for chunk in _record_chunks(report, outcome):
        write(opening + ",".join(map(record.__mod__, zip(*chunk))))
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


def console_block(report: SimulationReport) -> str:
    """Human-readable run summary: home pool, overload notice, tallies."""
    total = len(report.call_ids)
    overflow = total - report.accepted_home
    pools = report.bsc_channels
    neighbors = range(HOME_BSC + 1, len(pools))
    lines = [
        f"system have {CELLS_PER_BSC} cell per BSC",
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
    """A write function for the document: into `path`, or onto stdout. A
    path that cannot be opened or written, at close too, is a usage error."""
    if path is None:
        yield sys.stdout.write
        return
    try:
        with open(path, "w") as fh:
            yield fh.write
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ValueError(f"cannot write output '{path}': {exc.strerror}") from exc


def _same_file(a: str, b: str) -> bool:
    """Whether both paths exist and name one file, however spelled."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


# --- subcommands ------------------------------------------------------------
# handler(args, config) does the work and every refusal, then returns
# emit(write), which prints the console lines and writes the document: main
# opens --output for emit alone, so a refused command leaves the file as it was.


def _simulated(args: argparse.Namespace, config: RunConfig, simulate):
    """simulate(topology, calls, lb_params) on the command's calls, and the
    report params that say where they came from: the --workload file's
    digest, or what generated them."""
    path = args.workload
    if args.full and config.format == "csv":
        raise ValueError("--full adds per-call records to JSON only, and format is csv")
    if path is None:
        params = config.workload_params
        calls = generate_workload(params)
        source = {
            "seed": params.seed,
            "arrival_window_ms": params.arrival_window_ms,
            "demand_ms": params.demand_ms,
        }
        named = "the generated workload"
    else:
        keys = [key for key in WORKLOAD_KEYS if getattr(args, key) is not None]
        if keys:
            flags = ", ".join(CONFIG_KEYS[key][0] for key in keys)
            raise ValueError(
                f"{flags}: the calls come from --workload '{path}', "
                "so these flags would set nothing"
            )
        if config.output and _same_file(config.output, path):
            raise ValueError(
                f"--output '{config.output}' is the --workload file: "
                "writing the report would destroy the calls it replays"
            )
        named = f"workload '{path}'"
        try:
            if not path:  # Path("") is ".", a directory never given
                raise ValueError("the path is empty")
            calls, digest = import_workload(path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"{named}: {exc}") from exc
        source = {"workload_sha256": digest}
    try:
        return simulate(config.topology, calls, config.lb_params), source
    except UndefinedQuantum as exc:
        raise ValueError(
            f"{named}: the overflow calls' mean arrival is {exc.avg_arrival_range_ms} ms, "
            "so the round-robin quantum (mean arrival / overflow calls) is undefined; "
            "set one with --quantum"
        ) from exc


def _cmd_run(args: argparse.Namespace, config: RunConfig):
    simulate = simulate_normal if args.system == "normal" else simulate_load_balanced
    report, source = _simulated(args, config, simulate)

    def emit(write) -> None:
        print(console_block(report))
        if config.format == "json":
            params = report_params(config, report, source)
            write_json(write, report_document(report, params, args.full))
        else:
            write_records_csv(write, report)

    return emit


def _cmd_compare(args: argparse.Namespace, config: RunConfig):
    comparison, source = _simulated(args, config, compare_systems)
    ns, lb = comparison.normal, comparison.load_balanced

    def emit(write) -> None:
        print(console_block(lb))
        for report in (ns, lb):
            print(f"{report.system}: blocked = {report.blocked}, total execution time = "
                  f"{report.total_execution_time_ms:.4f} ms")
        print(f"blocking delta = {comparison.blocking_delta_pp:.4f} percentage points")
        print(f"execution time delta = {comparison.execution_time_delta_ms:.4f} ms")
        if config.format == "json":
            params = report_params(config, lb, source)
            write_json(write, comparison_document(comparison, params, args.full))
        else:
            write(comparison_csv(comparison))

    return emit


def parse_levels(text: str) -> list[int]:
    """Either start:stop:step (stop inclusive) or a comma list of levels.

    Checks syntax only; blocking_sweep checks the levels themselves.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range '{text}' must be start:stop:step")
        try:
            start, stop, step = (int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"range '{text}' must be integers") from exc
        if step <= 0:
            raise ValueError(f"range '{text}': step must be > 0")
        levels = list(range(start, stop + 1, step))
    else:
        try:
            levels = [int(p) for p in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"levels '{text}' must be integers") from exc
    if not levels:
        raise ValueError(f"levels '{text}' is empty (a descending range holds no level)")
    return levels


def _cmd_sweep(args: argparse.Namespace, config: RunConfig):
    levels = parse_levels(args.levels)
    points = blocking_sweep(config.topology, levels, config.workload_params.seed)
    return lambda write: write(format_blocking_csv(points))


def _cmd_erlang(args: argparse.Namespace, config: RunConfig):
    if args.a is not None and (args.lam is not None or args.mu is not None):
        raise ValueError("give either --a or --lambda with --mu, not both")
    if args.a is not None:
        load = OfferedLoad(args.a)
    elif args.lam is not None and args.mu is not None:
        load = OfferedLoad.from_rates(args.lam, args.mu)
    else:
        raise ValueError("offered load missing: give --a or both --lambda and --mu")
    blocking = erlang_b(load, args.n)
    return lambda write: write(f"{blocking:.6f}\n")


def _cmd_gen(args: argparse.Namespace, config: RunConfig):
    # the work is the writing: the calls are drawn as their rows are written
    return lambda write: format_workload(write, config.workload_params)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellbalance",
        description="Cellular call-admission simulator: home-BSC blocking "
        "versus round-robin handover load balancing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_keys(p: argparse.ArgumentParser, keys, replay: bool = False) -> None:
        p.add_argument("--config", help="flat key = value config file")
        for key in keys:
            flag, _, help_text = CONFIG_KEYS[key]
            p.add_argument(flag, dest=key, help=help_text)
        if replay:
            p.add_argument("--full", action="store_true",
                           help="include per-call records in JSON reports")
            p.add_argument("--workload", help="replay calls from an exported workload file")

    p_run = sub.add_parser("run", help="run one admission system")
    p_run.add_argument("system", choices=("normal", "lb"))
    add_keys(p_run, CONFIG_KEYS, replay=True)
    p_run.set_defaults(handler=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run both systems on one workload")
    add_keys(p_cmp, CONFIG_KEYS, replay=True)
    p_cmp.set_defaults(handler=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="blocking curve over load levels")
    p_sweep.add_argument("levels", help="start:stop:step (stop inclusive) or n1,n2,...")
    # the CSV depends only on the levels and the pools; perfbench still passes
    # --seed (ROADMAP item 5)
    add_keys(p_sweep, ["bsc_channels", "seed", "output"])
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_erl = sub.add_parser("erlang", help="Erlang B blocking probability")
    p_erl.add_argument("--a", type=float, help="offered load in erlangs")
    p_erl.add_argument("--lambda", dest="lam", type=float, help="arrival rate per second")
    p_erl.add_argument("--mu", type=float, help="departure rate per second")
    p_erl.add_argument("--n", type=int, required=True, help="number of channels")
    p_erl.set_defaults(handler=_cmd_erlang)

    p_gen = sub.add_parser("gen", help="generate and export a workload file")
    # the file depends only on the workload keys; perfbench still passes
    # --bsc-channels (ROADMAP item 3)
    add_keys(p_gen, ["bsc_channels", *WORKLOAD_KEYS, "output"])
    p_gen.set_defaults(handler=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        emit = args.handler(args, config)
        with _output(config.output) as write:
            emit(write)
        sys.stdout.flush()  # a reader that left shows here, not at interpreter exit
        return EXIT_OK
    except BrokenPipeError:
        # stdout's unsent buffer goes to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
