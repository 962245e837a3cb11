"""Command-line front end: run, compare, sweep, erlang, gen.

Configuration is a flat key = value file (arrays bracketed); each key also
has a flag, which wins over the file. One file may hold every key, and each
subcommand takes the flags of the keys that can change what it writes.
Each document, JSON or CSV, and the console block a run prints (home pool,
overload notice, handover tallies) come from `report`.
"""

import argparse
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .engine import UndefinedQuantum, compare_systems, simulate_load_balanced, simulate_normal
from .report import (
    comparison_csv,
    comparison_document,
    console_block,
    report_document,
    report_params,
    write_json,
    write_records_csv,
)
from .teletraffic import OfferedLoad, blocking_sweep, erlang_b, format_blocking_csv
from .topology import LbParams, NetworkTopology, WorkloadParams
from .traffic import format_workload, generate_workload, import_workload, workload_columns

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
    except (OSError, UnicodeDecodeError) as exc:
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
    values = {}
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


def _write(path: str | None, console: str, document) -> None:
    """Write the document into `path`, then the console text to stdout,
    and the document there too when there is no path. A path that cannot
    be opened, written or closed is a usage error that names it; so is a
    stdout that cannot be written, unless its reader left
    (BrokenPipeError), or that was closed when the process started, which
    is refused before `path` is touched."""
    to_stdout = bool(console) or path is None
    if to_stdout and sys.stdout is None:  # fd 1 was closed at start
        raise ValueError("cannot write standard output: Bad file descriptor")
    if path is not None:
        try:
            with open(path, "w") as fh:
                document(fh.write)
        except BrokenPipeError:
            raise
        except OSError as exc:
            raise ValueError(f"cannot write output '{path}': {exc.strerror}") from exc
    if not to_stdout:
        return
    try:
        sys.stdout.write(console)
        if path is None:
            document(sys.stdout.write)
        sys.stdout.flush()  # a stdout that fails shows here, not at interpreter exit
    except OSError as exc:
        # stdout's unsent buffer goes to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise
        raise ValueError(f"cannot write standard output: {exc.strerror}") from exc


def _same_file(a: str, b: str) -> bool:
    """Whether both paths exist and name one file, however spelled."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


# --- subcommands ------------------------------------------------------------
# handler(args, config) does the work and every refusal, then returns
# (console, document): the console lines as one string ("" for none) and
# document(write), which writes the document. main hands both to _write, which
# opens --output only then, so a refused command leaves the file as it was.


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

    def document(write) -> None:
        if config.format == "json":
            params = report_params(config.lb_params, report, source)
            write_json(write, report_document(report, params, args.full))
        else:
            write_records_csv(write, report)

    return console_block(report) + "\n", document


def _cmd_compare(args: argparse.Namespace, config: RunConfig):
    comparison, source = _simulated(args, config, compare_systems)
    ns, lb = comparison.normal, comparison.load_balanced
    lines = [console_block(lb)]
    for report in (ns, lb):
        lines.append(f"{report.system}: blocked = {report.blocked}, total execution time = "
                     f"{report.total_execution_time_ms:.4f} ms")
    lines.append(f"blocking delta = {comparison.blocking_delta_pp:.4f} percentage points")
    lines.append(f"execution time delta = {comparison.execution_time_delta_ms:.4f} ms")

    def document(write) -> None:
        if config.format == "json":
            params = report_params(config.lb_params, lb, source)
            write_json(write, comparison_document(comparison, params, args.full))
        else:
            write(comparison_csv(comparison))

    return "\n".join(lines) + "\n", document


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
    points = blocking_sweep(config.topology, levels)
    return "", lambda write: write(format_blocking_csv(points))


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
    return "", lambda write: write(f"{blocking:.6f}\n")


def _cmd_gen(args: argparse.Namespace, config: RunConfig):
    columns = workload_columns(config.workload_params)
    return "", lambda write: format_workload(write, columns)


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
    # the CSV depends only on the levels and the pools: nothing reads --seed,
    # which stays accepted because perfbench passes it (ROADMAP item 3)
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
        _write(config.output, *args.handler(args, config))
        return EXIT_OK
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's message names the size; a bare one is empty
        print(f"error: not enough memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
