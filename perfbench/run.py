"""cellbalance benchmark: fixed CLI workloads timed end to end, plus a traced run.

Run from the repository root, which must hold the program's source in src/:

    python3 perfbench/run.py --workload overload_rr --seed 42 --seconds 30 --trace 0

Each workload is a closed loop with one client: run.py spawns one
`python3 -m cellbalance.cli` command at a time (PYTHONPATH=src), waits for it
to exit and starts the next. One pass runs the workload's command sequence;
passes repeat until --seconds have elapsed. Every command's output is
checked (checks.py): invariants on any seed, pinned values (pinned.json) on
seed 42, and equality with the run's first pass otherwise. Before timing, a
run measures set-up on a command that does no workload work and checks the
workload's smoke size against its pinned values.

--trace 0 reports the end-to-end metrics of the untraced passes. --trace 1
alternates untraced passes with passes whose commands run under
traced_cli.py, reports per-layer metrics from their spans, and writes the
spans to .bench_run/. --smoke runs each workload's small size.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only if every command ran and passed its checks.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"
PINNED_SEED = 42
SRC = Path("src")
RUN_DIR = Path(".bench_run")
STDOUT = RUN_DIR / "stdout.txt"
SPANS = RUN_DIR / "spans.json"
DEADLINE_S = 170.0  # commands still running then are killed, so a run ends within 180 s
SETUP_RUNS = 3  # before the passes; one more follows each pass
SETUP_ARGS = ["erlang", "--a", "1", "--n", "1"]
MIB = 1024 * 1024

PAPER_POOLS = "313,346,382"  # also the CLI's default topology, which the sweep uses
SCALED_POOLS = "31300,34600,38200"
SIZES = {
    "overload_rr": {
        "full": {"calls": 90000, "channels": SCALED_POOLS},
        "smoke": {"calls": 900, "channels": PAPER_POOLS},
    },
    "replay_full": {
        "full": {"calls": 90000, "window": 200000, "channels": SCALED_POOLS},
        "smoke": {"calls": 900, "window": 2000, "channels": PAPER_POOLS},
    },
    "sweep_levels": {
        "full": {"levels": (0, 3000, 10), "channels": PAPER_POOLS},  # start, stop, step
        "smoke": {"levels": (0, 1500, 100), "channels": PAPER_POOLS},
    },
}
REPORT_COMMANDS = ("compare", "sweep")  # cli.output_bytes counts only their documents

END_TO_END_UNITS = {
    "calls_per_s": "calls/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "rss_bytes_per_call": "B/call",
    "ok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "traffic.generate_s": "s",
    "traffic.export_s": "s",
    "traffic.import_s": "s",
    "engine.normal_s": "s",
    "engine.lb_s": "s",
    "engine.lb_minus_normal_s": "s",
    "engine.overflow_calls": "count",
    "engine.handed_over": "count",
    "engine.blocked": "count",
    "engine.rr_slices": "count",
    "engine.max_slices": "count",
    "engine.handover_yield": "ratio",
    "engine.lb_ns_per_slice": "ns/slice",
    "cli.self_s": "s",
    "cli.report_s": "s",
    "cli.json_s": "s",
    "cli.output_bytes": "B",
    "teletraffic.sweep_s": "s",
    "teletraffic.levels": "count",
    "teletraffic.level_s_max": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Command:
    args: list[str]  # cellbalance CLI arguments
    output: Path | None  # the document it writes with --output
    check: dict  # checks.py arguments: the kind of output and its expected shape


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    peak_rss: int = 0
    output_bytes: int = 0
    extracts: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def workload(name: str, size: str, seed: int) -> tuple[list[Command], int]:
    """The commands of one pass, in order, and the input calls they simulate."""
    spec = SIZES[name][size]
    pools = [int(c) for c in spec["channels"].split(",")]
    if name == "sweep_levels":
        start, stop, step = spec["levels"]
        levels = list(range(start, stop + 1, step))
        out = RUN_DIR / "sweep.csv"
        args = ["sweep", f"{start}:{stop}:{step}", "--seed", str(seed), "--output", str(out)]
        check = {"kind": "sweep", "path": str(out), "levels": levels, "pools": pools}
        return [Command(args, out, check)], sum(levels)
    n = spec["calls"]
    topology = ["--bsc-channels", spec["channels"]]
    out = RUN_DIR / f"{name}.json"
    if name == "overload_rr":
        args = ["compare", "--calls", str(n), *topology, "--seed", str(seed), "--output", str(out)]
        check = {"kind": "compare", "path": str(out), "n": n, "pools": pools, "full": False}
        return [Command(args, out, check)], n
    calls = RUN_DIR / "workload.csv"
    gen = ["gen", "--calls", str(n), "--window", str(spec["window"]), *topology,
           "--seed", str(seed), "--output", str(calls)]
    replay = ["compare", "--workload", str(calls), *topology, "--full", "--output", str(out)]
    return [
        Command(gen, calls, {"kind": "gen", "path": str(calls), "n": n}),
        Command(replay, out, {"kind": "compare", "path": str(out), "n": n, "pools": pools, "full": True}),
    ], n


SETUP = Command(SETUP_ARGS, None, {"kind": "erlang", "path": str(STDOUT)})


class Runner:
    """Runs commands as child processes and tallies what failed."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC.resolve()))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.unpatched: set[str] = set()
        self.span_ids = 0  # span ids are unique over the whole run

    def spawn(self, argv: list[str]) -> tuple[int, int, int, int]:
        """Run argv to exit: exit code, spawn and exit times in ns, peak RSS bytes."""
        with open(STDOUT, "wb") as out:
            start_ns = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdout=out, env=self.env)
            signal.signal(signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
            signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.perf_counter(), 0.01))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end_ns = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, start_ns, end_ns, usage.ru_maxrss * 1024

    def check(self, spec: dict) -> tuple[list[str], dict | None]:
        """Run checks.py on one output in a process of its own.

        This keeps this process's memory small, which the RSS metrics need: exec
        records the spawning process's peak RSS as the new program's starting
        peak, so every later child would report at least this process's peak.
        """
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "checks.py"), json.dumps(spec)],
                capture_output=True, text=True,
                timeout=max(self.deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            return ["check timed out"], None
        if proc.returncode:
            return [f"check exited {proc.returncode}: {proc.stderr.strip()[-500:]}"], None
        result = json.loads(proc.stdout)
        return result["errors"], result["extract"]

    def run_pass(self, commands: list[Command], traced: bool, reference: list | None) -> Pass:
        """Run one pass; a command fails on a non-zero exit, a failed check, or an
        extract that differs from the reference pass."""
        done = Pass(traced)
        if traced:
            root = self.add_span(done.spans, "pass", None)
        for index, cmd in enumerate(commands):
            if cmd.output:
                cmd.output.unlink(missing_ok=True)
            if traced:
                SPANS.unlink(missing_ok=True)
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(SPANS), *cmd.args]
            else:
                argv = [sys.executable, "-m", "cellbalance.cli", *cmd.args]
            code, start_ns, end_ns, rss = self.spawn(argv)
            done.wall_s += (end_ns - start_ns) / 1e9
            done.peak_rss = max(done.peak_rss, rss)
            problems = [f"exit code {code}"] if code else []
            extract = None
            if not code:
                found, extract = self.check(cmd.check)
                problems += found
            if not problems and reference is not None:
                problems += [f"{path} differs from reference" for path in diff(extract, reference[index])]
            if cmd.args[0] in REPORT_COMMANDS and cmd.output.exists():
                done.output_bytes += cmd.output.stat().st_size
            if traced:
                self.add_command_spans(done.spans, root, cmd.args[0], start_ns, end_ns)
            done.extracts.append(extract)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.errors += [f"{' '.join(cmd.args)}: {p}" for p in problems]
        if traced:
            commands_run = [s for s in done.spans if s["parent"] == root["id"]]
            root["start_ns"] = commands_run[0]["start_ns"]
            root["end_ns"] = commands_run[-1]["end_ns"]
        return done

    def add_span(self, spans: list[dict], name: str, parent: int | None, **times) -> dict:
        span = {"id": self.span_ids, "name": name, "parent": parent, **times}
        self.span_ids += 1
        spans.append(span)
        return span

    def add_command_spans(self, spans: list[dict], root: dict, command: str,
                          start_ns: int, end_ns: int) -> None:
        """Append the command's span, then the child's spans, given run-wide ids, under it."""
        parent = self.add_span(spans, f"command.{command}", root["id"],
                               start_ns=start_ns, end_ns=end_ns)["id"]
        try:
            child = json.loads(SPANS.read_text())
        except (OSError, ValueError):
            return  # the command failed before writing spans; already counted
        self.unpatched.update(child["unpatched"])
        offset = self.span_ids
        for span in child["spans"]:
            span["id"] += offset
            span["parent"] = parent if span["parent"] is None else span["parent"] + offset
            spans.append(span)
        self.span_ids += len(child["spans"])


def diff(got, want, path: str = "") -> list[str]:
    """Paths at which two extracts differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        return [p for key in sorted(set(got) | set(want))
                for p in diff(got.get(key), want.get(key), f"{path}/{key}")]
    return [] if got == want else [path or "/"]


def durations(spans: list[dict]) -> tuple[dict, dict]:
    """Inclusive and self seconds by span name; self excludes direct children."""
    busy, own = defaultdict(float), defaultdict(float)
    names = {span["id"]: span["name"] for span in spans}
    for span in spans:
        seconds = (span["end_ns"] - span["start_ns"]) / 1e9
        busy[span["name"]] += seconds
        own[span["name"]] += seconds
        if span["parent"] is not None:
            own[names[span["parent"]]] -= seconds
    return busy, own


def layer_metrics(done: Pass) -> dict[str, float]:
    spans = done.spans
    busy, own = durations(spans)
    lb = [s["counts"] for s in spans if s["name"] == "engine.lb"]
    overflow = sum(c["overflow"] for c in lb)
    handed = sum(c["handed_over"] for c in lb)
    slices = sum(c["slices"] for c in lb)
    # a sweep level runs from its workload generation to the next level's
    level_s = []
    for sweep in (s for s in spans if s["name"] == "teletraffic.sweep"):
        starts = [s["start_ns"] for s in spans
                  if s["name"] == "traffic.generate" and s["parent"] == sweep["id"]]
        ends = starts[1:] + [sweep["end_ns"]]
        level_s += [(end - start) / 1e9 for start, end in zip(starts, ends)]
    return {
        "traffic.generate_s": busy["traffic.generate"],
        "traffic.export_s": busy["traffic.export"],
        "traffic.import_s": busy["traffic.import"],
        "engine.normal_s": busy["engine.normal"],
        "engine.lb_s": busy["engine.lb"],
        "engine.lb_minus_normal_s": busy["engine.lb"] - busy["engine.normal"],
        "engine.overflow_calls": overflow,
        "engine.handed_over": handed,
        "engine.blocked": sum(c["blocked"] for c in lb),
        "engine.rr_slices": slices,
        "engine.max_slices": max((c["max_slices"] for c in lb), default=0),
        "engine.handover_yield": handed / overflow if overflow else 0.0,
        "engine.lb_ns_per_slice": busy["engine.lb"] * 1e9 / slices if slices else 0.0,
        "cli.self_s": own["cli.main"],
        "cli.report_s": busy["cli.report"],
        "cli.json_s": busy["cli.json"],
        "cli.output_bytes": done.output_bytes,
        "teletraffic.sweep_s": busy["teletraffic.sweep"],
        "teletraffic.levels": len(level_s),
        "teletraffic.level_s_max": max(level_s, default=0.0),
    }


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return {
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "processes": "one child per command, run one at a time; no threads",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the small size")
    args = parser.parse_args()
    began = time.perf_counter()

    if not (SRC / "cellbalance" / "cli.py").is_file():
        print(f"error: no cellbalance source under {SRC.resolve()}; "
              "run from the repository root", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    runner = Runner(deadline=began + DEADLINE_S)

    size = "smoke" if args.smoke else "full"
    pinned = json.loads(PINNED.read_text())[args.workload]
    runner.run_pass([SETUP], False, None)  # warm-up: bytecode and page caches
    setup = [runner.run_pass([SETUP], False, None) for _ in range(SETUP_RUNS)]
    smoke, _ = workload(args.workload, "smoke", PINNED_SEED)
    runner.run_pass(smoke, traced=False, reference=pinned["smoke"])

    commands, calls = workload(args.workload, size, args.seed)
    reference = pinned[size] if args.seed == PINNED_SEED else None
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds or len(passes) < 1 + args.trace:
        if time.perf_counter() > runner.deadline:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        done = runner.run_pass(commands, traced, reference)
        passes.append(done)
        reference = reference or done.extracts
        # one set-up sample per pass spreads them over the run, like the passes
        setup.append(runner.run_pass([SETUP], False, None))
    measured = time.perf_counter() - start
    for cmd in commands:
        if cmd.output:
            cmd.output.unlink(missing_ok=True)

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if not plain or (args.trace and not traced):
        print(f"error: no complete pass within {DEADLINE_S} s", file=sys.stderr)
        return 1
    walls = [p.wall_s for p in plain]
    peak = statistics.median(p.peak_rss for p in plain)
    setup_rss = statistics.median(p.peak_rss for p in setup)
    end_to_end = {
        "calls_per_s": statistics.median(calls / w for w in walls),
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(p.wall_s for p in setup),
        "peak_rss_mib": peak / MIB,
        "rss_bytes_per_call": (peak - setup_rss) / calls,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    samples = {"setup_s": len(setup), "calls_per_s": len(plain), "wall_s": len(plain),
               "peak_rss_mib": len(plain), "rss_bytes_per_call": len(plain)}
    origin = provenance()

    print(f"workload {args.workload} ({size}), seed {args.seed}, {len(passes)} passes "
          f"({len(traced)} traced) in {measured:.1f} s; input calls per pass {calls}")
    print("provenance " + json.dumps(origin))
    print("pass wall_s " + " ".join(f"{'T' if p.traced else ''}{p.wall_s:.3f}" for p in passes))
    print(f"failed_ratio {runner.failed / runner.attempted!r} "
          f"({runner.failed} of {runner.attempted} commands)")
    for name, value in end_to_end.items():
        count = f"  median of {samples[name]}" if name in samples else ""
        print(f"{name:<20} {value!r} {END_TO_END_UNITS[name]}{count}")
    for error in runner.errors:
        print(f"check failed: {error}", file=sys.stderr)
    for name in sorted(runner.unpatched):
        print(f"warning: trace found no {name} to wrap; its layer reads 0", file=sys.stderr)

    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - end_to_end["wall_s"]
        units = PER_LAYER_UNITS
        own = defaultdict(list)
        for p in traced:
            for name, seconds in durations(p.spans)[1].items():
                own[name].append(seconds)
        self_times = sorted(((statistics.median(v), k) for k, v in own.items()), reverse=True)
        print(f"self time by span, median of {len(traced)} traced passes:")
        for seconds, name in self_times:
            print(f"  {name:<24} {seconds:.4f} s")
        for name, value in metrics.items():
            print(f"{name:<26} {value!r} {units[name]}")
        spans = [dict(span, workload=f"{args.workload}/{size}/seed{args.seed}/pass{index}")
                 for index, p in enumerate(traced) for span in p.spans]
        trace_path = RUN_DIR / f"trace-{args.workload}-{size}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "provenance": origin,
            "self_s": {name: seconds for seconds, name in self_times},
            "spans": spans,
        }))
    else:
        metrics, units = end_to_end, END_TO_END_UNITS

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
