"""Run one cellbalance CLI command in-process, with spans around layer calls.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS.json ARG...

runs `cellbalance ARG...` through `cellbalance.cli.main`, exactly as
`python3 -m cellbalance.cli ARG...` does, after replacing the module
attributes listed in PATCHES with wrappers that record a span around each
call. Spans stay in memory and are written to SPANS.json when the command
ends; the exit code is the command's. The program's own code is unchanged.
"""

import functools
import json
import sys
import time

# (module, attribute, span name): the calls the CLI makes into each layer.
# A function is patched in every namespace the CLI path looks it up from.
PATCHES = (
    ("cli", "generate_workload", "traffic.generate"),
    ("teletraffic", "generate_workload", "traffic.generate"),
    ("cli", "format_workload", "traffic.export"),
    ("cli", "import_workload", "traffic.import"),
    ("cli", "compare_systems", "engine.compare"),
    ("engine", "simulate_normal", "engine.normal"),
    ("engine", "simulate_load_balanced", "engine.lb"),
    ("teletraffic", "simulate_normal", "engine.normal"),
    ("teletraffic", "simulate_load_balanced", "engine.lb"),
    ("cli", "comparison_document", "cli.report"),
    ("json", "dumps", "cli.json"),
    ("cli", "blocking_sweep", "teletraffic.sweep"),
    ("cli", "format_blocking_csv", "teletraffic.format_csv"),
)


def lb_counts(report) -> dict:
    """Exact engine counters read from a load-balanced SimulationReport."""
    slices = [r.slices_used for r in report.records]
    return {
        "overflow": report.handed_over + report.blocked,
        "handed_over": report.handed_over,
        "blocked": report.blocked,
        "slices": sum(slices),
        "max_slices": max(slices, default=0),
    }


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if name == "engine.lb":
                span["counts"] = lb_counts(result)
            return result

        return traced


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    span = tracer.open("import")
    from cellbalance import cli, engine, teletraffic

    tracer.close(span)
    modules = {"cli": cli, "engine": engine, "teletraffic": teletraffic, "json": json}
    originals, missing = [], []
    for module_name, attr, name in PATCHES:
        module = modules[module_name]
        if not hasattr(module, attr):
            missing.append(f"{module_name}.{attr}")
            continue
        originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, tracer.wrap(getattr(module, attr), name))
    span = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(span)
        for module, attr, original in originals:
            setattr(module, attr, original)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "unpatched": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
