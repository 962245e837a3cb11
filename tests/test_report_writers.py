"""The streamed `--full` JSON and record CSV, byte for byte against the
writers they replaced (oracles.py), on stdout and in an --output file."""

import io
import json
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import comparison_document_oracle, records_csv_oracle, report_document_oracle

from cellbalance import cli

CHUNK = cli.CHUNK_CALLS
SPIED = ("simulate_normal", "simulate_load_balanced", "compare_systems", "report_params")


def run(argv: list[str], output: Path | None = None) -> tuple[str, dict]:
    """What `cellbalance argv` prints, and what the CLI's calls to SPIED
    returned, by name."""
    seen = {}

    def spy(name):
        call = getattr(cli, name)

        def wrapper(*args, **kwargs):
            seen[name] = result = call(*args, **kwargs)
            return result

        return wrapper

    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(stdout):
        for name in SPIED:
            mp.setattr(cli, name, spy(name))
        extra = ["--output", str(output)] if output else []
        assert cli.main(argv + extra) == cli.EXIT_OK
    return stdout.getvalue(), seen


def oracle_document(argv: list[str], seen: dict) -> str:
    full = "--full" in argv
    if argv[0] == "compare":
        doc = comparison_document_oracle(seen["compare_systems"], seen["report_params"], full)
        return json.dumps(doc, indent=2) + "\n"
    report = seen["simulate_normal" if argv[1] == "normal" else "simulate_load_balanced"]
    if "csv" in argv:
        return records_csv_oracle(report)
    return json.dumps(report_document_oracle(report, seen["report_params"], full), indent=2) + "\n"


@st.composite
def commands(draw) -> list[str]:
    argv = draw(st.sampled_from([["run", "normal"], ["run", "lb"], ["compare"]]))
    pools = draw(st.lists(st.integers(0, 30), min_size=2, max_size=4))
    argv = argv + [
        "--calls", str(draw(st.integers(0, 80))),
        "--bsc-channels", ",".join(map(str, pools)),
        "--seed", str(draw(st.integers(0, 2**32 - 1))),
        "--demand", repr(draw(st.floats(0.05, 3.0))),
    ]
    if draw(st.booleans()):
        argv += ["--quantum", repr(draw(st.floats(0.01, 1.0)))]
    if argv[0] == "run" and draw(st.booleans()):
        argv += ["--format", "csv"]
    return argv + (["--full"] if draw(st.booleans()) else [])


BIG_POOLS = ["--bsc-channels", "2000,1500,1000"]  # every disposition at CHUNK calls and more


@settings(max_examples=60, deadline=None)
@given(argv=commands())
@example(argv=["compare", "--calls", "0", "--full"])
@example(argv=["run", "lb", "--calls", "0", "--format", "csv"])
@example(argv=["compare", "--calls", "300", "--bsc-channels", "0,0,0", "--full"])
@example(argv=["run", "lb", "--calls", "300", "--bsc-channels", "0,0", "--format", "csv"])
# a slice costing more than the largest float: json writes Infinity, CSV inf
@example(argv=["compare", "--calls", "40", "--quantum", "1e308", "--context-switch", "1e308", "--full"])
@example(argv=["run", "lb", "--calls", "40", "--quantum", "1e308", "--context-switch", "1e308", "--format", "csv"])
@example(argv=["compare", "--calls", str(2 * CHUNK), *BIG_POOLS, "--full"])
@example(argv=["run", "lb", "--calls", str(2 * CHUNK), *BIG_POOLS, "--format", "csv"])
@example(argv=["run", "lb", "--calls", str(CHUNK), *BIG_POOLS, "--full"])
@example(argv=["run", "normal", "--calls", str(CHUNK), *BIG_POOLS, "--format", "csv"])
@example(argv=["compare", "--calls", str(CHUNK + 1), *BIG_POOLS, "--quantum", "0.3", "--full"])
@example(argv=["run", "lb", "--calls", str(CHUNK + 1), *BIG_POOLS, "--format", "csv"])
def test_streamed_bytes_equal_oracle(argv):
    with tempfile.TemporaryDirectory() as tmp:
        output = Path(tmp) / "document"
        console, seen = run(argv, output)
        expected = oracle_document(argv, seen)
        assert output.read_bytes() == expected.encode()
    assert run(argv)[0] == console + expected


def test_full_compare_memory_stays_flat(tmp_path):
    """Building every record as an object, then a dict, then one string
    peaked at 146.6 MiB of traced allocations on this command; rendering
    CHUNK_CALLS calls at a time peaks at about 7 MiB."""
    argv = ["compare", "--calls", "50000", "--bsc-channels", "17400,19200,21200", "--full"]
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--output", str(tmp_path / "full.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak <= 40 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_gen_memory_stays_flat(tmp_path):
    """Formatting the whole workload file as one string first peaked at
    21.0 MiB of traced allocations on this command; writing EXPORT_ROWS
    rows at a time peaks at about 5 MiB."""
    tracemalloc.start()
    try:
        code = cli.main(["gen", "--calls", "50000", "--output", str(tmp_path / "calls.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak <= 10 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
