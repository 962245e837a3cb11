"""The streamed `--full` JSON and record CSV, byte for byte against the
writers they replaced (oracles.py), on stdout and in an --output file; and
every JSON document strict, with no Infinity or NaN."""

import io
import json
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import comparison_document_oracle, records_csv_oracle, report_document_oracle

from cellbalance import cli
from cellbalance.report import write_json
from cellbalance.traffic import CHUNK, WORKLOAD_HEADER

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
        return argv + ["--format", "csv"]  # --full is refused with CSV
    return argv + (["--full"] if draw(st.booleans()) else [])


BIG_POOLS = ["--bsc-channels", "2000,1500,1000"]  # every disposition at CHUNK calls and more
INF_SLICES = ["--bsc-channels", "0,40", "--quantum", "1e308", "--context-switch", "1e308"]


def strict_json(text: str):
    """The document json.loads reads, refusing the Infinity, -Infinity and
    NaN that json.dumps writes but JSON does not hold."""

    def refuse(constant):
        raise AssertionError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


@settings(max_examples=60, deadline=None)
@given(argv=commands())
@example(argv=["compare", "--calls", "0", "--full"])
@example(argv=["run", "lb", "--calls", "0", "--format", "csv"])
@example(argv=["compare", "--calls", "300", "--bsc-channels", "0,0,0", "--full"])
@example(argv=["run", "lb", "--calls", "300", "--bsc-channels", "0,0", "--format", "csv"])
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
    if "csv" not in argv:
        strict_json(expected)


HUGE_ARRIVALS = "0,1.5e308,0.1,0.1,0.4\n1,1.6e308,0.2,0.2,0.4\n"


@pytest.mark.parametrize(
    "argv",
    [
        # a slice costing more than the largest float: each handed-over
        # call's time is inf; json wrote Infinity, CSV inf
        ["compare", "--calls", "3", *INF_SLICES],
        ["compare", "--calls", "40", *INF_SLICES, "--full"],
        ["run", "lb", "--calls", "40", *INF_SLICES, "--format", "csv"],
        # arrivals summing past the largest float: the normal total, and the
        # quantum (mean arrival over queue size) when no neighbor has a channel
        ["compare", "--workload", "HUGE"],
        ["run", "lb", "--workload", "HUGE", "--bsc-channels", "0,0"],
    ],
)
def test_overflowing_run_exits_2(tmp_path, capsys, argv):
    """These wrote Infinity or printed nan, with numpy's overflow warning,
    and exited 0."""
    huge = tmp_path / "huge.csv"
    huge.write_text(WORKLOAD_HEADER + "\n" + HUGE_ARRIVALS)
    argv = [str(huge) if arg == "HUGE" else arg for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == cli.EXIT_USAGE
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "overflows a float" in captured.err
    assert captured.out == ""


def test_write_json_refuses_what_json_refuses():
    """Only a SimulationReport stands in for records; any other object
    fails as json.dumps fails on it."""
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        write_json(io.StringIO().write, {"params": {"seed": object()}})


def test_full_compare_memory_stays_flat(tmp_path):
    """Building every record as an object, then a dict, then one string
    peaked at 146.6 MiB of traced allocations on this command; rendering
    CHUNK calls at a time peaks at about 7 MiB."""
    argv = ["compare", "--calls", "50000", "--bsc-channels", "17400,19200,21200", "--full"]
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--output", str(tmp_path / "full.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak <= 40 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "last_row, exit_code",
    [
        pytest.param("", cli.EXIT_OK, id="accepted"),
        pytest.param("50000,oops,0.5,0.5,0.4\n", cli.EXIT_USAGE, id="bad-last-row"),
        pytest.param("0,1999.9,0.5,0.5,0.4\n", cli.EXIT_USAGE, id="duplicate-id"),
    ],
)
def test_replay_memory_stays_flat(tmp_path, last_row, exit_code):
    """Holding the workload file's bytes, then its text, then one string per
    line before parsing peaked at 15.0 MiB of traced allocations on this
    command; reading READ_BYTES at a time peaks at about 5.5 MiB. Reading a
    refused file again whole, to name its fault, peaked at 10.9 MiB (a bad
    last row) and 11.4 MiB (a duplicate id on the last row)."""
    workload = str(tmp_path / "calls.csv")
    assert cli.main(["gen", "--calls", "50000", "--output", workload]) == cli.EXIT_OK
    with open(workload, "a") as fh:
        fh.write(last_row)
    argv = ["compare", "--workload", workload, "--bsc-channels", "17400,19200,21200", "--full"]
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--output", str(tmp_path / "full.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == exit_code
    assert peak <= 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_gen_memory_stays_flat(tmp_path):
    """Formatting the whole workload file as one string first peaked at
    21.0 MiB of traced allocations on this command; writing CHUNK
    rows at a time peaks at about 5 MiB."""
    tracemalloc.start()
    try:
        code = cli.main(["gen", "--calls", "50000", "--output", str(tmp_path / "calls.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak <= 10 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
