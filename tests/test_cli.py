import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cellbalance
from cellbalance import cli, engine, traffic
from cellbalance.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    load_config_file,
    main,
    parse_levels,
)
from cellbalance.topology import MAX_CALLS, NetworkTopology
from cellbalance.traffic import WORKLOAD_HEADER, WorkloadParams, generate_workload


def reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def run_json(tmp_path, argv, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    assert code == EXIT_OK
    return json.loads(out.read_text(), parse_constant=reject_constant)


class TestRunCommand:
    def test_lb_console_block_default_scenario(self, capsys, tmp_path):
        code = main(["run", "lb", "--output", str(tmp_path / "r.json")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "system have 7 cell per BSC" in out
        assert "channel free BSC1 = 313" in out
        assert "number of call request = 900" in out
        assert "BSC1 overloaded" in out
        assert "Number of Handover calls = 587" in out
        assert "channel free BSC2 = 346" in out
        assert "channel free BSC3 = 382" in out
        assert "BSC2 Handeled = 294" in out
        assert "BSC3 Handeled = 293" in out

    def test_lb_console_handover_count_under_blocking(self, capsys, tmp_path):
        """3000 calls overflow by 2687, but the neighbors hold only 728."""
        assert main(["run", "lb", "--calls", "3000", "--output", str(tmp_path / "r.json")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Number of Handover calls = 728" in out
        assert "Number of Blocked calls = 1959" in out

    def test_normal_console_reports_blocked(self, capsys, tmp_path):
        main(["run", "normal", "--output", str(tmp_path / "r.json")])
        out = capsys.readouterr().out
        assert "Number of Blocked calls = 587" in out

    def test_no_overload_line_under_capacity(self, capsys, tmp_path):
        main(["run", "normal", "--calls", "10", "--output", str(tmp_path / "r.json")])
        out = capsys.readouterr().out
        assert "BSC1 overloaded" not in out

    def test_zero_calls_report(self, tmp_path):
        doc = run_json(tmp_path, ["run", "normal", "--calls", "0"])
        assert doc["system"] == "normal"
        assert doc["counts"] == {"accepted_home": 0, "handed_over": 0, "blocked": 0}
        assert doc["empirical_blocking"] == 0.0

    def test_json_document_shape(self, tmp_path):
        doc = run_json(tmp_path, ["run", "lb"])
        counts = doc["counts"]
        assert counts["accepted_home"] + counts["handed_over"] + counts["blocked"] == 900
        assert doc["per_bsc_handled"] == {"0": 313, "1": 294, "2": 293}
        assert doc["params"]["bsc_channels"] == [313, 346, 382]
        assert doc["params"]["n_calls"] == 900
        assert doc["params"]["quantum_ms"] > 0
        assert "records" not in doc

    def test_full_records_satisfy_invariants(self, tmp_path):
        doc = run_json(tmp_path, ["run", "lb", "--calls", "40", "--bsc-channels", "10,5,5", "--full"])
        records = doc["records"]
        assert len(records) == 40
        for rec in records:
            if rec["disposition"] == "blocked":
                assert rec["serving_bsc"] is None
                assert rec["execution_time_ms"] == 0.0
                assert rec["slices_used"] == 0
            elif rec["disposition"] == "handed_over":
                assert rec["serving_bsc"] in (1, 2)
                assert rec["slices_used"] >= 1
            else:
                assert rec["serving_bsc"] == 0

    def test_csv_records_format(self, tmp_path):
        out = tmp_path / "records.csv"
        code = main(["run", "normal", "--calls", "5", "--format", "csv", "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "call_id,disposition,serving_bsc,execution_time_ms,slices_used"
        assert len(lines) == 6

    def test_bad_channels_exit_2(self, capsys):
        code = main(["run", "lb", "--bsc-channels", "313"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bsc_channels" in err

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--bsc-channels", "313,-1"], "bsc_channels[1]"),
            (["--bsc-channels", "1.5,2"],
             "--bsc-channels: key 'bsc_channels' has invalid value '1.5,2'"),
            (["--bsc-channels", "313,,346"],
             "--bsc-channels: key 'bsc_channels' has invalid value '313,,346'"),
        ],
    )
    def test_bad_topology_exit_2(self, capsys, flags, key):
        code = main(["run", "lb", *flags])
        assert code == EXIT_USAGE
        assert key in capsys.readouterr().err

    def test_negative_calls_exit_2(self, capsys):
        code = main(["run", "lb", "--calls", "-3"])
        assert code == EXIT_USAGE
        assert "n_calls" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["run", "lb", "--quantum", "nan"], "quantum_override_ms"),
            (["run", "lb", "--quantum", "inf"], "quantum_override_ms"),
            (["run", "lb", "--context-switch", "nan"], "context_switch_ms"),
            (["run", "normal", "--waiting", "inf"], "waiting_ms"),
            (["run", "normal", "--demand", "nan"], "demand_ms"),
            (["compare", "--window", "nan"], "arrival_window_ms"),
            (["sweep", "0:100:50", "--config", "waiting_ms = nan"], "waiting_ms"),
            (["gen", "--window", "inf"], "arrival_window_ms"),
            (["gen", "--demand", "nan"], "demand_ms"),
            (["erlang", "--a", "nan", "--n", "2"], "erlangs"),
            (["erlang", "--lambda", "inf", "--mu", "1", "--n", "2"], "lambda_per_s"),
            (["erlang", "--lambda", "1", "--mu", "nan", "--n", "2"], "mu_per_s"),
        ],
    )
    def test_nonfinite_value_exit_2(self, tmp_path, capsys, argv, key):
        """NaN passed every `x <= 0` check: these exited 0 with NaN or
        Infinity in the report, or exited 1 as internal errors. The text
        after --config is the file's: a subcommand validates every key the
        file holds, even one it has no flag for."""
        if "--config" in argv:
            cfg = tmp_path / "sim.cfg"
            at = argv.index("--config") + 1
            cfg.write_text(argv[at] + "\n")
            argv = [*argv[:at], str(cfg), *argv[at + 1:]]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert key in err

    def test_quantum_too_small_for_demand_exit_2(self, capsys):
        """1e20 - 1 == 1e20, so the call's demand never shrank and the run
        never ended."""
        assert main(["run", "lb", "--demand", "1e20", "--quantum", "1"]) == EXIT_USAGE
        assert "quantum_ms" in capsys.readouterr().err

    def test_quantum_that_stalls_mid_demand_exit_2(self, capsys):
        """Half an ulp passes the first subtraction (2+3u rounds to 2+2u),
        then every pass ties back to 2+2u: this run used to spin forever."""
        argv = ["run", "lb", "--demand", "2.0000000000000013",
                "--quantum", "2.220446049250313e-16", "--calls", "400"]
        assert main(argv) == EXIT_USAGE
        assert "never finish" in capsys.readouterr().err

    def test_huge_demand_over_quantum_finishes(self, tmp_path):
        """1e15 passes per call: counted one pass at a time, this never ended."""
        doc = run_json(tmp_path, ["run", "lb", "--demand", "1e15", "--quantum", "1", "--calls", "400"])
        assert doc["counts"]["handed_over"] == 87
        assert doc["total_execution_time_ms"] == pytest.approx(87 * 1e15 * 1.1)

    def test_over_assigned_pool_is_internal_error(self, capsys, monkeypatch):
        """A rotation that sends every handover to one pool, or to a pool
        that does not exist, breaks the report's conservation check: an
        internal fault, not a usage error."""
        for rotation in (
            lambda capacities, count: np.zeros(count, dtype=int),
            lambda capacities, count: np.full(count, len(capacities)),
        ):
            monkeypatch.setattr(engine, "_rotation_targets", rotation)
            code = main(["run", "lb", "--bsc-channels", "1,1,1", "--calls", "3"])
            assert code == EXIT_INTERNAL
            assert capsys.readouterr().err.startswith("internal error")


@pytest.mark.parametrize("argv", [["run", "lb"], ["compare"], ["sweep", "0:10:5"], ["gen"]])
@pytest.mark.parametrize("missing_dir", [True, False])
def test_unwritable_output_exit_2(tmp_path, capsys, argv, missing_dir):
    """Used to exit 1 with `internal error: [Errno ...]`. The path is opened
    only for writing, before the console lines, so nothing reaches stdout."""
    path = tmp_path / "missing" / "out" if missing_dir else tmp_path
    assert main(argv + ["--output", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"cannot write output '{path}'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["compare", "--calls", "3", "--bsc-channels", "0,40",
          "--quantum", "1e308", "--context-switch", "1e308"], None),
        (["run", "lb"], ["0,1.0,0.5,0.5,0.4"]),
        (["run", "lb", "--bsc-channels", "1,1,1"],
         [WORKLOAD_HEADER, "0,0.0,1.0,1.0,0.4", "1,0.0,1.0,1.0,0.4"]),
        (["compare", "--bsc-channels", "1,1,1"],
         [WORKLOAD_HEADER, "0,0.0,1.0,1.0,0.4", "1,0.0,1.0,1.0,0.4"]),
        (["sweep", "1,,3"], None),
    ],
    ids=["overflow", "no-header", "zero-arrivals-run", "zero-arrivals-compare", "empty-level"],
)
def test_refused_command_leaves_output_as_it_was(tmp_path, capsys, argv, rows):
    """--output was opened before the work, so each of these exit-2 refusals
    left the file empty."""
    out = tmp_path / "keep.json"
    out.write_text('{"old": 1}')
    if rows is not None:
        workload = tmp_path / "wl.csv"
        workload.write_text("\n".join(rows) + "\n")
        argv = argv + ["--workload", str(workload)]
    assert main(argv + ["--output", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert out.read_text() == '{"old": 1}'


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [["gen", "--calls", "100000"], ["sweep", "0:10:5"]])
def test_full_device_output_exit_2(capsys, argv):
    """A write that fails, or a close that does for a small document, used
    to exit 1 with `internal error: [Errno 28] No space left on device`."""
    assert main(argv + ["--output", "/dev/full"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output '/dev/full': ")
    assert err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [["sweep", "0:10:5"], ["run", "lb", "--output", "REPORT"]])
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_full_stdout_exit_2(tmp_path, argv, unbuffered):
    """A document that could not reach stdout exited 1 with `internal
    error: [Errno 28] No space left on device` (120 when stdout is
    buffered, after Python's ignored-exception trace at exit); console
    lines that could not reach it blamed the --output file, which was
    written, but left empty when stdout was unbuffered."""
    report, expected = tmp_path / "r.json", tmp_path / "expected.json"
    argv = [str(report) if arg == "REPORT" else arg for arg in argv]
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(cellbalance.__file__).parents[1]),
        "PYTHONUNBUFFERED": unbuffered,
    }
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "cellbalance.cli", *argv],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert done.returncode == EXIT_USAGE
    assert done.stderr == "error: cannot write standard output: No space left on device\n"
    if "--output" in argv:  # the document is written before the console lines
        assert main([str(expected) if arg == str(report) else arg for arg in argv]) == EXIT_OK
        assert report.read_bytes() == expected.read_bytes()


def run_cli(argv: list[str], input: bytes | None = None, closed_stdout: bool = False):
    """`cellbalance argv` in a fresh interpreter, fed `input` through a pipe
    on stdin, its stdout captured, or closed before it starts."""
    command = [sys.executable, "-m", "cellbalance.cli", *argv]
    if closed_stdout:
        command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
    env = {**os.environ, "PYTHONPATH": str(Path(cellbalance.__file__).parents[1])}
    return subprocess.run(
        command, env=env, input=input, stdout=None if closed_stdout else subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin on this system")
@pytest.mark.parametrize("fault", [None, "bad last row", "duplicate last id", "undecodable byte"])
def test_workload_through_a_pipe(tmp_path, fault):
    """`gen ... | compare --workload /dev/stdin` reads the calls as the file
    on disk does. A refused pipe used to read `the file changed while it was
    read` (a second pass found the pipe empty) or `Illegal seek` (a decode
    error placed by the file position)."""
    path = tmp_path / "wl.csv"
    assert main(["gen", "--calls", "3000", "--output", str(path)]) == EXIT_OK
    data = bytearray(path.read_bytes())
    if fault == "bad last row":
        data += b"3000,oops,0.5,0.5,0.4\n"
    elif fault == "duplicate last id":
        data += b"7,1.0,0.5,0.5,0.4\n"
    elif fault == "undecodable byte":
        data[data.index(b"\n", 2 * traffic.READ_BYTES) + 1] = 0xFF
    path.write_bytes(data)
    piped = run_cli(["compare", "--workload", "/dev/stdin"], input=bytes(data))
    on_disk = run_cli(["compare", "--workload", str(path)])
    assert piped.returncode == on_disk.returncode == (EXIT_OK if fault is None else EXIT_USAGE)
    if fault == "bad last row":  # the line past the header and 3000 rows
        assert f"{path}:3002: ".encode() in on_disk.stderr
    assert piped.stdout == on_disk.stdout
    assert piped.stderr == on_disk.stderr.replace(str(path).encode(), b"/dev/stdin")


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="no /bin/sh on this system")
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "0:10:5"],
        ["erlang", "--a", "1", "--n", "1"],
        ["gen", "--calls", "3"],
        ["run", "lb", "--output", "OUT"],  # the console lines go to stdout
        ["compare", "--format", "csv", "--output", "OUT"],
        ["gen", "--calls", "3", "--output", "OUT"],  # nothing goes to stdout
        ["sweep", "0:10:5", "--output", "OUT"],
    ],
    ids=" ".join,
)
def test_closed_stdout(tmp_path, argv):
    """Started with stdout closed, where sys.stdout is None, every command
    exited 1 with `internal error: 'NoneType' object has no attribute
    'write'` ('flush' with --output), reporting a fault outside the program
    as its own. A command that writes to stdout now exits 2 before it
    opens --output, which it used to overwrite first; one that writes
    nothing there writes its file and exits 0."""
    out = tmp_path / "out"
    out.write_text('{"old": 1}')
    done = run_cli([str(out) if arg == "OUT" else arg for arg in argv], closed_stdout=True)
    if argv[0] in ("gen", "sweep") and "--output" in argv:
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        expected = tmp_path / "expected"
        assert main([str(expected) if arg == "OUT" else arg for arg in argv]) == EXIT_OK
        assert out.read_bytes() == expected.read_bytes()
    else:
        assert done.returncode == EXIT_USAGE
        assert done.stderr == b"error: cannot write standard output: Bad file descriptor\n"
        assert out.read_text() == '{"old": 1}'  # refused before --output is opened


@pytest.mark.parametrize("argv", [["run", "lb"], ["compare"], ["sweep", "0:10:5"], ["gen"]])
@pytest.mark.parametrize("in_file", [False, True])
def test_empty_output_path_exit_2(tmp_path, capsys, argv, in_file):
    """`--output ""` and a config line `output =` counted as no path: the
    document went to stdout and the run exited 0."""
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("output =\n")
    flags = ["--config", str(cfg)] if in_file else ["--output", ""]
    assert main(argv + flags) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output '':")
    assert captured.out == ""


@pytest.mark.parametrize("command", [["run", "lb"], ["compare"]])
@pytest.mark.parametrize("format_in_file", [False, True])
def test_full_with_csv_exit_2(tmp_path, capsys, command, format_in_file):
    """--full used to be ignored under CSV, which never holds the records."""
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("format = csv\n" if format_in_file else "")
    flags = [] if format_in_file else ["--format", "csv"]
    out = tmp_path / "out.csv"
    argv = command + ["--config", str(cfg), "--full", *flags, "--output", str(out)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--full" in captured.err and "format is csv" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        (["sweep", "0:600:300"], ["--calls", "7"]),
        (["sweep", "0:600:300"], ["--format", "json"]),
        (["sweep", "0:600:300"], ["--full"]),
        (["gen"], ["--full"]),
        (["gen"], ["--format", "json"]),
        (["gen"], ["--quantum", "0.3"]),
        (["gen"], ["--context-switch", "0.2"]),
        (["gen"], ["--waiting", "1"]),
        (["sweep", "0:600:300"], ["--cells-per-bsc", "3"]),
        (["sweep", "0:600:300"], ["--area-km", "2"]),
        (["sweep", "0:600:300"], ["--window", "7"]),
        (["sweep", "0:600:300"], ["--demand", "1e300"]),
        (["sweep", "0:600:300"], ["--context-switch", "0.2"]),
        (["sweep", "0:600:300"], ["--waiting", "1"]),
        (["sweep", "0:600:300"], ["--quantum", "1e-300"]),
        (["gen"], ["--cells-per-bsc", "3"]),
        (["gen"], ["--area-km", "2"]),
        (["run", "lb"], ["--cells-per-bsc", "3"]),
        (["compare"], ["--area-km", "2"]),
    ],
)
def test_flag_the_subcommand_ignores_exit_2(capsys, command, flags):
    """These were accepted and ignored: `--format json` still wrote CSV, and
    a sweep's CSV depends only on its levels and pools, yet `--demand 1e300`
    made it exit 2. No subcommand takes the cells or the area, which are
    constants."""
    with pytest.raises(SystemExit) as exited:
        main(command + flags)
    assert exited.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


HUGE = "99999999999999999999"  # above int64, so above any size numpy indexes


def refused_sizes():
    """Each command at a count above MAX_CALLS: above int64, and two that
    numpy indexes but allocates no 8-byte column for."""
    for size, tag in ((HUGE, ""), (2**62, "-2**62"), (MAX_CALLS + 1, "-2**60")):
        need = f"n_calls = {size}, need <= {MAX_CALLS}"
        yield pytest.param(["run", "lb", "--calls", str(size)], need, id=f"run{tag}")
        yield pytest.param(["gen", "--calls", str(size)], need, id=f"gen{tag}")
        yield pytest.param(["sweep", str(size)], f"load level = {size}, need <= {MAX_CALLS}",
                           id=f"sweep{tag}")


@pytest.mark.parametrize("argv, named", refused_sizes())
def test_size_numpy_cannot_index_exit_2(capsys, argv, named):
    """These exited 2 with numpy's `Maximum allowed dimension exceeded`
    above int64, or `array is too big` below it, neither of which names
    the flag or the level."""
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["run", "lb", "--calls"], ["gen", "--calls"],
                                  ["compare", "--calls"], ["sweep"]], ids=" ".join)
def test_size_no_machine_allocates_exit_2(capsys, argv):
    """At MAX_CALLS the first per-call column takes 8 EiB, more than any
    64-bit address space, so numpy refuses it before touching memory.
    Each exited 1 with `internal error: Unable to allocate 8.00 EiB`."""
    assert main(argv + [str(MAX_CALLS)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: not enough memory: Unable to allocate 8.00 EiB")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["run", "lb", "--calls"], ["gen", "--calls"],
                                  ["compare", "--calls"], ["sweep"]], ids=" ".join)
def test_size_no_machine_allocates_keeps_output(tmp_path, capsys, argv):
    """The allocation fails before --output is opened, so an existing file
    keeps its bytes. gen drew its calls while it wrote them, and left the
    file empty."""
    out = tmp_path / "keep.json"
    out.write_text('{"old": 1}')
    assert main(argv + [str(MAX_CALLS), "--output", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: not enough memory: ")
    assert out.read_text() == '{"old": 1}'


def test_bare_memory_error_worded_exit_2(capsys, monkeypatch):
    """A MemoryError raised without words still says what failed."""
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "resolve_config", exhausted)
    assert main(["run", "lb"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: not enough memory: an allocation failed\n"


class TestCompareCommand:
    def test_default_scenario_deltas(self, tmp_path, capsys):
        doc = run_json(tmp_path, ["compare"])
        assert doc["normal"]["counts"]["blocked"] == 587
        assert doc["load_balanced"]["counts"]["blocked"] == 0
        assert doc["deltas"]["blocking_delta_pp"] > 0
        assert doc["deltas"]["execution_time_delta_ms"] > 0
        out = capsys.readouterr().out
        assert "normal: blocked = 587" in out
        assert "load_balanced: blocked = 0" in out

    def test_underload_deltas_zero(self, tmp_path):
        doc = run_json(tmp_path, ["compare", "--calls", "100"])
        assert doc["deltas"]["blocking_delta_pp"] == 0.0
        assert doc["deltas"]["execution_time_delta_ms"] == 0.0
        assert doc["load_balanced"]["counts"]["handed_over"] == 0

    def test_zero_capacity_neighbors(self, tmp_path):
        doc = run_json(
            tmp_path, ["compare", "--calls", "10", "--bsc-channels", "4,0,0"]
        )
        assert doc["deltas"]["blocking_delta_pp"] == 0.0
        assert doc["load_balanced"]["counts"]["handed_over"] == 0

    def test_pool_above_int64(self, tmp_path):
        doc = run_json(tmp_path, ["compare", "--calls", "5", "--bsc-channels",
                                  "1,99999999999999999999,2"])
        lb = doc["load_balanced"]
        assert lb["counts"] == {"accepted_home": 1, "handed_over": 4, "blocked": 0}
        assert lb["per_bsc_handled"] == {"0": 1, "1": 2, "2": 2}

    def test_csv_two_rows(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--calls", "50", "--format", "csv", "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("system,accepted_home,")
        assert lines[1].startswith("normal,")
        assert lines[2].startswith("load_balanced,")

    def test_paper_headline_numbers_from_one_run(self, tmp_path):
        """The paper's -722,626 ms and -20% blocking, both from one run on
        the default pools: 3640 calls overflow the 1041 channels by exactly
        728 / 3640 = 20 pp, and this window makes the time delta 722,626 ms
        at seed 42 (716,605 to 728,193 ms over seeds 1 to 5)."""
        doc = run_json(tmp_path, ["compare", "--calls", "3640", "--window",
                                  "395.8421542742645", "--seed", "42"])
        assert round(doc["deltas"]["execution_time_delta_ms"]) == 722626
        assert round(doc["deltas"]["blocking_delta_pp"], 6) == 20.0

    def test_paper_time_delta_expected_over_seeds(self):
        """The time delta's expectation needs no seed. The overflow calls are
        the top m = n - H of n uniform order statistics, whose sum S has
        E[S] = W * sum(i for i > H) / (n + 1). Every call takes k slices of
        q + cs, with q = S / m^2 and k the same for every seed here, so the
        delta D = S + m * waiting - h * k * (q + cs) is linear in S, for h
        handovers: E[D] takes q at E[S], and sd(D) = (1 - h*k/m^2) sd(S).
        At this window E[D] = 724,232 ms, sd(D) = 6,753 ms; the window for
        722,626 ms is about 394.95."""
        n, window, seeds = 3640, 395.8421542742645, range(1, 41)
        topology, params = NetworkTopology(), engine.LbParams()
        home = topology.bsc_channels[0]
        m = n - home
        h = min(m, sum(topology.bsc_channels[1:]))
        ranks = np.arange(home + 1, n + 1)
        mean_sum = window * ranks.sum() / (n + 1)
        q = mean_sum / m**2
        k = engine.slices_to_finish(WorkloadParams().demand_ms, q)
        expected = mean_sum + m * params.waiting_ms - h * k * (q + params.context_switch_ms)
        # Cov(U_(i), U_(j)) = W^2 i (n + 1 - j) / ((n + 1)^2 (n + 2)) for i <= j
        tails = n + 1 - ranks
        pairs = (ranks * tails).sum() + 2 * (tails * (np.cumsum(ranks) - ranks)).sum()
        sd = (1 - h * k / m**2) * window * np.sqrt(pairs / ((n + 1) ** 2 * (n + 2)))
        deltas = []
        for seed in seeds:
            wp = WorkloadParams(n_calls=n, seed=seed, arrival_window_ms=window)
            calls = generate_workload(wp)
            comparison = engine.compare_systems(topology, calls, params)
            assert comparison.load_balanced.slices.max() == k
            deltas.append(comparison.execution_time_delta_ms)
        assert round(expected) == 724232
        assert abs(np.mean(deltas) - expected) <= 4 * sd / np.sqrt(len(seeds))


class TestSweepCommand:
    def test_range_sweep_shape_and_dominance(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["sweep", "0:1200:100", "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "n_calls,ns_blocking,lb_blocking"
        assert len(lines) == 14
        for line in lines[1:]:
            _, ns, lb = line.split(",")
            assert float(lb) <= float(ns)

    def test_degenerate_range(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["sweep", "0:0:1", "--output", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[1] == "0,0.000000,0.000000"

    def test_comma_levels(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["sweep", "0,300,600", "--output", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 4

    def test_descending_range_exit_2(self, capsys):
        assert main(["sweep", "100:50:10"]) == EXIT_USAGE
        assert "descending" in capsys.readouterr().err

    def test_zero_step_exit_2(self):
        assert main(["sweep", "0:100:0"]) == EXIT_USAGE

    def test_descending_comma_levels_exit_2(self):
        assert main(["sweep", "300,100"]) == EXIT_USAGE

    def test_negative_level_exit_2(self, capsys):
        assert main(["sweep", "--", "-1:5:1"]) == EXIT_USAGE
        assert "load level = -1, need >= 0" in capsys.readouterr().err

    def test_seed_changes_no_byte(self, tmp_path):
        """sweep accepts --seed, and nothing reads it."""
        plain, seeded = tmp_path / "plain.csv", tmp_path / "seeded.csv"
        assert main(["sweep", "0:3000:10", "--output", str(plain)]) == EXIT_OK
        assert main(["sweep", "0:3000:10", "--seed", "7", "--output", str(seeded)]) == EXIT_OK
        assert seeded.read_bytes() == plain.read_bytes()


class TestParseLevels:
    def test_inclusive_stop(self):
        assert parse_levels("0:1200:100") == list(range(0, 1300, 100))

    def test_stop_equal_start(self):
        assert parse_levels("5:5:2") == [5]

    def test_comma_list(self):
        assert parse_levels("1,2,30") == [1, 2, 30]

    def test_rejects_malformed(self):
        for bad in ("1:2", "1:2:3:4", "a:b:c", "x,y", "", "3:1:1", "1:5:0", "1,,3", "1,3,"):
            with pytest.raises(ValueError):
                parse_levels(bad)


class TestErlangCommand:
    def test_direct_load(self, capsys):
        assert main(["erlang", "--a", "2", "--n", "2"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.400000"

    def test_zero_load(self, capsys):
        assert main(["erlang", "--a", "0", "--n", "5"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_rates_form(self, capsys):
        assert main(["erlang", "--lambda", "4", "--mu", "2", "--n", "2"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.400000"

    def test_both_forms_exit_2(self, capsys):
        assert main(["erlang", "--a", "2", "--lambda", "4", "--mu", "2", "--n", "2"]) == EXIT_USAGE
        assert "not both" in capsys.readouterr().err

    def test_missing_load_exit_2(self):
        assert main(["erlang", "--n", "2"]) == EXIT_USAGE

    def test_negative_load_exit_2(self):
        assert main(["erlang", "--a", "-1", "--n", "2"]) == EXIT_USAGE

    def test_negative_channels_exit_2(self, capsys):
        assert main(["erlang", "--a", "1", "--n", "-2"]) == EXIT_USAGE
        assert "n_channels = -2, need >= 0" in capsys.readouterr().err

    def test_underflow_stops_the_recurrence(self, capsys):
        """Once E(k) is 0.0 every later step is too; 10^9 steps took minutes."""
        assert main(["erlang", "--a", "1", "--n", "1000000000"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.000000"


def test_cli_never_reads_records(tmp_path, monkeypatch):
    """Every document is written from the report's columns: a read of
    SimulationReport.records would exit 1."""

    def refuse(report):
        raise AssertionError("the CLI read SimulationReport.records")

    monkeypatch.setattr(engine.SimulationReport, "records", property(refuse))
    wl = tmp_path / "wl.csv"
    assert main(["gen", "--calls", "50", "--output", str(wl)]) == EXIT_OK
    for argv in (
        ["run", "lb", "--full"],
        ["run", "normal", "--format", "csv"],
        ["compare", "--full"],
        ["sweep", "0:300:100"],
        ["compare", "--full", "--workload", str(wl)],
    ):
        assert main(argv + ["--output", str(tmp_path / "out")]) == EXIT_OK, argv


def imported_by(argv: list[str], module: str) -> bool:
    """Whether `cellbalance argv`, run in a fresh interpreter, imports `module`."""
    script = (
        f"import sys; from cellbalance.cli import main; main({argv!r}); "
        f"print({module!r} in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cellbalance.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    return done.stdout.splitlines()[-1] == "True"


def test_compare_full_leaves_numpy_ma_unimported(tmp_path):
    """np.unique without counts or indices hashes, and imports numpy.ma
    first: about 0.02 s and 1 MiB in every process that called it."""
    assert not imported_by(["compare", "--full", "--output", str(tmp_path / "r.json")], "numpy.ma")


@pytest.mark.parametrize("replay", [False, True])
def test_command_that_draws_nothing_leaves_numpy_random_unimported(tmp_path, replay):
    """numpy loads numpy.random on first use. A module-level reference to
    it, such as an unquoted annotation, would load it into every command:
    about 2.6 MiB more at start-up."""
    argv = ["erlang", "--a", "1", "--n", "1"]
    if replay:
        wl = tmp_path / "wl.csv"
        assert main(["gen", "--calls", "50", "--output", str(wl)]) == EXIT_OK
        argv = ["compare", "--full", "--workload", str(wl), "--output", str(tmp_path / "r.json")]
    assert not imported_by(argv, "numpy.random")


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--calls", "90000", "--bsc-channels", "31300,34600,38200", "--full"],
        ["gen", "--calls", "90000"],
    ],
)
def test_reader_leaving_early_ends_quietly(argv):
    """`cellbalance ... | head -c 100`: the pipe closes while the document
    is written, which is no fault of the run: exit 141, nothing on stderr,
    not even the interpreter's flush at exit."""
    env = {**os.environ, "PYTHONPATH": str(Path(cellbalance.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cellbalance.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert stderr == b""


class TestGenAndReplay:
    def test_gen_writes_workload(self, tmp_path):
        out = tmp_path / "wl.csv"
        code = main(["gen", "--calls", "50", "--seed", "9", "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == WORKLOAD_HEADER
        assert len(lines) == 51

    def test_gen_to_stdout(self, capsys):
        assert main(["gen", "--calls", "3"]) == EXIT_OK
        assert capsys.readouterr().out.startswith(WORKLOAD_HEADER)

    def test_replay_reproduces_generated_run(self, tmp_path):
        wl = tmp_path / "wl.csv"
        main(["gen", "--calls", "50", "--seed", "9", "--output", str(wl)])
        direct = run_json(
            tmp_path,
            ["run", "lb", "--calls", "50", "--seed", "9", "--bsc-channels", "20,10,10", "--full"],
            name="direct.json",
        )
        replay = run_json(
            tmp_path,
            ["run", "lb", "--bsc-channels", "20,10,10", "--full", "--workload", str(wl)],
            name="replay.json",
        )
        provenance = ("seed", "arrival_window_ms", "demand_ms")
        direct_params = {k: v for k, v in direct.pop("params").items() if k not in provenance}
        replay_params = replay.pop("params")
        assert replay == direct
        assert replay_params == {
            **direct_params,
            "workload_sha256": hashlib.sha256(wl.read_bytes()).hexdigest(),
        }

    def test_replay_reports_file_digest_not_config(self, tmp_path):
        """A replay used to report the config's seed 42, window 2000.0 and
        demand 0.4, none of which the file holds."""
        wl = tmp_path / "wl.csv"
        main(["gen", "--calls", "20", "--window", "50", "--demand", "0.9",
              "--seed", "3", "--output", str(wl)])
        params = run_json(tmp_path, ["run", "lb", "--workload", str(wl)])["params"]
        assert params["workload_sha256"] == hashlib.sha256(wl.read_bytes()).hexdigest()
        assert not {"seed", "arrival_window_ms", "demand_ms"} & set(params)
        assert params["n_calls"] == 20

    @pytest.mark.parametrize("replay", [False, True])
    def test_run_holds_no_positions(self, tmp_path, monkeypatch, replay):
        """Only gen draws positions: neither a run nor a replay builds the
        file's columns, and the calls either simulates hold no position."""
        wl = tmp_path / "wl.csv"
        main(["gen", "--calls", "50", "--output", str(wl)])
        simulated = []

        def spy(topology, calls, params):
            simulated.append(calls)
            return engine.compare_systems(topology, calls, params)

        def refuse(params):
            raise AssertionError("a run drew positions")

        for module in (traffic, cli):
            monkeypatch.setattr(module, "workload_columns", refuse)
        monkeypatch.setattr(cli, "compare_systems", spy)
        run_json(tmp_path, ["compare", *(["--workload", str(wl)] if replay else [])])
        (calls,) = simulated
        assert len(calls) == (50 if replay else 900)
        assert [f.name for f in fields(calls)] == ["ids", "arrival_ms", "demand_ms"]

    @pytest.mark.parametrize("command", [["run", "lb"], ["compare"]])
    @pytest.mark.parametrize(
        "flag, key, value",
        [("--calls", "n_calls", "5"), ("--seed", "seed", "9"),
         ("--window", "arrival_window_ms", "7"), ("--demand", "demand_ms", "3")],
    )
    def test_replay_refuses_workload_flags_exit_2(self, tmp_path, capsys, command, flag, key,
                                                  value):
        """These were accepted and ignored: the replay simulated the file's
        calls. The same value in a config file, which may hold every key,
        is still allowed."""
        wl, cfg, out = tmp_path / "wl.csv", tmp_path / "sim.cfg", tmp_path / "out.json"
        main(["gen", "--calls", "50", "--output", str(wl)])
        assert main(command + ["--workload", str(wl), flag, value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"error: {flag}: the calls come from --workload '{wl}'" in captured.err
        assert captured.out == ""
        cfg.write_text(f"{key} = {value}\n")
        argv = command + ["--workload", str(wl), "--config", str(cfg), "--output", str(out)]
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize("command", [["run", "lb"], ["compare"]])
    @pytest.mark.parametrize("flags", [[], ["--calls", "5"]])
    def test_empty_workload_path_exit_2(self, capsys, command, flags):
        """An empty --workload counted as none: `run lb --workload "" --calls 5`
        generated 5 calls and exited 0. Then the error named the directory
        ".", which Path("") is."""
        assert main(command + ["--workload", "", *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        named = (
            "--calls: the calls come from --workload ''" if flags
            else "workload '': the path is empty\n"
        )
        assert captured.err.startswith(f"error: {named}")
        assert captured.out == ""

    def test_replay_reports_file_call_count(self, tmp_path):
        """The report used to give the config default, 900."""
        wl = tmp_path / "wl.csv"
        main(["gen", "--calls", "50", "--output", str(wl)])
        doc = run_json(tmp_path, ["compare", "--workload", str(wl)])
        assert doc["normal"]["params"]["n_calls"] == 50
        assert doc["load_balanced"]["params"]["n_calls"] == 50

    def test_broken_workload_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not a workload\n")
        assert main(["run", "lb", "--workload", str(bad)]) == EXIT_USAGE
        assert "workload" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run", "lb"], ["compare"]])
    @pytest.mark.parametrize("spelling", ["w.csv", "./w.csv"])
    def test_output_onto_workload_exit_2(self, tmp_path, monkeypatch, capsys, command, spelling):
        """--output used to be opened before the replay read its input: the
        file was truncated, the replay found no header and exited 2, and
        the file was left empty."""
        monkeypatch.chdir(tmp_path)
        main(["gen", "--calls", "20", "--output", "w.csv"])
        before = Path("w.csv").read_bytes()
        assert main(command + ["--workload", "w.csv", "--output", spelling]) == EXIT_USAGE
        assert f"--output '{spelling}' is the --workload file" in capsys.readouterr().err
        assert Path("w.csv").read_bytes() == before

    @staticmethod
    def replay_rows(tmp_path, capsys, command, rows):
        path = tmp_path / "wl.csv"
        path.write_text(WORKLOAD_HEADER + "\n" + "\n".join(rows) + "\n")
        code = main(command + ["--bsc-channels", "1,1,1", "--workload", str(path)])
        return code, capsys.readouterr().err, f"{path}:"

    def test_duplicate_ids_exit_2(self, tmp_path, capsys):
        """Three rows with id 0 used to be reported as three handovers into
        a one-channel pool."""
        rows = ["0,1.0,0.5,0.5,0.4", "0,2.0,0.5,0.5,0.4", "0,3.0,0.5,0.5,0.4"]
        code, err, where = self.replay_rows(tmp_path, capsys, ["run", "lb"], rows)
        assert code == EXIT_USAGE
        assert f"{where}3: duplicate call id 0" in err

    @pytest.mark.parametrize("call_id", [2**63, -(2**63) - 1])
    def test_id_outside_int64_exit_2(self, tmp_path, capsys, call_id):
        rows = ["0,1.0,0.5,0.5,0.4", f"{call_id},2.0,0.5,0.5,0.4"]
        code, err, where = self.replay_rows(tmp_path, capsys, ["run", "lb"], rows)
        assert code == EXIT_USAGE
        assert f"{where}3: call id {call_id} is outside int64" in err

    @pytest.mark.parametrize("arrival", ["nan", "inf", "-inf", "-1.0"])
    def test_nonfinite_arrival_exit_2(self, tmp_path, capsys, arrival):
        """A nan arrival used to write NaN totals and exit 0; a negative one
        gave negative execution times and exited 0."""
        rows = ["0,1.0,0.5,0.5,0.4", f"1,{arrival},0.5,0.5,0.4"]
        code, err, where = self.replay_rows(tmp_path, capsys, ["compare"], rows)
        assert code == EXIT_USAGE
        assert f"{where}3: arrival_ms {arrival}, need finite and >= 0" in err

    @pytest.mark.parametrize("demand", ["inf", "nan", "0.0", "-0.4"])
    def test_bad_demand_exit_2(self, tmp_path, capsys, demand):
        """An inf demand used to make compare spin forever in the queue."""
        rows = ["0,1.0,0.5,0.5,0.4", "1,2.0,0.5,0.5,0.4", f"2,3.0,0.5,0.5,{demand}"]
        code, err, where = self.replay_rows(tmp_path, capsys, ["compare"], rows)
        assert code == EXIT_USAGE
        assert f"{where}4: demand_ms {float(demand)}, need finite and > 0" in err

    @pytest.mark.parametrize("command", [["run", "lb"], ["compare"]])
    def test_undefined_quantum_names_file_exit_2(self, tmp_path, capsys, command):
        """Used to exit 2 with `avg_arrival_range_ms = 0.0, need > 0`, which
        named neither the file nor a remedy."""
        rows = ["0,0.0,1.0,1.0,0.4", "1,0.0,1.0,1.0,0.4"]
        code, err, where = self.replay_rows(tmp_path, capsys, command, rows)
        assert code == EXIT_USAGE
        assert f"workload '{where[:-1]}': avg_arrival_range_ms = 0.0, need > 0" in err
        assert "set one with quantum_override_ms (--quantum)" in err
        code, err, _ = self.replay_rows(tmp_path, capsys, command + ["--quantum", "0.5"], rows)
        assert code == EXIT_OK, err


@pytest.mark.parametrize(
    "argv, rows, fault",
    [
        pytest.param(["compare", "--bsc-channels", "1,1"],
                     ["0,0.0,1.0,1.0,0.4", "1,0.0,1.0,1.0,0.4"],
                     "avg_arrival_range_ms = 0.0, need > 0", id="undefined quantum"),
        pytest.param(["compare", "--calls", "5", "--bsc-channels", "1,5", "--quantum", "1e-300"],
                     None, "quantum_ms = 1e-300 is too small to reduce a demand of 0.4 ms",
                     id="quantum too small"),
        pytest.param(["compare", "--calls", "3", "--bsc-channels", "0,40", "--quantum", "1e308",
                      "--context-switch", "1e308"],
                     None, "load_balanced run: total execution time inf ms overflows a float",
                     id="total overflows"),
    ],
)
def test_run_refusal_names_its_workload(tmp_path, capsys, argv, rows, fault):
    """A run's refusal names the workload it ran, replayed or generated: a
    generated workload's too-small quantum and overflowing total named
    none."""
    named = "the generated workload"
    if rows is not None:
        path = tmp_path / "wl.csv"
        path.write_text(WORKLOAD_HEADER + "\n" + "\n".join(rows) + "\n")
        argv = argv + ["--workload", str(path)]
        named = f"workload '{path}'"
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: {fault}")


class TestConfigFile:
    def test_file_drives_run(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "# small scenario\n"
            "bsc_channels = [4, 4]\n"
            "n_calls = 6\n"
            "seed = 1\n"
            "demand_ms = 0.4\n"
        )
        doc = run_json(tmp_path, ["run", "lb", "--config", str(cfg)])
        assert doc["params"]["bsc_channels"] == [4, 4]
        assert doc["params"]["n_calls"] == 6
        counts = doc["counts"]
        assert counts["accepted_home"] == 4
        assert counts["handed_over"] == 2

    def test_flags_beat_file(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_calls = 6\nseed = 1\n")
        doc = run_json(tmp_path, ["run", "normal", "--config", str(cfg), "--calls", "3"])
        assert doc["params"]["n_calls"] == 3
        assert doc["params"]["seed"] == 1

    def test_one_file_drives_every_subcommand(self, tmp_path):
        """One file may hold all ten keys: each subcommand reads its own
        and writes what the same values given as flags write."""
        out = tmp_path / "out"
        cfg = tmp_path / "all.cfg"
        cfg.write_text(
            "bsc_channels = [6, 4, 4]\nn_calls = 12\n"
            "seed = 5\narrival_window_ms = 100.0\ndemand_ms = 0.5\ncontext_switch_ms = 0.2\n"
            f"waiting_ms = 1.0\nquantum_override_ms = 0.25\nformat = json\noutput = {out}\n"
        )
        workload = ["--calls", "12", "--seed", "5", "--window", "100", "--demand", "0.5"]
        commands = {
            ("run", "lb"): ["--bsc-channels", "6,4,4", *workload, "--context-switch", "0.2",
                            "--waiting", "1", "--quantum", "0.25", "--format", "json"],
            ("sweep", "0,6,12"): ["--bsc-channels", "6,4,4", "--seed", "5"],
            ("gen",): ["--bsc-channels", "6,4,4", *workload],
        }
        written = {}
        for command, flags in commands.items():
            assert main([*command, "--config", str(cfg)]) == EXIT_OK
            written[command[0]] = out.read_bytes()
            assert main([*command, *flags, "--output", str(out)]) == EXIT_OK
            assert out.read_bytes() == written[command[0]]
        assert json.loads(written["run"])["params"] == {
            "bsc_channels": [6, 4, 4], "cells_per_bsc": 7, "area_km": 1.0, "n_calls": 12,
            "seed": 5, "arrival_window_ms": 100.0, "demand_ms": 0.5,
            "context_switch_ms": 0.2, "waiting_ms": 1.0, "quantum_ms": 0.25,
        }

    @pytest.mark.parametrize(
        "line, flags",
        [("bsc_channels = 4,4", ["--bsc-channels", "[4, 4]"]),
         ("quantum_override_ms = none", ["--quantum", "none"])],
    )
    def test_flag_parses_like_file_value(self, tmp_path, line, flags):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(line + "\n")
        argv = ["run", "lb", "--calls", "400"]
        from_file = run_json(tmp_path, argv + ["--config", str(cfg)], name="file.json")
        assert run_json(tmp_path, argv + flags, name="flag.json") == from_file

    def test_bad_flag_value_names_flag_and_key(self, capsys):
        assert main(["run", "lb", "--calls", "1.5"]) == EXIT_USAGE
        assert "--calls: key 'n_calls' has invalid value '1.5'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["cells_per_bsc = 7", "area_km = 1.0"])
    def test_removed_key_is_unknown(self, tmp_path, capsys, line):
        """The cells per BSC and the area are constants, not keys."""
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(line + "\n")
        assert main(["run", "lb", "--config", str(cfg)]) == EXIT_USAGE
        assert f"{cfg}:1: unknown key '{line.split()[0]}'" in capsys.readouterr().err

    def test_readme_config_holds_every_key(self, tmp_path):
        """README's scenario.cfg example parses and names each key once."""
        readme = Path(__file__).parents[1].joinpath("README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(block)
        assert sorted(load_config_file(str(cfg))) == sorted(cli.CONFIG_KEYS)
        assert len(cli.CONFIG_KEYS) == 10

    def test_readme_library_use_prints_its_comments(self, capsys):
        """README's python block runs, and each print writes what its
        trailing comment says: the seed-42 arrivals and outcomes."""
        readme = Path(__file__).parents[1].joinpath("README.md").read_text()
        block = readme.split("```python\n", 1)[1].split("```", 1)[0]
        exec(block, {})
        printed = capsys.readouterr().out.splitlines()
        assert printed == ["900 [11.37759778 14.19315004]", "587 0", "{0: 313, 1: 294, 2: 293}",
                           "[1 2 1]"]
        comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
        assert len(comments) == len(printed)
        for comment, line in zip(comments, printed):
            assert comment.startswith(line)

    def test_unknown_key_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_calls = 6\nbogus = 1\n")
        assert main(["run", "lb", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err
        assert "bogus" in err

    def test_missing_equals_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_calls 6\n")
        assert main(["run", "lb", "--config", str(cfg)]) == EXIT_USAGE
        assert f"{cfg}:1" in capsys.readouterr().err

    def test_bad_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_calls = lots\n")
        assert main(["run", "lb", "--config", str(cfg)]) == EXIT_USAGE
        assert "n_calls" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["run", "lb", "--config", "/nonexistent/sim.cfg"]) == EXIT_USAGE
        assert "cannot read config" in capsys.readouterr().err

    def test_undecodable_file_names_it_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xffn_calls = 6\n")
        assert main(["run", "lb", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config '{cfg}': 'utf-8' codec can't decode")

    def test_bad_format_value(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("format = xml\n")
        assert main(["run", "lb", "--config", str(cfg)]) == EXIT_USAGE

    def test_load_config_file_types(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "bsc_channels = [1, 2, 3]\n"
            "waiting_ms = 2.5\n"
            "quantum_override_ms = none\n"
            "output = out.json  # trailing comment\n"
        )
        values = load_config_file(str(cfg))
        assert values["bsc_channels"] == (1, 2, 3)
        assert values["waiting_ms"] == 2.5
        assert values["quantum_override_ms"] is None
        assert values["output"] == "out.json"
