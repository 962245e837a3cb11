"""The tests at the I/O boundary catch a wrong reader, writer or engine.

Each mutant makes one plausible mistake in `traffic`, `report`, `cli` or
`engine` and names the test that must fail under it. The test runs on
fixed, seed-free instances: a hypothesis test on explicit arguments, a
plain one as it is.
Most mutants swap one piece of a function's source for another, in the
function itself, so that every caller, however it imported the function,
runs the mistake. A named test that runs the command in a child
interpreter finds the package through `cellbalance.__file__`, so its mutant
makes the same swap in a copy of the package and points that name there.

The unmutated code passes every named test, so a test that fails under a
mutant failed because of it.
"""

import codecs
import inspect
import shutil
import textwrap
from pathlib import Path

import pytest
import test_cli as cli_tests
import test_engine as engine_tests
import test_report_writers as writer_tests
import test_traffic as traffic_tests

import cellbalance
from cellbalance import cli, engine, report, traffic

# files for test_import_matches_row_by_row_reader, each cut into blocks of
# a few bytes: (rows, each its fields and its line end), distinct ids or not
GOOD = ["0", "1.5", "0.5", "0.5", "0.4"]
FILES = {
    # accepted: line ends of both kinds, a blank line, a two-byte digit
    "accepted": ([(GOOD, "\r\n"), (["1", "٣", "7", "2.5", "0.4"], "\n"), ([], "\n"),
                  (["2", "3", "1e3", " 3 ", "1_0"], "\r\n")], True),
    # the third row repeats the first one's id
    "duplicate": ([(GOOD, "\n"), (["1", "2", "0", "0", "0.4"], "\n"), (GOOD, "\n")], False),
    # the third row repeats the first one's id and has a negative arrival:
    # the duplicate rule comes first
    "duplicate, bad arrival": ([(GOOD, "\n"), (["1", "2", "0", "0", "0.4"], "\n"),
                                (["0", "-1", "0", "0", "0.4"], "\n")], False),
    # a negative arrival on the last line of a blank-lined file
    "negative arrival": ([(GOOD, "\n"), ([], "\r\n"), (["1", "2", "0", "0", "0.4"], "\n"),
                          ([], "\n"), (["2", "-0.5", "0", "0", "0.4"], "\n")], False),
}


def reader_matches_row_by_row(tmp_path_factory, file):
    rows, distinct_ids = FILES[file]
    traffic_tests.test_import_matches_row_by_row_reader.hypothesis.inner_test(
        tmp_path_factory, rows=rows, leading=["\n"], final_end=True,
        distinct_ids=distinct_ids, read_bytes=7,
    )


def streamed_bytes_equal_oracle(argv):
    writer_tests.test_streamed_bytes_equal_oracle.hypothesis.inner_test(argv=argv)


# test name: run(tmp_path_factory) on the test's fixed instances
TESTS = {
    **{
        f"test_traffic.py::test_import_matches_row_by_row_reader[{file}]":
            lambda factory, file=file: reader_matches_row_by_row(factory, file)
        for file in FILES
    },
    "test_traffic.py::TestWorkloadFiles::test_round_trip_across_parse_blocks":
        lambda factory: traffic_tests.TestWorkloadFiles().test_round_trip_across_parse_blocks(
            factory.mktemp("wl")
        ),
    "test_traffic.py::TestWorkloadFiles::test_field_count_error_names_line":
        lambda factory: traffic_tests.TestWorkloadFiles().test_field_count_error_names_line(
            factory.mktemp("wl")
        ),
    "test_traffic.py::TestWorkloadFiles::test_error_counts_blank_lines":
        lambda factory: traffic_tests.TestWorkloadFiles().test_error_counts_blank_lines(
            factory.mktemp("wl")
        ),
    "test_traffic.py::TestWorkloadFiles::test_sorted_by_arrival_keeps_ties_in_file_order":
        lambda factory: traffic_tests.TestWorkloadFiles()
        .test_sorted_by_arrival_keeps_ties_in_file_order(factory.mktemp("wl")),
    "test_traffic.py::test_undecodable_byte_past_first_block":
        lambda factory: traffic_tests.test_undecodable_byte_past_first_block(
            factory.mktemp("wl"), bad_row=False
        ),
    "test_engine.py::test_slice_accounting_exact":
        lambda factory: engine_tests.test_slice_accounting_exact.hypothesis.inner_test(
            instance=((1, 1, 0), [1.0, 2.0, 3.0, 4.0], 1.0, 0.5)
        ),
    "test_report_writers.py::test_streamed_bytes_equal_oracle[compare]":
        lambda factory: streamed_bytes_equal_oracle(
            ["compare", "--calls", "40", "--bsc-channels", "10,5,5", "--full"]
        ),
    "test_report_writers.py::test_streamed_bytes_equal_oracle[csv]":
        lambda factory: streamed_bytes_equal_oracle(
            ["run", "lb", "--calls", "40", "--bsc-channels", "10,5,5", "--format", "csv"]
        ),
    "test_cli.py::test_closed_stdout[run lb --output OUT]":
        lambda factory: cli_tests.test_closed_stdout(
            factory.mktemp("out"), ["run", "lb", "--output", "OUT"]
        ),
    "test_cli.py::test_full_stdout_exit_2[1-argv1]":
        lambda factory: cli_tests.test_full_stdout_exit_2(
            factory.mktemp("out"), ["run", "lb", "--output", "REPORT"], "1"
        ),
}


def swapped(function, old: str, new: str):
    """A patch that swaps `old` for `new` in `function`'s source, in the
    function object itself, so that every reference to it runs the change."""
    function = inspect.unwrap(function)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{old!r} is not in {function.__name__} once"
    defined = {}
    exec(compile(source.replace(old, new), "<mutant>", "exec"), function.__globals__, defined)
    code = inspect.unwrap(defined[function.__name__]).__code__
    return lambda mp, factory: mp.setattr(function, "__code__", code)


def swapped_in_children(function, old: str, new: str):
    """swapped(function, old, new), and the same swap in a copy of the
    package, which the child interpreters of the named test import."""
    patch, name = swapped(function, old, new), Path(inspect.getfile(function)).name

    def apply(mp, factory):
        patch(mp, factory)
        copy = factory.mktemp("mutant") / "cellbalance"
        shutil.copytree(Path(cellbalance.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        module = copy / name
        source = module.read_text()
        assert source.count(old) == 1, f"{old!r} is not in {module.name} once"
        module.write_text(source.replace(old, new))
        mp.setattr(cellbalance, "__file__", str(copy / "__init__.py"))

    return apply


def moved(function, piece: str, before: str) -> tuple[str, str]:
    """The (old, new) of a swap that moves `piece` of `function`'s source to
    just before `before`, which follows it."""
    source = inspect.getsource(function)
    between = source[source.index(piece) + len(piece):source.index(before)]
    return piece + between, between + piece


def blocks_cut_anywhere(fh, digest):
    """READ_BYTES at a time, to a whole character but not to a whole line."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    while block := fh.read(traffic.READ_BYTES):
        digest.update(block)
        yield decoder.decode(block)


# name: (patch applied with monkeypatch and tmp_path_factory, the test that must catch it)
MUTANTS = {
    "block cut anywhere, not after a newline": (
        lambda mp, factory: mp.setattr(traffic, "_text_blocks", blocks_cut_anywhere),
        "test_traffic.py::test_import_matches_row_by_row_reader[accepted]",
    ),
    "plain READ_BYTES blocks, the line not completed": (
        swapped(traffic._text_blocks, "fh.readlines(READ_BYTES)", "fh.read(READ_BYTES).splitlines(True)"),
        "test_traffic.py::TestWorkloadFiles::test_round_trip_across_parse_blocks",
    ),
    "no duplicate-id check": (
        swapped(traffic._read_columns, "if (ordered[1:] == ordered[:-1]).any():", "if False:"),
        "test_traffic.py::test_import_matches_row_by_row_reader[duplicate]",
    ),
    "header checked in every block": (
        swapped(traffic._read_columns, "if rows and header is None:", "if rows:"),
        "test_traffic.py::TestWorkloadFiles::test_round_trip_across_parse_blocks",
    ),
    "a block's own decode error escapes": (
        swapped(traffic._text_blocks, "except UnicodeDecodeError", "except ZeroDivisionError"),
        "test_traffic.py::test_undecodable_byte_past_first_block",
    ),
    "arrivals checked only for finiteness": (
        swapped(traffic._check_values, "arrival_ms, 0.0,", "arrival_ms, -math.inf,"),
        "test_traffic.py::test_import_matches_row_by_row_reader[negative arrival]",
    ),
    "block values left to Workload": (
        swapped(traffic._read_columns, "                _check_values(*values)\n", ""),
        "test_traffic.py::test_import_matches_row_by_row_reader[negative arrival]",
    ),
    "one row worded as a range": (
        swapped(traffic._check_values, "len(values) == 1", "False"),
        "test_traffic.py::test_import_matches_row_by_row_reader[negative arrival]",
    ),
    "line count off by one per block": (
        swapped(traffic._read_columns, "lineno += len(lines)", "lineno += len(lines) + 1"),
        "test_traffic.py::test_import_matches_row_by_row_reader[negative arrival]",
    ),
    "the header's line kept in the first block's numbering": (
        swapped(traffic._read_columns, "            at = at[1:]\n", ""),
        "test_traffic.py::TestWorkloadFiles::test_field_count_error_names_line",
    ),
    "a block with a blank line numbered as a range": (
        swapped(traffic._read_columns, "if len(rows) == len(lines)", "if True"),
        "test_traffic.py::TestWorkloadFiles::test_error_counts_blank_lines",
    ),
    "duplicate named at its first copy": (
        swapped(traffic._read_columns, "row = order[1:][", "row = order[:-1]["),
        "test_traffic.py::test_import_matches_row_by_row_reader[duplicate]",
    ),
    "a refused row's id escapes the duplicate rule": (
        swapped(traffic._first_fault, "            ids.append(call_id)\n", ""),
        "test_traffic.py::test_import_matches_row_by_row_reader[duplicate, bad arrival]",
    ),
    "decode position relative to its block": (
        swapped(traffic._text_blocks,
                "offset + exc.start, offset + exc.end", "exc.start, exc.end"),
        "test_traffic.py::test_undecodable_byte_past_first_block",
    ),
    "the byte offset never advanced": (
        swapped(traffic._text_blocks, "        offset += len(block)\n", ""),
        "test_traffic.py::test_undecodable_byte_past_first_block",
    ),
    "never sort": (
        swapped(traffic.import_workload, "if (arrival_ms[1:] < arrival_ms[:-1]).any():",
                "if False:"),
        "test_traffic.py::TestWorkloadFiles::test_sorted_by_arrival_keeps_ties_in_file_order",
    ),
    "blocked calls keep their slice counts": (
        swapped(engine.simulate_load_balanced, "queue_slices[order[capacity:]] = 0", "pass"),
        "test_engine.py::test_slice_accounting_exact",
    ),
    "record indent one space off": (
        swapped(report._write_json_records, "f'{pad}  {{{pad}", "f'{pad}   {{{pad}"),
        "test_report_writers.py::test_streamed_bytes_equal_oracle[compare]",
    ),
    "last partial chunk dropped": (
        swapped(report._record_chunks, "range(0, len(report.call_ids), CHUNK)",
                "range(0, len(report.call_ids) - CHUNK + 1, CHUNK)"),
        "test_report_writers.py::test_streamed_bytes_equal_oracle[compare]",
    ),
    "blocked calls name their serving-BSC code": (
        swapped(report._record_chunks, "None if bsc == NO_BSC else bsc", "bsc"),
        "test_report_writers.py::test_streamed_bytes_equal_oracle[csv]",
    ),
    "closed stdout refused after the file is written": (
        swapped_in_children(cli._write, *moved(
            cli._write,
            "    if to_stdout and sys.stdout is None:  # fd 1 was closed at start\n"
            '        raise ValueError("cannot write standard output: Bad file descriptor")\n',
            "    if not to_stdout:\n",
        )),
        "test_cli.py::test_closed_stdout[run lb --output OUT]",
    ),
    "stdout failure blamed on the --output file": (
        swapped_in_children(cli._write, "cannot write standard output: {exc.strerror}",
                            "cannot write output '{path}': {exc.strerror}"),
        "test_cli.py::test_full_stdout_exit_2[1-argv1]",
    ),
}


def fails(test: str, tmp_path_factory) -> bool:
    try:
        TESTS[test](tmp_path_factory)
    except (Exception, pytest.fail.Exception):
        return True
    return False


@pytest.mark.parametrize("test", TESTS)
def test_unmutated_code_passes(tmp_path_factory, test):
    assert not fails(test, tmp_path_factory)


@pytest.mark.parametrize("name", MUTANTS)
def test_named_test_catches_mutant(monkeypatch, tmp_path_factory, name):
    patch, test = MUTANTS[name]
    patch(monkeypatch, tmp_path_factory)
    assert fails(test, tmp_path_factory)
