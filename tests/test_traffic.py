import hashlib
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from helpers import same_workload, sequential_sum, workload_of
from hypothesis import example, given, settings, strategies as st
from oracles import import_workload_oracle

from cellbalance import traffic
from cellbalance.engine import LbParams, compare_systems, compute_quantum
from cellbalance.teletraffic import OfferedLoad
from cellbalance.topology import NetworkTopology
from cellbalance.traffic import (
    AREA_KM,
    INT64,
    WORKLOAD_HEADER,
    Workload,
    WorkloadParams,
    format_workload,
    generate_workload,
    import_workload,
    running_sum,
    workload_columns,
)

def export(params, path):
    """Write the calls of `params` to a workload file through
    format_workload, as gen does."""
    with open(path, "w") as fh:
        format_workload(fh.write, workload_columns(params))


def written(params) -> str:
    """The text format_workload writes for `params`."""
    parts = []
    format_workload(parts.append, workload_columns(params))
    return "".join(parts)


def positions(params) -> list[tuple[float, float]]:
    """The x and y of each row format_workload writes for `params`."""
    rows = written(params).splitlines()[1:]
    return [(float(x), float(y)) for x, y in (row.split(",")[2:4] for row in rows)]


class TestGenerateWorkload:
    def test_default_scenario_shape(self):
        params = WorkloadParams(n_calls=900)
        calls = generate_workload(params)
        assert len(calls) == 900
        assert calls.ids.tolist() == list(range(900))
        assert all(0.0 <= t < params.arrival_window_ms for t in calls.arrival_ms)
        assert all(d == params.demand_ms for d in calls.demand_ms)
        for x, y in positions(params):
            assert 0.0 <= x < AREA_KM
            assert 0.0 <= y < AREA_KM

    def test_sorted_by_arrival(self):
        calls = generate_workload(WorkloadParams(n_calls=900))
        arrivals = calls.arrival_ms.tolist()
        assert arrivals == sorted(arrivals)

    def test_same_seed_bit_identical(self):
        a = generate_workload(WorkloadParams(n_calls=250, seed=7))
        b = generate_workload(WorkloadParams(n_calls=250, seed=7))
        assert same_workload(a, b)

    def test_different_seed_differs(self):
        a = generate_workload(WorkloadParams(n_calls=50, seed=1))
        b = generate_workload(WorkloadParams(n_calls=50, seed=2))
        assert a.arrival_ms.tolist() != b.arrival_ms.tolist()

    def test_negative_seed_accepted(self):
        calls = generate_workload(WorkloadParams(n_calls=10, seed=-3))
        assert len(calls) == 10

    def test_zero_calls(self):
        calls = generate_workload(WorkloadParams(n_calls=0))
        assert same_workload(calls, workload_of([]))
        assert positions(WorkloadParams(n_calls=0)) == []

    def test_arrival_mean_near_window_center(self):
        """Uniform sanity check: 10k draws put the mean within 5% of w/2."""
        calls = generate_workload(WorkloadParams(n_calls=10_000, seed=11))
        mean = math.fsum(calls.arrival_ms) / len(calls)
        center = WorkloadParams().arrival_window_ms / 2
        assert abs(mean - center) < 0.05 * center

    def test_positions_cover_quadrants(self):
        placed = positions(WorkloadParams(n_calls=10_000, seed=11))
        half = AREA_KM / 2
        counts = {(False, False): 0, (False, True): 0, (True, False): 0, (True, True): 0}
        for x, y in placed:
            counts[(bool(x >= half), bool(y >= half))] += 1
        for quadrant in counts.values():
            assert 0.20 <= quadrant / len(placed) <= 0.30

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 500), seed=st.integers(-2**63, 2**64 - 1),
           demand=st.floats(min_value=5e-324, allow_infinity=False))
    def test_positions_leave_the_calls_bit_identical(self, tmp_path_factory, n, seed, demand):
        """Positions come from their own stream: the calls a workload
        file holds are, bit for bit, the ids, arrivals and demands that a
        run generates without them."""
        params = WorkloadParams(n_calls=n, seed=seed, demand_ms=demand)
        path = tmp_path_factory.mktemp("wl") / "calls.csv"
        export(params, path)
        calls, placed = generate_workload(params), import_workload(path)[0]
        assert len(positions(params)) == n
        for name in ("ids", "arrival_ms", "demand_ms"):
            column, placed_column = getattr(calls, name), getattr(placed, name)
            assert column.dtype == placed_column.dtype
            assert column.tobytes() == placed_column.tobytes()

    def test_params_validation(self):
        # test_one_count_rule holds n_calls; 10**5000 is past the digits str
        # renders, so its message names its size
        for bad in (0.0, math.nan, math.inf, 10**400, 10**5000):  # the ints convert to no float
            with pytest.raises(ValueError, match="arrival_window_ms"):
                WorkloadParams(n_calls=1, arrival_window_ms=bad)
            with pytest.raises(ValueError, match="demand_ms"):
                WorkloadParams(n_calls=1, demand_ms=bad)

    def test_int_demand_draws_the_float_calls(self):
        """An int demand raised OverflowError: the demand column held the
        int, and _check_values began its min at inf, which no int holds."""
        params, as_float = (WorkloadParams(n_calls=50, demand_ms=d) for d in (1, 1.0))
        assert same_workload(generate_workload(params), generate_workload(as_float))
        assert written(params) == written(as_float)


@pytest.mark.parametrize("concern", [0, 1])
@pytest.mark.parametrize("seed", [42, 7, -1, 2**70])
def test_uniform_equals_generator_uniform(seed, concern):
    """The one draw equals, bit for bit, the floats numpy's own
    Generator.uniform(0, high, n) draws from the same stream, on one whole
    chunk and on a size that is not a multiple of it. A numpy that changes
    that method fails this test, and a seed's reports stay the same."""
    for high in (2000.0, 395.8421542742645, 200000.0, 1e-300, 1.7e308):
        for n in (0, traffic.CHUNK, 200_000):
            generator = np.random.default_rng(np.random.SeedSequence(seed % 2**64).spawn(2)[concern])
            expected = generator.uniform(0.0, high, size=n)
            assert traffic._uniform(seed, concern, high, n).tobytes() == expected.tobytes()


def test_uniform_positions_shape():
    """A file's positions are 2n draws read as n rows of x and y, which is
    how Generator.uniform fills an (n, 2) size."""
    generator = np.random.default_rng(np.random.SeedSequence(42).spawn(2)[1])
    expected = generator.uniform(0.0, AREA_KM, size=(900, 2))
    drawn = traffic._uniform(42, 1, AREA_KM, 2 * 900).reshape(900, 2)
    assert drawn.tobytes() == expected.tobytes()


class TestQuantumNumerator:
    """The quantum's numerator, the queued calls' mean arrival: the engine
    takes it as running_sum over their count."""

    def test_matches_fsum_mean(self):
        calls = generate_workload(WorkloadParams(n_calls=900))
        oracle = math.fsum(calls.arrival_ms) / len(calls)
        assert running_sum(calls.arrival_ms) / len(calls) == pytest.approx(oracle, rel=1e-12)

    def test_adds_left_to_right(self):
        """Pairwise or compensated summation (np.sum; sum() on Python 3.12+)
        gives 1.0 here, so the quantum would depend on the Python version."""
        assert running_sum([1e16, 1.0, -1e16]) == 0.0


@given(
    values=st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=50),
    start=st.floats(min_value=-1e6, max_value=1e6),
    chunk=st.one_of(st.just(traffic.CHUNK), st.integers(min_value=1, max_value=8)),
)
def test_running_sum_matches_loop(values, start, chunk):
    """Also with chunks a few values long, so the total carries across them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traffic, "CHUNK", chunk)
        assert running_sum(values, start) == sequential_sum([start] + values)


@pytest.mark.parametrize(
    "arrivals, demands, message",
    [
        ([1, math.nan, 3], 0.4, "arrival_ms from nan to nan, need finite and >= 0"),
        ([-1, 2], 0.4, "arrival_ms from -1.0 to 2.0, need finite and >= 0"),
        ([1, math.inf], 0.4, "arrival_ms from 1.0 to inf, need finite and >= 0"),
        ([5, 1], 0.4, "calls not sorted by arrival: call 1 at 1.0 ms after call 0 at 5.0 ms"),
        ([1, 2], [0.0, 0.4], "demand_ms from 0.0 to 0.4, need finite and > 0"),
        ([1, 2], [0.4, -0.5], "demand_ms from -0.5 to 0.4, need finite and > 0"),
        ([1, 2], [0.4, math.nan], "demand_ms from nan to nan, need finite and > 0"),
        ([1, 2], [0.4, math.inf], "demand_ms from 0.4 to inf, need finite and > 0"),
    ],
)
def test_workload_refuses_calls_no_engine_can_run(arrivals, demands, message):
    """A hand-built Workload is held to the rules a workload file is: a NaN
    arrival gave NaN totals, a negative one a negative execution time."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        workload_of(arrivals, demands)


@pytest.mark.parametrize("big", [sys.float_info.max, 10**308])
def test_float_settings_take_up_to_the_largest_float(big):
    """Every float setting shares one bound, the largest float: a bound
    set below it would refuse these, a float and an int just under it."""
    LbParams(context_switch_ms=big, waiting_ms=big, quantum_override_ms=big)
    assert OfferedLoad(big).erlangs == big
    assert OfferedLoad.from_rates(big, big).erlangs == 1.0
    assert compute_quantum(big, big) == 1.0
    WorkloadParams(arrival_window_ms=big, demand_ms=big)


def test_workload_of_integer_columns():
    """Integer columns raised OverflowError in _check_values. They are held
    to the same rules, and run as their floats do."""
    ids, topology = np.arange(3), NetworkTopology((1, 1))
    calls = Workload(ids, np.array([0, 1, 2]), np.array([1, 1, 1]))
    floats = Workload(ids, np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
    assert compare_systems(topology, calls) == compare_systems(topology, floats)
    with pytest.raises(ValueError, match="^demand_ms from 0 to 1, need finite and > 0$"):
        Workload(ids, np.array([0, 1, 2]), np.array([1, 0, 1]))


class TestWorkloadFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        params = WorkloadParams(n_calls=64, seed=5)
        path = tmp_path / "calls.csv"
        export(params, path)
        assert same_workload(import_workload(path)[0], generate_workload(params))

    def test_round_trip_across_parse_blocks(self, tmp_path):
        """A file of several READ_BYTES blocks: each block is parsed as it
        is read, and the digest is the whole file's."""
        params = WorkloadParams(n_calls=3000, seed=5)
        path = tmp_path / "calls.csv"
        export(params, path)
        assert path.stat().st_size > 2 * traffic.READ_BYTES
        back, digest = import_workload(path)
        assert same_workload(back, generate_workload(params))
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_format_across_chunks(self, chunk):
        """Rows written a few at a time, so that a file's rows cross chunk
        boundaries, are the text written CHUNK rows at a time."""
        for n in (0, 1, 4, 7):
            params = WorkloadParams(n_calls=n, seed=5)
            expected = written(params)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(traffic, "CHUNK", chunk)
                assert written(params) == expected

    def test_format_header_and_width(self):
        lines = written(WorkloadParams(n_calls=3, seed=5)).splitlines()
        assert lines[0] == WORKLOAD_HEADER
        assert len(lines) == 4
        assert all(len(ln.split(",")) == 5 for ln in lines[1:])

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,0.5,0.5,0.4\n")
        with pytest.raises(ValueError, match="header"):
            import_workload(path)

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(WORKLOAD_HEADER + "\n0,1.0,0.5,0.5,0.4\n1,2.0,0.5\n")
        with pytest.raises(ValueError, match=r":3: expected 5 fields"):
            import_workload(path)

    def test_error_counts_blank_lines(self, tmp_path):
        """Line numbers used to skip blank lines, so this error said :3:."""
        path = tmp_path / "bad.csv"
        path.write_text(WORKLOAD_HEADER + "\n\n0,1.0,0.5,0.5,0.4\n1,2.0,0.5\n")
        with pytest.raises(ValueError, match=r":4: expected 5 fields"):
            import_workload(path)

    def test_bad_float_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(WORKLOAD_HEADER + "\n0,oops,0.5,0.5,0.4\n")
        with pytest.raises(ValueError, match=":2:"):
            import_workload(path)

    def test_sorted_by_arrival_keeps_ties_in_file_order(self, tmp_path):
        path = tmp_path / "calls.csv"
        rows = ["7,3.0,0.1,0.1,0.4", "2,1.0,0.2,0.2,0.5", "9,3.0,0.3,0.3,0.6", "4,1.0,0.4,0.4,0.7"]
        path.write_text(WORKLOAD_HEADER + "\n" + "\n".join(rows) + "\n")
        calls = import_workload(path)[0]
        assert calls.ids.tolist() == [2, 4, 7, 9]
        assert calls.arrival_ms.tolist() == [1.0, 1.0, 3.0, 3.0]
        assert calls.demand_ms.tolist() == [0.5, 0.7, 0.4, 0.6]

    def test_in_order_file_with_ties_read_as_sorted(self, tmp_path):
        """A file already in arrival order is not sorted again: its ties,
        -0.0 before 0.0 among them, come back in file order, bit for bit as
        the row-by-row reader's stable sort gives them."""
        path = tmp_path / "calls.csv"
        rows = ["7,-0.0,0.1,0.1,0.4", "2,0.0,0.2,0.2,0.5", "9,0.0,0.3,0.3,0.6",
                "4,1.5,0.4,0.4,0.7", "3,1.5,0.5,0.5,0.8", "8,2.0,0.6,0.6,0.9"]
        path.write_text(WORKLOAD_HEADER + "\n" + "\n".join(rows) + "\n")
        calls, expected = import_workload(path)[0], import_workload_oracle(path)
        assert calls.ids.tolist() == expected.ids.tolist() == [7, 2, 9, 4, 3, 8]
        assert bits(calls.arrival_ms) == bits(expected.arrival_ms)
        assert bits(calls.demand_ms) == bits(expected.demand_ms)
        assert math.copysign(1.0, calls.arrival_ms[0]) == -1.0

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_any_seed(self, tmp_path_factory, n, seed):
        params = WorkloadParams(n_calls=n, seed=seed)
        path = tmp_path_factory.mktemp("wl") / "calls.csv"
        export(params, path)
        assert same_workload(import_workload(path)[0], generate_workload(params))


ROW = st.tuples(
    st.integers(INT64.min, INT64.max),
    st.floats(min_value=0.0, allow_infinity=False),  # arrival: >= 0, -0.0 only in the example
    st.one_of(st.floats(allow_nan=False), st.just(math.nan)),  # x: a file holds no NaN payload
    st.one_of(st.floats(allow_nan=False), st.just(math.nan)),  # y
    st.floats(min_value=5e-324, allow_infinity=False),  # demand
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(ROW, unique_by=lambda row: row[0], max_size=12))
@example(rows=[(int(INT64.min), -0.0, -0.0, math.nan, 5e-324),
               (int(INT64.max), 5e-324, math.inf, -math.inf, 1.7976931348623157e308),
               (0, 2.2250738585072014e-308, -5e-324, 0.0, 2.2250738585072014e-308)])
def test_round_trip_adversarial_values_bit_for_bit(tmp_path_factory, rows):
    """Export then import keeps every bit, which same_workload does not
    check: it counts -0.0 equal to 0.0. The rows stand in for the drawn
    columns, and come back in stable arrival order; the positions the file
    holds keep every bit too."""
    ids, *floats = zip(*rows) if rows else [()] * 5
    columns = np.array(ids, dtype=np.int64), *(np.array(c, dtype=float) for c in floats)
    path = tmp_path_factory.mktemp("wl") / "calls.csv"
    with open(path, "w") as fh:
        format_workload(fh.write, columns)
    back = import_workload(path)[0]
    order = np.argsort(columns[1], kind="stable")
    assert back.ids.tolist() == columns[0][order].tolist()
    assert bits(back.arrival_ms) == bits(columns[1][order])
    assert bits(back.demand_ms) == bits(columns[4][order])
    for row, line in zip(rows, path.read_text().splitlines()[1:], strict=True):
        assert bits(map(float, line.split(",")[1:])) == bits(row[1:])


def bits(values) -> list[int]:
    return np.fromiter(values, dtype=float).view(np.int64).tolist()


# fields valid in every column, and fields that break a rule in some column:
# text int() or float() refuses, non-finite values, demands not above 0 and
# ids outside int64; "٣" is a digit three that takes two bytes in UTF-8
GOOD_FIELDS = ["0", "1", "7", "2.5", "0.4", "1e3", " 3 ", "1_0", "9223372036854775807", "٣"]
BAD_FIELDS = ["", "oops", "nan", "inf", "-inf", "0.0", "-0.4", "-3",
              "9223372036854775808", "-9223372036854775809"]
ROWS = st.one_of(
    st.lists(st.sampled_from(GOOD_FIELDS), min_size=5, max_size=5),
    st.lists(st.sampled_from(GOOD_FIELDS + BAD_FIELDS), min_size=4, max_size=6),
    st.just([]),  # a blank line
)
LINE_ENDS = st.sampled_from(["\n", "\r\n"])


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(ROWS, LINE_ENDS), max_size=8),
    leading=st.lists(st.sampled_from(["\n", " \r\n"]), max_size=2),  # blank lines
    final_end=st.booleans(),
    distinct_ids=st.booleans(),
    read_bytes=st.one_of(st.just(traffic.READ_BYTES), st.integers(min_value=1, max_value=64)),
)
def test_import_matches_row_by_row_reader(
    tmp_path_factory, rows, leading, final_end, distinct_ids, read_bytes
):
    """The columns parsed in bulk, block by block, equal a row-by-row read
    of the whole file, and a file that reader refuses fails with the same
    message; also with blocks a few bytes long, so that rows, line ends and
    characters are cut between reads."""
    if distinct_ids:
        rows = [([str(i)] + fields[1:] if fields else [], end) for i, (fields, end) in enumerate(rows)]
    text = "".join(leading) + WORKLOAD_HEADER + "\n" + "".join(",".join(f) + e for f, e in rows)
    path = tmp_path_factory.mktemp("wl") / "calls.csv"
    path.write_bytes(text.encode() if final_end else text.rstrip("\r\n").encode())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traffic, "READ_BYTES", read_bytes)
        try:
            expected = import_workload_oracle(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                import_workload(path)
            assert str(raised.value) == str(exc)
        else:
            calls, digest = import_workload(path)
            assert same_workload(calls, expected)
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("bad_row", [False, True])
def test_undecodable_byte_past_first_block(tmp_path, bad_row):
    """Refused with the whole file's decode error and position, also when
    a row in the first block breaks a rule."""
    path = tmp_path / "calls.csv"
    export(WorkloadParams(n_calls=3000, seed=5), path)
    data = bytearray(path.read_bytes())
    if bad_row:
        data = data.replace(b"\n0,", b"\n0,oops,", 1)
    at = data.index(b"\n", 2 * traffic.READ_BYTES) + 1
    data[at] = 0xFF
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as raised:
        import_workload(path)
    with pytest.raises(UnicodeDecodeError) as whole:
        bytes(data).decode()
    assert str(raised.value) == str(whole.value)
    assert f"position {at}:" in str(raised.value)


@pytest.mark.parametrize(
    "at_end, message",
    [
        pytest.param(False, "bytes in position 131079-131080: invalid continuation byte",
                     id="3-byte sequence cut past block 2"),
        pytest.param(True, "bytes in position 196887-196889: unexpected end of data",
                     id="4-byte lead cut by end of file"),
    ],
)
def test_multibyte_sequence_cut_short(tmp_path, at_end, message):
    """A sequence of several bytes that does not decode is named by its
    span of file positions, as the whole file's error names it."""
    path = tmp_path / "calls.csv"
    export(WorkloadParams(n_calls=3000, seed=5), path)
    data = bytearray(path.read_bytes())
    if at_end:
        data += b"\xf0\x9f\x98"
    else:
        at = data.index(b"\n", 2 * traffic.READ_BYTES) + 1
        data[at:at + 2] = b"\xe2\x82"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as raised:
        import_workload(path)
    with pytest.raises(UnicodeDecodeError) as whole:
        bytes(data).decode()
    assert str(raised.value) == str(whole.value)
    assert message in str(raised.value)


def test_decode_error_memory_stays_flat(tmp_path):
    """A block's decode error, rebuilt with zeros for every byte before the
    block so that its message named the file position, held the file's size
    once more: 7.85 MiB of traced allocations for a 0xff byte 30 bytes
    before the end of this 3.2 MiB file, which accepted peaks at 2.87 MiB."""
    path = tmp_path / "calls.csv"
    export(WorkloadParams(n_calls=50000), path)
    data = bytearray(path.read_bytes())
    data[-30] = 0xFF
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(UnicodeDecodeError):
            import_workload(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"
