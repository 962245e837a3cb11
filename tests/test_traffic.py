import hashlib
import math

import numpy as np
import pytest
from helpers import same_workload, sequential_sum, workload_of
from hypothesis import example, given, settings, strategies as st
from oracles import import_workload_oracle

from cellbalance import traffic
from cellbalance.topology import NetworkTopology
from cellbalance.traffic import (
    DEFAULT_ARRIVAL_WINDOW_MS,
    DEFAULT_DEMAND_MS,
    INT64,
    WORKLOAD_HEADER,
    Workload,
    WorkloadParams,
    average_arrival_range,
    format_workload,
    generate_workload,
    import_workload,
    running_sum,
)

TOPO = NetworkTopology()


def export(calls, path):
    """Write the calls to a workload file through format_workload, as gen does."""
    with open(path, "w") as fh:
        format_workload(fh.write, calls)


class TestGenerateWorkload:
    def test_default_scenario_shape(self):
        calls = generate_workload(WorkloadParams(n_calls=900), TOPO, positions=True)
        assert len(calls) == 900
        assert calls.ids.tolist() == list(range(900))
        assert all(0.0 <= t < DEFAULT_ARRIVAL_WINDOW_MS for t in calls.arrival_ms)
        assert all(d == DEFAULT_DEMAND_MS for d in calls.demand_ms)
        for x, y in zip(calls.x_km, calls.y_km):
            assert 0.0 <= x < TOPO.area_km
            assert 0.0 <= y < TOPO.area_km

    def test_sorted_by_arrival(self):
        calls = generate_workload(WorkloadParams(n_calls=900), TOPO)
        arrivals = calls.arrival_ms.tolist()
        assert arrivals == sorted(arrivals)

    def test_same_seed_bit_identical(self):
        a = generate_workload(WorkloadParams(n_calls=250, seed=7), TOPO)
        b = generate_workload(WorkloadParams(n_calls=250, seed=7), TOPO)
        assert same_workload(a, b)

    def test_different_seed_differs(self):
        a = generate_workload(WorkloadParams(n_calls=50, seed=1), TOPO)
        b = generate_workload(WorkloadParams(n_calls=50, seed=2), TOPO)
        assert a.arrival_ms.tolist() != b.arrival_ms.tolist()

    def test_negative_seed_accepted(self):
        calls = generate_workload(WorkloadParams(n_calls=10, seed=-3), TOPO)
        assert len(calls) == 10

    def test_zero_calls(self):
        calls = generate_workload(WorkloadParams(n_calls=0), TOPO, positions=True)
        assert same_workload(calls, workload_of([]))

    def test_arrival_mean_near_window_center(self):
        """Uniform sanity check: 10k draws put the mean within 5% of w/2."""
        calls = generate_workload(WorkloadParams(n_calls=10_000, seed=11), TOPO)
        mean = math.fsum(calls.arrival_ms) / len(calls)
        center = DEFAULT_ARRIVAL_WINDOW_MS / 2
        assert abs(mean - center) < 0.05 * center

    def test_positions_cover_quadrants(self):
        calls = generate_workload(WorkloadParams(n_calls=10_000, seed=11), TOPO, positions=True)
        half = TOPO.area_km / 2
        counts = {(False, False): 0, (False, True): 0, (True, False): 0, (True, True): 0}
        for x, y in zip(calls.x_km, calls.y_km):
            counts[(bool(x >= half), bool(y >= half))] += 1
        for quadrant in counts.values():
            assert 0.20 <= quadrant / len(calls) <= 0.30

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 500), seed=st.integers(-2**63, 2**64 - 1),
           demand=st.floats(min_value=5e-324, allow_infinity=False))
    def test_positions_leave_the_calls_bit_identical(self, n, seed, demand):
        """Positions come from their own substream: drawing them or not
        changes no bit of the ids, arrivals or demands."""
        params = WorkloadParams(n_calls=n, seed=seed, demand_ms=demand)
        calls = generate_workload(params, TOPO)
        placed = generate_workload(params, TOPO, positions=True)
        assert calls.x_km is None and calls.y_km is None
        assert len(placed.x_km) == len(placed.y_km) == n
        for name in ("ids", "arrival_ms", "demand_ms"):
            column, placed_column = getattr(calls, name), getattr(placed, name)
            assert column.dtype == placed_column.dtype
            assert column.tobytes() == placed_column.tobytes()

    def test_params_validation(self):
        with pytest.raises(ValueError, match="n_calls"):
            WorkloadParams(n_calls=-1)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="arrival_window_ms"):
                WorkloadParams(n_calls=1, arrival_window_ms=bad)
            with pytest.raises(ValueError, match="demand_ms"):
                WorkloadParams(n_calls=1, demand_ms=bad)


class TestAverageArrivalRange:
    def test_exact_small_example(self):
        assert average_arrival_range(np.array([1.0, 2.0, 3.0, 4.0])) == 2.5

    def test_matches_fsum_mean(self):
        calls = generate_workload(WorkloadParams(n_calls=900), TOPO)
        oracle = math.fsum(calls.arrival_ms) / len(calls)
        assert average_arrival_range(calls.arrival_ms) == pytest.approx(oracle, rel=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty workload"):
            average_arrival_range(np.array([]))

    def test_adds_left_to_right(self):
        """Pairwise or compensated summation (np.sum; sum() on Python 3.12+)
        gives 1.0 here, so the quantum would depend on the Python version."""
        assert running_sum([1e16, 1.0, -1e16]) == 0.0
        assert average_arrival_range([1e16, 1.0, -1e16]) == 0.0


@given(
    values=st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=50),
    start=st.floats(min_value=-1e6, max_value=1e6),
    chunk=st.one_of(st.just(traffic.SUM_CHUNK), st.integers(min_value=1, max_value=8)),
)
def test_running_sum_matches_loop(values, start, chunk):
    """Also with chunks a few values long, so the total carries across them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traffic, "SUM_CHUNK", chunk)
        assert running_sum(values, start) == sequential_sum([start] + values)


class TestWorkloadFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        calls = generate_workload(WorkloadParams(n_calls=64, seed=5), TOPO, positions=True)
        path = tmp_path / "calls.csv"
        export(calls, path)
        assert same_workload(import_workload(path)[0], calls)

    def test_round_trip_across_parse_blocks(self, tmp_path):
        """A file of several READ_BYTES blocks: each block is parsed as it
        is read, and the digest is the whole file's."""
        calls = generate_workload(WorkloadParams(n_calls=3000, seed=5), TOPO, positions=True)
        path = tmp_path / "calls.csv"
        export(calls, path)
        assert path.stat().st_size > 2 * traffic.READ_BYTES
        back, digest = import_workload(path)
        assert same_workload(back, calls)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_format_header_and_width(self):
        calls = generate_workload(WorkloadParams(n_calls=3, seed=5), TOPO, positions=True)
        parts = []
        format_workload(parts.append, calls)
        text = "".join(parts)
        lines = text.splitlines()
        assert lines[0] == WORKLOAD_HEADER
        assert len(lines) == 4
        assert all(len(ln.split(",")) == 5 for ln in lines[1:])

    def test_format_refuses_calls_without_positions(self):
        calls = generate_workload(WorkloadParams(n_calls=3, seed=5), TOPO)
        with pytest.raises(ValueError, match="positions"):
            format_workload([].append, calls)

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
        calls = import_workload(path)[0].sorted_by_arrival()
        assert calls.ids.tolist() == [2, 4, 7, 9]
        assert calls.arrival_ms.tolist() == [1.0, 1.0, 3.0, 3.0]
        assert calls.x_km.tolist() == [0.2, 0.4, 0.1, 0.3]
        assert calls.demand_ms.tolist() == [0.5, 0.7, 0.4, 0.6]

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_any_seed(self, tmp_path_factory, n, seed):
        calls = generate_workload(WorkloadParams(n_calls=n, seed=seed), TOPO, positions=True)
        path = tmp_path_factory.mktemp("wl") / "calls.csv"
        export(calls, path)
        assert same_workload(import_workload(path)[0], calls)


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
    check: it counts -0.0 equal to 0.0."""
    ids, *floats = zip(*rows) if rows else [()] * 5
    calls = Workload(np.array(ids, dtype=np.int64), *(np.array(c, dtype=float) for c in floats))
    path = tmp_path_factory.mktemp("wl") / "calls.csv"
    export(calls, path)
    back = import_workload(path)[0]
    assert np.array_equal(back.ids, calls.ids)
    for name in ("arrival_ms", "x_km", "y_km", "demand_ms"):
        assert np.array_equal(getattr(back, name).view(np.int64), getattr(calls, name).view(np.int64))


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
    calls = generate_workload(WorkloadParams(n_calls=3000, seed=5), TOPO, positions=True)
    path = tmp_path / "calls.csv"
    export(calls, path)
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
