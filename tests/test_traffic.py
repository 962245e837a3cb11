import math

import pytest
from hypothesis import given, settings, strategies as st

from cellbalance.topology import TopologyConfig, build_topology
from cellbalance.traffic import (
    DEFAULT_ARRIVAL_WINDOW_MS,
    DEFAULT_DEMAND_MS,
    WORKLOAD_HEADER,
    CallRequest,
    WorkloadParams,
    average_arrival_range,
    export_workload,
    format_workload,
    generate_workload,
    import_workload,
)

TOPO = build_topology(TopologyConfig())


class TestGenerateWorkload:
    def test_default_scenario_shape(self):
        calls = generate_workload(WorkloadParams(n_calls=900), TOPO)
        assert len(calls) == 900
        assert [c.id for c in calls] == list(range(900))
        assert all(0.0 <= c.arrival_time_ms < DEFAULT_ARRIVAL_WINDOW_MS for c in calls)
        assert all(c.demand_ms == DEFAULT_DEMAND_MS for c in calls)
        for c in calls:
            x, y = c.position
            assert 0.0 <= x < TOPO.area_km
            assert 0.0 <= y < TOPO.area_km

    def test_sorted_by_arrival(self):
        calls = generate_workload(WorkloadParams(n_calls=900), TOPO)
        arrivals = [c.arrival_time_ms for c in calls]
        assert arrivals == sorted(arrivals)

    def test_same_seed_bit_identical(self):
        a = generate_workload(WorkloadParams(n_calls=250, seed=7), TOPO)
        b = generate_workload(WorkloadParams(n_calls=250, seed=7), TOPO)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_workload(WorkloadParams(n_calls=50, seed=1), TOPO)
        b = generate_workload(WorkloadParams(n_calls=50, seed=2), TOPO)
        assert [c.arrival_time_ms for c in a] != [c.arrival_time_ms for c in b]

    def test_negative_seed_accepted(self):
        calls = generate_workload(WorkloadParams(n_calls=10, seed=-3), TOPO)
        assert len(calls) == 10

    def test_zero_calls(self):
        assert generate_workload(WorkloadParams(n_calls=0), TOPO) == []

    def test_arrival_mean_near_window_center(self):
        """Uniform sanity check: 10k draws put the mean within 5% of w/2."""
        calls = generate_workload(WorkloadParams(n_calls=10_000, seed=11), TOPO)
        mean = sum(c.arrival_time_ms for c in calls) / len(calls)
        center = DEFAULT_ARRIVAL_WINDOW_MS / 2
        assert abs(mean - center) < 0.05 * center

    def test_positions_cover_quadrants(self):
        calls = generate_workload(WorkloadParams(n_calls=10_000, seed=11), TOPO)
        half = TOPO.area_km / 2
        counts = {(False, False): 0, (False, True): 0, (True, False): 0, (True, True): 0}
        for c in calls:
            counts[(c.position[0] >= half, c.position[1] >= half)] += 1
        for quadrant in counts.values():
            assert 0.20 <= quadrant / len(calls) <= 0.30

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
        calls = [
            CallRequest(id=i, arrival_time_ms=t, position=(0.0, 0.0), demand_ms=0.4)
            for i, t in enumerate([1.0, 2.0, 3.0, 4.0])
        ]
        assert average_arrival_range(calls) == 2.5

    def test_matches_fsum_mean(self):
        calls = generate_workload(WorkloadParams(n_calls=900), TOPO)
        oracle = math.fsum(c.arrival_time_ms for c in calls) / len(calls)
        assert average_arrival_range(calls) == pytest.approx(oracle, rel=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty workload"):
            average_arrival_range([])


class TestWorkloadFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        calls = generate_workload(WorkloadParams(n_calls=64, seed=5), TOPO)
        path = tmp_path / "calls.csv"
        export_workload(calls, path)
        assert import_workload(path) == calls

    def test_format_header_and_width(self):
        calls = generate_workload(WorkloadParams(n_calls=3, seed=5), TOPO)
        text = format_workload(calls)
        lines = text.splitlines()
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

    def test_bad_float_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(WORKLOAD_HEADER + "\n0,oops,0.5,0.5,0.4\n")
        with pytest.raises(ValueError, match=":2:"):
            import_workload(path)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_any_seed(self, tmp_path_factory, n, seed):
        calls = generate_workload(WorkloadParams(n_calls=n, seed=seed), TOPO)
        path = tmp_path_factory.mktemp("wl") / "calls.csv"
        export_workload(calls, path)
        assert import_workload(path) == calls
