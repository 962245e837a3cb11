import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import workload_of
from oracles import erlang_b_direct

from cellbalance.engine import simulate_normal
from cellbalance.teletraffic import (
    BlockingCurvePoint,
    OfferedLoad,
    blocking_sweep,
    erlang_b,
    format_blocking_csv,
)
from cellbalance.topology import NetworkTopology
from cellbalance.traffic import WorkloadParams, generate_workload

DEFAULT_TOPO = NetworkTopology()


class TestOfferedLoad:
    def test_direct_erlangs(self):
        assert OfferedLoad(2.0).erlangs == 2.0

    def test_from_rates(self):
        assert OfferedLoad.from_rates(4.0, 2.0) == OfferedLoad(2.0)

    def test_rejects_negative_load(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="erlangs"):
                OfferedLoad(bad)

    def test_rejects_bad_rates(self):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="mu_per_s"):
                OfferedLoad.from_rates(4.0, bad)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda_per_s"):
                OfferedLoad.from_rates(bad, 2.0)


class TestErlangB:
    def test_zero_traffic(self):
        assert erlang_b(OfferedLoad(0.0), 5) == 0.0

    def test_zero_channels_always_blocks(self):
        assert erlang_b(OfferedLoad(0.0), 0) == 1.0
        assert erlang_b(OfferedLoad(7.0), 0) == 1.0

    def test_hand_summed_value(self):
        # (2^2/2!) / (1 + 2 + 2) = 2/5
        assert erlang_b(OfferedLoad(2.0), 2) == 0.4

    def test_matches_direct_sum_at_depth(self):
        value = erlang_b(OfferedLoad(10.0), 120)
        assert abs(value - erlang_b_direct(10.0, 120)) <= 1e-12

    def test_rejects_negative_channels(self):
        with pytest.raises(ValueError, match="n_channels"):
            erlang_b(OfferedLoad(1.0), -1)

    @given(
        a=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        n=st.integers(min_value=0, max_value=170),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_monotone_in_channels(self, a, n):
        load = OfferedLoad(a)
        value = erlang_b(load, n)
        assert 0.0 <= value <= 1.0
        assert erlang_b(load, n + 1) <= value + 1e-15

    @given(
        a=st.floats(min_value=0.0, max_value=99.0, allow_nan=False),
        n=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_load(self, a, n):
        assert erlang_b(OfferedLoad(a), n) <= erlang_b(OfferedLoad(a + 1.0), n) + 1e-15


class TestEmpiricalBlocking:
    def test_default_scenario_normal_run(self):
        calls = generate_workload(WorkloadParams(n_calls=900))
        report = simulate_normal(DEFAULT_TOPO, calls)
        assert report.empirical_blocking == 587 / 900

    def test_empty_run(self):
        report = simulate_normal(DEFAULT_TOPO, workload_of([]))
        assert report.empirical_blocking == 0.0

    def test_total_starvation(self):
        topo = NetworkTopology(bsc_channels=(0, 0))
        calls = workload_of(range(5))
        assert simulate_normal(topo, calls).empirical_blocking == 1.0


class TestBlockingSweep:
    def test_count_model_closed_forms(self):
        """Below home capacity nothing blocks; above it the normal system
        blocks (n - 313)/n and the balanced one (n - 1041)/n."""
        levels = [0, 300, 600, 900, 1200]
        points = blocking_sweep(DEFAULT_TOPO, levels)
        assert [p.n_calls for p in points] == levels
        assert [p.ns_blocking for p in points] == [
            0.0, 0.0, 287 / 600, 587 / 900, 887 / 1200,
        ]
        assert [p.lb_blocking for p in points] == [0.0, 0.0, 0.0, 0.0, 159 / 1200]

    def test_single_zero_level(self):
        points = blocking_sweep(DEFAULT_TOPO, [0])
        assert points == [BlockingCurvePoint(n_calls=0, ns_blocking=0.0, lb_blocking=0.0)]

    def test_deterministic_across_calls(self):
        a = blocking_sweep(DEFAULT_TOPO, [0, 400, 800])
        b = blocking_sweep(DEFAULT_TOPO, [0, 400, 800])
        assert a == b

    def test_dominance_row_wise(self):
        points = blocking_sweep(DEFAULT_TOPO, list(range(0, 1300, 100)))
        for p in points:
            assert p.lb_blocking <= p.ns_blocking

    def test_rejects_descending_levels(self):
        with pytest.raises(ValueError, match="ascend"):
            blocking_sweep(DEFAULT_TOPO, [100, 50])

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError, match="negative"):
            blocking_sweep(DEFAULT_TOPO, [-5, 10])

    @pytest.mark.parametrize(
        "pools, levels",
        [
            ((313, 346, 382), range(0, 3001, 10)),
            ((5, 0, 3, 0), range(40)),
            ((0, 1), range(10)),
            ((1000, 1, 1), range(0, 5001, 37)),
            ((5, 99999999999999999999), range(0, 21, 10)),  # a pool above int64
        ],
    )
    def test_csv_equals_closed_form(self, pools, levels):
        """Admission never reads arrivals, so blocking is (n - min(n, H)) / n
        without load balancing and (n - min(n, H + N)) / n with it, for a
        home pool H and neighbor pools N in total; 0 with no calls."""
        topology = NetworkTopology(bsc_channels=pools)
        home, total = pools[0], sum(pools)
        rows = "".join(
            f"{n},{(n - min(n, home)) / (n or 1):.6f},{(n - min(n, total)) / (n or 1):.6f}\n"
            for n in levels
        )
        points = blocking_sweep(topology, list(levels))
        assert format_blocking_csv(points) == "n_calls,ns_blocking,lb_blocking\n" + rows


class TestFormatBlockingCsv:
    def test_header_and_six_decimals(self):
        points = [
            BlockingCurvePoint(n_calls=0, ns_blocking=0.0, lb_blocking=0.0),
            BlockingCurvePoint(n_calls=900, ns_blocking=587 / 900, lb_blocking=0.0),
        ]
        text = format_blocking_csv(points)
        lines = text.splitlines()
        assert lines[0] == "n_calls,ns_blocking,lb_blocking"
        assert lines[1] == "0,0.000000,0.000000"
        assert lines[2] == "900,0.652222,0.000000"
        assert text.endswith("\n")
