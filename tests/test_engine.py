import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from helpers import sequential_sum, workload_of
from oracles import records_csv_oracle, slices_to_finish_loop

from cellbalance import engine
from cellbalance.engine import (
    LOAD_BALANCED,
    NO_BSC,
    NORMAL,
    CallRecord,
    ComparisonReport,
    LbParams,
    SimulationReport,
    UndefinedQuantum,
    compare_systems,
    compute_quantum,
    simulate_load_balanced,
    simulate_normal,
    slice_execution_time,
    slices_to_finish,
)
from cellbalance.report import write_records_csv
from cellbalance.topology import HOME_BSC, NetworkTopology
from cellbalance.traffic import WorkloadParams, generate_workload

DEFAULT_TOPO = NetworkTopology()


def topo(*channels):
    return NetworkTopology(bsc_channels=tuple(channels))


def default_workload(n=900, seed=42):
    return generate_workload(WorkloadParams(n_calls=n, seed=seed))


class TestComputeQuantum:
    def test_reference_division_rounds_to_4dp(self):
        q = compute_quantum(251.1959, 517.9749)
        assert round(q, 4) == 0.4850

    def test_plain_division(self):
        assert compute_quantum(10.0, 5.0) == 2.0

    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_unit_denominator_is_identity(self, x):
        assert compute_quantum(x, 1.0) == x

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="avg_arrival_range_ms"):
            compute_quantum(0.0, 5.0)
        for bad in (0.0, 10**400, math.nan, math.inf):
            with pytest.raises(ValueError, match="ready_queue_size"):
                compute_quantum(10.0, bad)

    def test_mean_that_gives_no_float_quantum(self):
        """A NaN mean gave a NaN quantum and 10**400 raised OverflowError.
        An infinite mean still gives an infinite quantum, which the report
        refuses by name."""
        for bad in (math.nan, 10**400, 10**5000):
            with pytest.raises(UndefinedQuantum, match="avg_arrival_range_ms"):
                compute_quantum(bad, 5.0)
        assert compute_quantum(math.inf, 5.0) == math.inf


class TestSliceExecutionTime:
    def test_reference_slice_cost(self):
        assert slice_execution_time(0.4850, 0.1) == 0.5850

    def test_zero_switch_cost(self):
        assert slice_execution_time(0.485, 0.0) == 0.485

    def test_plain_addition(self):
        assert slice_execution_time(1.0, 0.25) == 1.25


MAX_PASSES = 10_000  # demand / quantum bound, so the reference loop finishes


@st.composite
def slice_cases(draw) -> tuple[float, float]:
    """(demand, quantum) pairs the reference loop finishes or refuses
    quickly: random ones, quanta a whole number of ulps plus half an ulp (a
    tie), and demands a whole number of steps above a power of two."""
    kind = draw(st.sampled_from(["random", "tie", "edge"]))
    if kind == "random":
        demand = draw(st.floats(min_value=5e-324, max_value=1e300))
        quantum = demand / draw(st.floats(min_value=1e-3, max_value=MAX_PASSES))
        assume(quantum > 0)
        return demand, quantum
    if kind == "tie":
        demand = draw(st.floats(min_value=1e-300, max_value=1e300))
        ulps = draw(st.integers(2**52 // MAX_PASSES, 2**52 - 1))
        # a tie in the demand's binade, or in one or two binades below
        return demand, (ulps + 0.5) * math.ulp(demand) / 2 ** draw(st.integers(0, 2))
    # each step rounds to `step` ulps, until the one that reaches the power
    # of two, whose exact result may lie below it; quanta near power / n
    # make the count hang on where that step lands
    power = math.ldexp(1.0, draw(st.integers(-1000, 1000)))
    ulps = 2**52 // draw(st.integers(2, MAX_PASSES)) + draw(st.integers(-3, 3))
    frac = draw(st.sampled_from([-0.3, 0.0, 0.3, 0.4, 0.5]))
    step = ulps + ulps % 2 if frac == 0.5 else ulps  # a tie rounds to an even multiple
    steps = draw(st.integers(0, 2**52 // step - 1))
    demand = power + (steps * step + draw(st.integers(0, 2))) * math.ulp(power)
    return demand, (ulps + frac) * math.ulp(power)


class TestSlicesToFinish:
    def test_repeated_subtraction(self):
        assert slices_to_finish(1.25, 0.5) == 3
        assert slices_to_finish(0.4, 0.5) == 1
        assert slices_to_finish(1.0, 0.5) == 2

    def test_rounds_like_the_queue_not_like_ceil(self):
        """Four subtractions of 0.1 from 0.4 leave 2.8e-17 > 0, so a fifth
        pass runs, although 0.4 / 0.1 rounds to exactly 4.0."""
        assert math.ceil(0.4 / 0.1) == 4
        assert slices_to_finish(0.4, 0.1) == 5

    def test_rejects_quantum_that_cannot_reduce_demand(self):
        with pytest.raises(ValueError, match="never finish"):
            slices_to_finish(1e20, 1.0)
        # half an ulp: the first pass rounds 2+3u down to 2+2u, every later
        # one ties back to 2+2u
        with pytest.raises(ValueError, match="never finish"):
            slices_to_finish(2.0000000000000013, 2.220446049250313e-16)
        assert slices_to_finish(1e15, 2e12) == 500

    def test_huge_ratio_counts_without_a_pass_per_slice(self):
        """One loop pass per slice asked for 1e15 passes here."""
        assert slices_to_finish(1e15, 1.0) == 10**15

    @settings(max_examples=300, deadline=None)
    @given(case=slice_cases())
    # the step that reaches 1.0 rounds to 1 - ulp/2 below it, and that half
    # ulp decides the last pass
    @example(case=(float.fromhex("0x1.43c3c3c3c3c38p+0"), float.fromhex("0x1.e1e1e1e1e1e1ap-6")))
    def test_matches_subtraction_loop(self, case):
        demand, quantum = case
        try:
            expected = slices_to_finish_loop(demand, quantum)
        except ValueError:
            with pytest.raises(ValueError, match="never finish"):
                slices_to_finish(demand, quantum)
        else:
            assert slices_to_finish(demand, quantum) == expected


class TestLbParams:
    def test_defaults(self):
        p = LbParams()
        assert p.context_switch_ms == 0.1
        assert p.waiting_ms == 3.0
        assert p.quantum_override_ms is None

    def test_validation(self):
        # 10**5000 is past the digits str renders, so its message names its size
        for bad in (-1.0, math.nan, math.inf, 10**400, 10**5000):
            with pytest.raises(ValueError, match="context_switch_ms"):
                LbParams(context_switch_ms=bad)
            with pytest.raises(ValueError, match="waiting_ms"):
                LbParams(waiting_ms=bad)
        for bad in (0.0, math.nan, math.inf, 10**400, 10**5000):
            with pytest.raises(ValueError, match="quantum_override_ms"):
                LbParams(quantum_override_ms=bad)


def report(serving_bscs, pools=(1, 1, 1), n=None):
    """A load-balanced report of calls served by `serving_bscs`, with n
    entries (default: one per serving BSC) in the other columns."""
    n = len(serving_bscs) if n is None else n
    return SimulationReport(
        LOAD_BALANCED, pools, 0.0, None, np.arange(n), np.asarray(serving_bscs, dtype=np.int64),
        np.zeros(n), np.zeros(n, dtype=np.int64),
    )


class TestReport:
    def test_counts_read_from_serving_column(self):
        built = report([0, -1, 2, 1, -1, 2], pools=(1, 1, 2, 0))
        assert built.per_bsc_handled == {0: 1, 1: 1, 2: 2, 3: 0}
        assert (built.accepted_home, built.handed_over, built.blocked) == (1, 3, 2)
        assert built.empirical_blocking == 2 / 6
        assert report([]).empirical_blocking == 0.0

    def test_rejects_over_assigned_pool(self):
        with pytest.raises(RuntimeError, match="conservation"):
            report([0, 1, 1])

    @pytest.mark.parametrize("bad_code", [-2, 3])
    def test_rejects_serving_bsc_outside_pools(self, bad_code):
        with pytest.raises(RuntimeError, match="conservation"):
            report([0, bad_code, -1])

    def test_rejects_uncounted_calls(self):
        """Columns of unequal length leave some call without an outcome."""
        with pytest.raises(RuntimeError, match="conservation"):
            report([0, 1, -1], n=4)
        with pytest.raises(RuntimeError, match="conservation"):
            report([0, 1, -1], n=2)

    def test_equality_reads_scalars_and_columns(self):
        built = report([0, 1, -1])
        assert built == report([0, 1, -1])
        assert built != report([0, -1, 1])
        assert built != replace(built, quantum_ms=1.0)

    def test_records_match_columns(self):
        """records, kept for the benchmark's traced reader, is the columns
        as one CallRecord per call."""
        built = simulate_load_balanced(
            topo(1, 1, 1), workload_of([1, 2, 3, 4], 1.2), LbParams(quantum_override_ms=1.0)
        )
        assert built.records == (
            CallRecord(0, "accepted_home", 0, 4.0, 0),
            CallRecord(1, "handed_over", 1, 2 * 1.1, 2),
            CallRecord(2, "handed_over", 2, 2 * 1.1, 2),
            CallRecord(3, "blocked", None, 0.0, 0),
        )


class TestSimulateNormal:
    def test_default_scenario_counts(self):
        report = simulate_normal(DEFAULT_TOPO, default_workload())
        assert report.system == NORMAL
        assert report.accepted_home == 313
        assert report.blocked == 587
        assert report.handed_over == 0
        assert report.empirical_blocking == 587 / 900
        assert report.per_bsc_handled == {0: 313, 1: 0, 2: 0}

    def test_per_call_execution_formula(self):
        """Three calls under ample capacity: time = arrival + waiting."""
        report = simulate_normal(topo(5, 5), workload_of([1, 2, 4]), LbParams(waiting_ms=3.0))
        assert report.execution_times_ms.tolist() == [4.0, 5.0, 7.0]
        assert report.total_execution_time_ms == 16.0

    def test_total_charges_blocked_calls_too(self):
        """The system clock runs for every examined request, but blocked
        calls themselves carry zero execution time."""
        report = simulate_normal(topo(1, 1), workload_of([1, 2, 4]), LbParams(waiting_ms=3.0))
        assert report.accepted_home == 1
        assert report.blocked == 2
        assert report.total_execution_time_ms == 16.0
        assert report.execution_times_ms.tolist() == [4.0, 0.0, 0.0]

    def test_empty_workload(self):
        report = simulate_normal(DEFAULT_TOPO, workload_of([]))
        assert report.accepted_home == report.handed_over == report.blocked == 0
        assert report.empirical_blocking == 0.0
        assert report.total_execution_time_ms == 0.0

    def test_blocked_record_shape(self):
        report = simulate_normal(topo(0, 1), workload_of([1.0]))
        assert report.serving_bscs.tolist() == [NO_BSC]
        assert report.execution_times_ms.tolist() == [0.0]
        assert report.slices.tolist() == [0]

    def test_first_come_first_served(self):
        report = simulate_normal(topo(2, 1), workload_of([1, 2, 3, 4]))
        assert report.serving_bscs.tolist() == [HOME_BSC, HOME_BSC, NO_BSC, NO_BSC]

    def test_rejects_unsorted_calls(self):
        """Refused as the calls are built, so no engine ever sees them."""
        with pytest.raises(ValueError, match="not sorted"):
            simulate_normal(DEFAULT_TOPO, workload_of([5, 1]))

    def test_total_matches_record_sum_at_scale(self):
        calls = default_workload()
        report = simulate_normal(DEFAULT_TOPO, calls)
        oracle = math.fsum(calls.arrival_ms + 3.0)
        assert report.total_execution_time_ms == pytest.approx(oracle, rel=1e-12)


class TestSimulateLoadBalanced:
    def test_default_scenario_counts(self):
        report = simulate_load_balanced(DEFAULT_TOPO, default_workload())
        assert report.system == LOAD_BALANCED
        assert report.accepted_home == 313
        assert report.handed_over == 587
        assert report.blocked == 0
        assert report.per_bsc_handled == {0: 313, 1: 294, 2: 293}
        assert report.empirical_blocking == 0.0

    def test_default_scenario_quantum_and_times(self):
        calls = default_workload()
        report = simulate_load_balanced(DEFAULT_TOPO, calls)
        overflow = calls.arrival_ms[313:].tolist()
        mean = sequential_sum(overflow) / len(overflow)
        assert report.quantum_ms == mean / 587.0
        cost = report.quantum_ms + 0.1
        assert set(report.slices[313:].tolist()) == {1}
        assert set(report.execution_times_ms[313:].tolist()) == {cost}
        oracle = math.fsum(calls.arrival_ms[:313] + 3.0) + 587 * cost
        assert report.total_execution_time_ms == pytest.approx(oracle, rel=1e-12)

    def test_requeue_path_hand_trace(self):
        """Four calls against one home and two single-channel neighbors,
        demand 1.2 quanta: each queued call needs two passes, two calls
        hand over (one per neighbor), the last is blocked."""
        calls = workload_of([1, 2, 3, 4], 1.2)
        report = simulate_load_balanced(
            topo(1, 1, 1), calls, LbParams(quantum_override_ms=1.0)
        )
        assert report.call_ids.tolist() == [0, 1, 2, 3]
        assert report.serving_bscs.tolist() == [HOME_BSC, 1, 2, NO_BSC]
        assert report.slices.tolist() == [0, 2, 2, 0]
        assert report.execution_times_ms.tolist() == [4.0, 2 * 1.1, 2 * 1.1, 0.0]

    def test_alternation_over_neighbors(self):
        calls = workload_of(range(1, 8), 1.0)
        report = simulate_load_balanced(
            topo(1, 3, 3), calls, LbParams(quantum_override_ms=1.0)
        )
        targets = report.serving_bscs[report.serving_bscs > HOME_BSC]
        assert targets.tolist() == [1, 2, 1, 2, 1, 2]

    def test_rotation_skips_exhausted_pool(self):
        calls = workload_of(range(1, 6), 1.0)
        report = simulate_load_balanced(
            topo(0, 1, 4), calls, LbParams(quantum_override_ms=1.0)
        )
        targets = report.serving_bscs[report.serving_bscs > HOME_BSC]
        assert targets.tolist() == [1, 2, 2, 2, 2]

    def test_zero_capacity_neighbors_block_everything(self):
        calls = workload_of([1, 2, 3])
        report = simulate_load_balanced(topo(1, 0, 0), calls)
        assert report.accepted_home == 1
        assert report.handed_over == 0
        assert report.blocked == 2
        ns = simulate_normal(topo(1, 0, 0), calls)
        assert report.empirical_blocking == ns.empirical_blocking

    def test_no_overflow_matches_normal(self):
        calls = workload_of([1, 2, 3])
        lb = simulate_load_balanced(topo(5, 1), calls)
        ns = simulate_normal(topo(5, 1), calls)
        assert lb.quantum_ms is None
        assert lb.handed_over == lb.blocked == 0
        assert lb.serving_bscs.tolist() == ns.serving_bscs.tolist()
        assert lb.execution_times_ms.tolist() == ns.execution_times_ms.tolist()

    def test_empty_workload(self):
        report = simulate_load_balanced(DEFAULT_TOPO, workload_of([]))
        assert len(report.call_ids) == 0
        assert report.empirical_blocking == 0.0
        assert report.quantum_ms is None

    def test_quantum_override_respected(self):
        calls = workload_of([1, 2, 3], 0.4)
        report = simulate_load_balanced(
            topo(1, 2), calls, LbParams(quantum_override_ms=2.0)
        )
        assert report.quantum_ms == 2.0

    def test_records_follow_arrival_order(self):
        calls = workload_of(range(1, 9), 1.2)
        report = simulate_load_balanced(
            topo(2, 2, 2), calls, LbParams(quantum_override_ms=1.0)
        )
        assert report.call_ids.tolist() == calls.ids.tolist()

    def test_rejects_unsorted_calls(self):
        with pytest.raises(ValueError, match="not sorted"):
            simulate_load_balanced(DEFAULT_TOPO, workload_of([5, 1]))


def test_compare_transient_memory_per_call():
    """Full-length arange masks, np.where over a copy of arrival + waiting
    and np.unique's inverse index peaked at 97.5 B/call of traced
    allocations on this workload; slice assignment into the report columns
    and a sorted lookup of each queued call's demand peaked at about 81
    B/call, 48 of them the two reports' columns. Writing the queued slice
    counts straight into the report's column and freeing the full argsort
    peaked at about 59 B/call, and a one-byte serving-BSC column in place of
    an 8-byte one at about 45."""
    n, pools = 90_000, topo(31300, 34600, 38200)
    calls = generate_workload(WorkloadParams(n_calls=n, seed=42))
    tracemalloc.start()
    try:
        compare_systems(pools, calls)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n <= 48, f"traced peak {peak / n:.1f} B/call"


@pytest.mark.parametrize(
    "pools",
    [
        pytest.param((31300, 34600, 38200), id="all-handed"),
        pytest.param((1000, 100, 100), id="mostly-blocked"),
    ],
)
def test_load_balanced_memory_beyond_columns(pools):
    """Beyond the report's three new columns, the engine holds one intp
    array of the queue (its stable order), the rotation's one-byte targets
    and one bool mask. Copying the handed-over calls' positions, their slice
    counts and their times peaked at 33.2 B per queued call when every
    queued call is handed over; int64 targets and one intp demand index
    per queued call, at 16.3."""
    n = 90_000
    calls = generate_workload(WorkloadParams(n_calls=n, seed=42))
    tracemalloc.start()
    try:
        simulate_load_balanced(topo(*pools), calls)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # serving BSC (int8 for 3 pools), execution time and slices (int8 up to 127 passes)
    columns = (1 + 8 + 1) * n
    queued = n - pools[HOME_BSC]
    assert peak - columns <= 11 * queued, f"{(peak - columns) / queued:.1f} B per queued call"


@pytest.mark.parametrize("n_pools, dtype", [(128, np.int8), (129, np.int16)])
def test_serving_column_is_narrowest_dtype(n_pools, dtype):
    """The serving-BSC column is the narrowest signed integer that holds
    NO_BSC and every pool index: the 129th pool's index, 128, needs int16.
    Every pool serves one call here, the last one too, and the record CSV
    reads the column as the row-by-row oracle does."""
    calls = workload_of(range(n_pools + 2))  # one call per pool, then two blocked
    for simulate in (simulate_normal, simulate_load_balanced):
        report = simulate(topo(*[1] * n_pools), calls)
        assert report.serving_bscs.dtype == dtype
    assert report.per_bsc_handled == dict.fromkeys(range(n_pools), 1)
    assert report.blocked == 2
    parts = []
    write_records_csv(parts.append, report)
    assert "".join(parts) == records_csv_oracle(report)


@pytest.mark.parametrize("passes, dtype", [(127, np.int8), (128, np.int16)])
def test_slices_column_is_narrowest_dtype(passes, dtype):
    """The slices column is the narrowest signed integer that holds the
    run's most passes: 128 needs int16, and the normal system's zeros
    int8. Both queued calls are handed over with their counts, and the
    record CSV reads the column as the row-by-row oracle does."""
    calls = workload_of(range(3), float(passes))
    params = LbParams(quantum_override_ms=1.0)
    assert simulate_normal(topo(1, 2), calls, params).slices.dtype == np.int8
    report = simulate_load_balanced(topo(1, 2), calls, params)
    assert report.slices.dtype == dtype
    assert report.slices.tolist() == [0] + [slices_to_finish_loop(float(passes), 1.0)] * 2
    parts = []
    write_records_csv(parts.append, report)
    assert "".join(parts) == records_csv_oracle(report)


def test_rotation_targets_memory_is_linear_in_handovers():
    """A rounds x pools mask, and every cell gathered from it, peaked at
    17.2 MiB of traced allocations for 100 pools and 20000 handovers; the
    targets themselves take 0.16 MiB."""
    tracemalloc.start()
    try:
        targets = engine._rotation_targets((20000,) * 100, 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB"
    assert targets.tolist() == list(range(100)) * 200


def test_rotation_targets_pools_above_int64():
    """The pools are compared as the topology holds them: an int64 copy of
    them overflowed."""
    assert engine._rotation_targets((2**70, 1), 3).tolist() == [0, 1, 0]


class TestCompareSystems:
    def test_default_scenario_ordering(self):
        comparison = compare_systems(DEFAULT_TOPO, default_workload())
        ns, lb = comparison.normal, comparison.load_balanced
        assert lb.blocked < ns.blocked
        assert lb.total_execution_time_ms < ns.total_execution_time_ms
        assert comparison.blocking_delta_pp == pytest.approx(587 / 900 * 100)
        assert comparison.execution_time_delta_ms > 0

    def test_underload_is_a_wash(self):
        calls = workload_of([1, 2, 3])
        comparison = compare_systems(topo(10, 10), calls)
        assert comparison.blocking_delta_pp == 0.0
        assert comparison.execution_time_delta_ms == 0.0
        assert comparison.load_balanced.handed_over == 0

    def test_zero_capacity_neighbors_zero_delta(self):
        calls = workload_of([1, 2, 3, 4])
        comparison = compare_systems(topo(2, 0), calls)
        assert comparison.blocking_delta_pp == 0.0
        assert comparison.load_balanced.handed_over == 0


# --- property suite ----------------------------------------------------------

QUANTA = (0.5, 1.0, 2.0)
MULTIPLIERS = (0.25, 0.5, 1.0, 1.5, 2.5)


@st.composite
def lb_instances(draw):
    """Small random instances with exactly representable demand/quantum
    ratios, so slice counts are FP-robust."""
    n_bscs = draw(st.integers(min_value=2, max_value=4))
    channels = tuple(draw(st.integers(min_value=0, max_value=6)) for _ in range(n_bscs))
    n = draw(st.integers(min_value=0, max_value=30))
    increments = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    arrivals = []
    t = 0
    for inc in increments:
        t += inc
        arrivals.append(float(t))
    quantum = draw(st.sampled_from(QUANTA))
    demand = draw(st.sampled_from(MULTIPLIERS)) * quantum
    return channels, arrivals, demand, quantum


@given(lb_instances())
@settings(max_examples=200, deadline=None)
def test_conservation_and_capacity(instance):
    channels, arrivals, demand, quantum = instance
    topology = topo(*channels)
    calls = workload_of(arrivals, demand)
    params = LbParams(quantum_override_ms=quantum)
    for report in (simulate_normal(topology, calls), simulate_load_balanced(topology, calls, params)):
        n = len(calls)
        assert report.accepted_home + report.handed_over + report.blocked == n
        assert report.accepted_home <= channels[0]
        for bsc_id, handled in report.per_bsc_handled.items():
            assert handled <= channels[bsc_id]


@given(lb_instances())
@settings(max_examples=200, deadline=None)
def test_overflow_identity_and_dominance(instance):
    channels, arrivals, demand, quantum = instance
    topology = topo(*channels)
    calls = workload_of(arrivals, demand)
    ns = simulate_normal(topology, calls)
    lb = simulate_load_balanced(topology, calls, LbParams(quantum_override_ms=quantum))
    n, home = len(calls), channels[0]
    overflow = max(0, n - home)
    assert lb.handed_over + lb.blocked == overflow
    assert ns.blocked == overflow
    assert lb.blocked <= ns.blocked
    # admission never reads arrivals: blocking is exact in n and the pools
    assert ns.blocked == n - min(n, home)
    assert lb.blocked == n - min(n, sum(channels))
    # normal charges arrival + waiting to the overflow calls; load balancing
    # charges k slices to each handed-over call instead
    overflow_charge = sequential_sum(calls.arrival_ms[home:] + 3.0)
    k = math.ceil(Fraction(demand) / Fraction(quantum))
    slice_charge = sequential_sum([k * slice_execution_time(quantum, 0.1)] * lb.handed_over)
    assert ComparisonReport(ns, lb).execution_time_delta_ms == pytest.approx(
        overflow_charge - slice_charge,
        abs=1e-12 * (ns.total_execution_time_ms + lb.total_execution_time_ms),
    )


@given(lb_instances())
@settings(max_examples=150, deadline=None)
def test_slice_accounting_exact(instance):
    channels, arrivals, demand, quantum = instance
    topology = topo(*channels)
    calls = workload_of(arrivals, demand)
    params = LbParams(quantum_override_ms=quantum)
    report = simulate_load_balanced(topology, calls, params)
    expected_slices = math.ceil(Fraction(demand) / Fraction(quantum))
    cost = slice_execution_time(quantum, params.context_switch_ms)
    handed = report.serving_bscs > HOME_BSC
    assert set(report.slices[handed].tolist()) <= {expected_slices}
    assert set(report.execution_times_ms[handed].tolist()) <= {expected_slices * cost}
    assert not report.slices[~handed].any()


@given(lb_instances())
@settings(max_examples=100, deadline=None)
def test_determinism_repeated_runs(instance):
    channels, arrivals, demand, quantum = instance
    topology = topo(*channels)
    calls = workload_of(arrivals, demand)
    params = LbParams(quantum_override_ms=quantum)
    first = simulate_load_balanced(topology, calls, params)
    second = simulate_load_balanced(topology, calls, params)
    assert first == second
    assert repr(first) == repr(second)


@given(
    home=st.integers(min_value=0, max_value=3),
    n_neighbors=st.integers(min_value=2, max_value=4),
    n_calls=st.integers(min_value=1, max_value=25),
    quantum=st.sampled_from(QUANTA),
    multiplier=st.sampled_from(MULTIPLIERS),
)
@settings(max_examples=150, deadline=None)
def test_fairness_under_ample_capacity(home, n_neighbors, n_calls, quantum, multiplier):
    """Every neighbor keeps a free channel throughout, so strict alternation
    spreads handled counts within one of each other."""
    channels = (home,) + (n_calls,) * n_neighbors
    topology = topo(*channels)
    calls = workload_of(range(1, n_calls + 1), multiplier * quantum)
    report = simulate_load_balanced(
        topology, calls, LbParams(quantum_override_ms=quantum)
    )
    assert report.blocked == 0
    handled = [report.per_bsc_handled[b] for b in range(1, n_neighbors + 1)]
    assert max(handled) - min(handled) <= 1


@given(lb_instances())
@settings(max_examples=100, deadline=None)
def test_computed_quantum_instances(instance):
    """Same invariants with the quantum derived from the queue itself."""
    channels, arrivals, demand, _ = instance
    topology = topo(*channels)
    calls = workload_of(arrivals, demand)
    report = simulate_load_balanced(topology, calls)
    n = len(calls)
    assert report.accepted_home + report.handed_over + report.blocked == n
    overflow = max(0, n - channels[0])
    assert report.handed_over + report.blocked == overflow
    if overflow:
        queued = arrivals[channels[0]:]
        assert report.quantum_ms == (sum(queued) / len(queued)) / len(queued)
