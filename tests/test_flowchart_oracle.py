"""Engine versus a literal state-by-state walk of the admission flow.

The walker in oracles.py shares no code with the engine; on every small
instance both must report identical dispositions, serving BSCs, and slice
counts.
"""

from helpers import sequential_sum, workload_of
from hypothesis import example, given, settings, strategies as st
from oracles import oracle_instances, report_outcomes, walk_flowchart

from cellbalance.engine import LbParams, simulate_load_balanced
from cellbalance.topology import NetworkTopology


def as_requests(calls):
    """Call ids 0..n-1 arriving at 1..n ms, as oracle_instances numbers them."""
    return workload_of([cid + 1 for cid, _ in calls], [demand for _, demand in calls])


def walker_outcomes(channels, calls, quantum):
    return walk_flowchart(channels[0], channels[1:], calls, quantum)[0]


def test_engine_matches_walker_exhaustively():
    checked = 0
    for channels, calls, quantum in oracle_instances():
        topology = NetworkTopology(bsc_channels=channels)
        report = simulate_load_balanced(
            topology, as_requests(calls), LbParams(quantum_override_ms=quantum)
        )
        expected = walker_outcomes(channels, calls, quantum)
        assert report_outcomes(report) == expected, (
            f"divergence on channels={channels}, calls={calls}"
        )
        checked += 1
    assert checked >= 500


def test_engine_matches_walker_with_computed_quantum():
    """Same comparison with the quantum derived from queued arrivals."""
    checked = 0
    for home in range(3):
        for n1 in range(3):
            for n2 in range(3):
                channels = (home, n1, n2)
                topology = NetworkTopology(bsc_channels=channels)
                for n in (4, 8, 12):
                    calls = [(i, 0.4) for i in range(n)]
                    queued = [float(i + 1) for i in range(home, n)]
                    quantum = (sequential_sum(queued) / len(queued)) / len(queued)
                    report = simulate_load_balanced(topology, as_requests(calls))
                    expected = walker_outcomes(channels, calls, quantum)
                    assert report_outcomes(report) == expected
                    checked += 1
    assert checked == 81


@st.composite
def float_instances(draw):
    """Random topologies and sorted arrivals, with demands drawn from a few
    arbitrary floats and either the computed quantum or an override."""
    n_bscs = draw(st.integers(min_value=2, max_value=4))
    channels = tuple(draw(st.integers(min_value=0, max_value=8)) for _ in range(n_bscs))
    n = draw(st.integers(min_value=0, max_value=24))
    arrivals = sorted(
        draw(st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=n, max_size=n))
    )
    demand_values = draw(
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=3)
    )
    demands = draw(st.lists(st.sampled_from(demand_values), min_size=n, max_size=n))
    quantum = draw(st.none() | st.floats(min_value=0.05, max_value=3.0))
    return channels, arrivals, demands, quantum


# neighbors (1 + 1 channels) run dry while five overflow calls still queue
@example(((1, 1, 1), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.3, 0.7, 0.3, 1.1, 0.7, 0.3], 0.2))
@given(float_instances())
@settings(max_examples=300, deadline=None)
def test_engine_matches_walker_on_float_demands(instance):
    channels, arrivals, demands, override = instance
    requests = workload_of(arrivals, demands)
    params = LbParams(quantum_override_ms=override)
    report = simulate_load_balanced(
        NetworkTopology(bsc_channels=channels), requests, params
    )
    home = min(len(requests), channels[0])
    queued = arrivals[home:]
    quantum = override
    if quantum is None and queued:
        quantum = (sequential_sum(queued) / len(queued)) / len(queued)
    assert report.quantum_ms == (quantum if queued else None)

    expected, handover_order = walk_flowchart(
        channels[0], channels[1:], list(enumerate(demands)), quantum
    )
    assert report_outcomes(report) == expected

    # the system clock: home calls in arrival order, then handovers as they complete
    total = 0.0
    for t in arrivals[:home]:
        total += t + params.waiting_ms
    for call_id in handover_order:
        total += expected[call_id][2] * (quantum + params.context_switch_ms)
    assert report.total_execution_time_ms == total
