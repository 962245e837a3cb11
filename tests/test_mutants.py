"""The correctness checks catch a wrong engine.

Each mutant replaces one piece of `engine` with a plausible mistake and
names the check that must find it on a fixed, seed-free instance set:

- walk_flowchart: the load-balanced outcomes equal the literal walker's;
- closed form: each system's blocking is exact in n and the pools, and its
  total is the left-to-right sum of what its clock charges;
- conservation: every call has one outcome and no pool is over-assigned,
  whether the report's own check or this test finds the breach.

The unmutated engine passes every check, so a check that fires under a
mutant fired because of it.
"""

import math

import numpy as np
import pytest
from helpers import sequential_sum, workload_of
from oracles import report_outcomes, walk_flowchart

from cellbalance import engine
from cellbalance.engine import LbParams, simulate_load_balanced, simulate_normal
from cellbalance.topology import NetworkTopology

# (pools, arrivals, demands, quantum override or None for the computed one)
INSTANCES = (
    # 0.4 - 0.1 four times leaves 2.8e-17, so a call takes 5 passes, not
    # ceil(0.4 / 0.1) = 4; equal demands tie in every pass
    ((1, 2, 2), [1.0, 2.0, 3.0, 4.0, 5.0], [0.4] * 5, 0.1),
    # unequal neighbors: the second runs dry first and must be skipped
    ((1, 1, 3), [1.0, 2.0, 3.0, 4.0, 5.0], [0.4] * 5, 0.1),
    # the neighbors run dry while calls still queue; the computed quantum
    ((1, 1, 1), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.3, 0.7, 0.3, 1.1, 0.7, 0.3], None),
    # eleven home calls whose pairwise sum rounds away from the loop's
    ((11, 1, 1), [0.1, 0.2, 0.3, 0.7, 1.1, 1.3, 1.7, 1.9, 2.3, 2.9, 3.1], [0.4] * 11, None),
)


def findings() -> set[str]:
    """The checks that find a fault on some instance."""
    found = set()
    for pools, arrivals, demands, override in INSTANCES:
        params = LbParams(quantum_override_ms=override)
        topology, calls = NetworkTopology(bsc_channels=pools), workload_of(arrivals, demands)
        try:
            ns = simulate_normal(topology, calls, params)
            lb = simulate_load_balanced(topology, calls, params)
        except RuntimeError:  # the report's own conservation check
            found.add("conservation")
            continue
        n, home = len(arrivals), pools[0]
        queued = arrivals[home:]
        quantum = override
        if quantum is None and queued:
            quantum = sequential_sum(queued) / len(queued) / len(queued)
        expected, handover_order = walk_flowchart(
            home, pools[1:], list(enumerate(demands)), quantum
        )
        if report_outcomes(lb) != expected:
            found.add("walk_flowchart")
        for report in (ns, lb):
            if report.accepted_home + report.handed_over + report.blocked != n or any(
                report.per_bsc_handled[bsc] > pool for bsc, pool in enumerate(pools)
            ):
                found.add("conservation")
        # each clock charges arrival + waiting per call it examines at home,
        # and k slices per handover in the order the handovers finish
        charged = [t + params.waiting_ms for t in arrivals]
        slice_charge = [
            expected[call][2] * (quantum + params.context_switch_ms) for call in handover_order
        ]
        if (
            ns.blocked != n - min(n, home)
            or lb.blocked != n - min(n, sum(pools))
            or ns.total_execution_time_ms != sequential_sum(charged)
            or lb.total_execution_time_ms != sequential_sum(charged[:home] + slice_charge)
        ):
            found.add("closed form")
    return found


class NumpyWith:
    """numpy, with some of its functions replaced."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(np, name)


def unstable_argsort(values, kind=None):
    """A valid sort that puts equal values in reverse order."""
    return np.lexsort((-np.arange(len(values)), values))


rotation = engine._rotation_targets


def reversed_rotation(capacities, count):
    """Deals each round from the last pool to the first."""
    return len(capacities) - 1 - rotation(capacities[::-1], count)


def rotation_skipping_nothing(capacities, count):
    """Moves one pool on per handover, exhausted or not."""
    return np.arange(count) % len(capacities)


def over_assigning(monkeypatch):
    """Every handover to the first neighbor, with the report's own check gone."""
    monkeypatch.setattr(engine.SimulationReport, "__post_init__", lambda report: None)
    monkeypatch.setattr(engine, "_rotation_targets", lambda pools, count: np.zeros(count, int))


home_admitted = engine._home_admitted

# name: (patch applied with monkeypatch, the check that must catch it)
MUTANTS = {
    "running_sum is np.sum": (
        lambda mp: mp.setattr(engine, "running_sum",
                              lambda values, start=0.0: float(start + np.sum(values))),
        "closed form",
    ),
    "ceil slice counts": (
        lambda mp: mp.setattr(engine, "slices_to_finish", lambda d, q: math.ceil(d / q)),
        "walk_flowchart",
    ),
    "unstable argsort": (
        lambda mp: mp.setattr(engine, "np", NumpyWith(argsort=unstable_argsort)),
        "walk_flowchart",
    ),
    "reversed rotation": (
        lambda mp: mp.setattr(engine, "_rotation_targets", reversed_rotation),
        "walk_flowchart",
    ),
    "rotation skips no exhausted pool": (
        lambda mp: mp.setattr(engine, "_rotation_targets", rotation_skipping_nothing),
        "conservation",
    ),
    "home admission charges no waiting": (
        lambda mp: mp.setattr(engine, "_home_admitted",
                              lambda calls, pools, home, waiting_ms:
                              home_admitted(calls, pools, home, 0.0)),
        "closed form",
    ),
    "over-assigning engine": (over_assigning, "conservation"),
}


def test_engine_passes_every_check():
    assert findings() == set()


@pytest.mark.parametrize("name", MUTANTS)
def test_check_catches_mutant(monkeypatch, name):
    patch, check = MUTANTS[name]
    patch(monkeypatch)
    assert check in findings()
