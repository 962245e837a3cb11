"""The two admission systems under comparison.

Normal system: serve arrivals from the home controller's pool, block the
rest outright. Each examined request costs arrival time plus a fixed
waiting time on the system clock, whether it ends up served or rejected.

Load-balanced system: identical home admission, but overloaded requests
enter a round-robin ready queue. Each pass grants the head call one
quantum of handover processing; unfinished calls re-enqueue at the tail,
finished ones take a channel on the next neighbor controller in rotation.
When the neighbor pools run dry, whatever is still queued is blocked.

The queue is never simulated pass by pass: a call that needs k passes
finishes in pass k, and within a pass calls finish in queue order, so
calls complete in stable order of (k, queue position). The first ones,
up to the neighbors' pooled capacity, are handed over and the rest are
blocked. The rotation hands out one channel per neighbor with a channel
left, round after round, whatever the calls are.
"""

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property

import numpy as np

from .topology import HOME_BSC, BscId, NetworkTopology
from .traffic import Workload, average_arrival_range, running_sum

DEFAULT_CONTEXT_SWITCH_MS = 0.1
DEFAULT_WAITING_MS = 3.0

NORMAL = "normal"
LOAD_BALANCED = "load_balanced"

NO_BSC = -1  # serving BSC of a blocked call in a report's per-call column


class Disposition(Enum):
    ACCEPTED_HOME = "accepted_home"
    HANDED_OVER = "handed_over"
    BLOCKED = "blocked"

    @classmethod
    def of(cls, serving_bsc: BscId) -> "Disposition":
        """The disposition of a call by its serving BSC in a report column."""
        if serving_bsc == NO_BSC:
            return cls.BLOCKED
        return cls.ACCEPTED_HOME if serving_bsc == HOME_BSC else cls.HANDED_OVER


@dataclass(frozen=True)
class CallRecord:
    """Outcome of one call. Blocked calls carry zero time and zero slices
    even if they sat in the ready queue for a while before draining."""

    call_id: int
    disposition: Disposition
    serving_bsc: BscId | None
    execution_time_ms: float
    slices_used: int


@dataclass(frozen=True)
class LbParams:
    context_switch_ms: float = DEFAULT_CONTEXT_SWITCH_MS
    waiting_ms: float = DEFAULT_WAITING_MS
    quantum_override_ms: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.context_switch_ms < math.inf:
            raise ValueError(
                f"context_switch_ms = {self.context_switch_ms}, need finite and >= 0"
            )
        if not 0 <= self.waiting_ms < math.inf:
            raise ValueError(f"waiting_ms = {self.waiting_ms}, need finite and >= 0")
        if self.quantum_override_ms is not None and not 0 < self.quantum_override_ms < math.inf:
            raise ValueError(
                f"quantum_override_ms = {self.quantum_override_ms}, need finite and > 0"
            )


@dataclass(frozen=True)
class SimulationReport:
    """Counts and totals of one run, and its per-call columns in arrival
    order: call id, serving BSC (NO_BSC when blocked), execution time and
    round-robin slices.

    `records` (per-call outcomes) is built from the columns on first read,
    so summaries never pay for it. Equality and repr include the records.
    """

    system: str
    accepted_home: int
    handed_over: int
    blocked: int
    per_bsc_handled: dict[BscId, int]
    total_execution_time_ms: float
    empirical_blocking: float
    quantum_ms: float | None
    call_ids: np.ndarray = field(repr=False, compare=False)
    serving_bscs: np.ndarray = field(repr=False, compare=False)
    execution_times_ms: np.ndarray = field(repr=False, compare=False)
    slices: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def records(self) -> tuple[CallRecord, ...]:
        columns = (self.call_ids, self.serving_bscs, self.execution_times_ms, self.slices)
        return tuple(
            CallRecord(
                call_id=call_id,
                disposition=Disposition.of(bsc),
                serving_bsc=None if bsc == NO_BSC else bsc,
                execution_time_ms=time_ms,
                slices_used=k,
            )
            for call_id, bsc, time_ms, k in zip(*(column.tolist() for column in columns))
        )

    def _compared(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        return {**values, "records": self.records}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationReport):
            return NotImplemented
        return self._compared() == other._compared()

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in self._compared().items())
        return f"SimulationReport({inner})"


@dataclass(frozen=True)
class ComparisonReport:
    normal: SimulationReport
    load_balanced: SimulationReport
    blocking_delta_pp: float
    execution_time_delta_ms: float


class UndefinedQuantum(ValueError):
    """The queued calls' mean arrival time is not above 0 ms, so the
    quantum formula gives no quantum: one has to be set."""

    def __init__(self, avg_arrival_range_ms: float):
        super().__init__(f"avg_arrival_range_ms = {avg_arrival_range_ms}, need > 0")
        self.avg_arrival_range_ms = avg_arrival_range_ms


def compute_quantum(avg_arrival_range_ms: float, ready_queue_size: float) -> float:
    """Optimum round-robin quantum: mean arrival time of the queued calls
    divided by the ready-queue size."""
    if avg_arrival_range_ms <= 0:
        raise UndefinedQuantum(avg_arrival_range_ms)
    if ready_queue_size <= 0:
        raise ValueError(f"ready_queue_size = {ready_queue_size}, need > 0")
    return avg_arrival_range_ms / ready_queue_size


def slice_execution_time(quantum_ms: float, context_switch_ms: float) -> float:
    """Cost of one round-robin pass: the quantum plus the fixed switch overhead."""
    return quantum_ms + context_switch_ms


def slices_to_finish(demand_ms: float, quantum_ms: float) -> int:
    """Round-robin passes a call of this demand takes to finish.

    Subtracts the quantum once per pass until nothing is left, the float
    operations a queued call goes through; ceil(demand / quantum) rounds
    differently. The remaining demand never grows, so a pass that leaves it
    unchanged repeats forever: that call would never finish and is refused.
    """
    if not math.isfinite(demand_ms) or demand_ms <= 0:
        raise ValueError(f"demand {demand_ms} ms, need finite and > 0")
    slices = 0
    remaining = demand_ms
    while remaining > 0:
        if remaining - quantum_ms == remaining:
            raise ValueError(
                f"quantum_ms = {quantum_ms} is too small to reduce a demand of "
                f"{demand_ms} ms: the call would never finish"
            )
        remaining -= quantum_ms
        slices += 1
    return slices


def _check_sorted(calls: Workload) -> None:
    arrivals = calls.arrival_ms
    late = np.flatnonzero(arrivals[1:] < arrivals[:-1])
    if late.size:
        prev, cur = late[0], late[0] + 1
        raise ValueError(
            f"calls not sorted by arrival: call {calls.ids[cur]} at "
            f"{arrivals[cur]} ms after call {calls.ids[prev]} at {arrivals[prev]} ms"
        )


def _report(
    system: str,
    pools: list[int],
    handled: list[int],
    blocked: int,
    total_execution_time_ms: float,
    quantum_ms: float | None,
    call_ids: np.ndarray,
    serving_bscs: np.ndarray,
    execution_times_ms: np.ndarray,
    slices: np.ndarray,
) -> SimulationReport:
    """The report of a run in which BSC b took handled[b] calls out of its
    pools[b] channels and `blocked` calls were refused; the columns hold
    each call's outcome in arrival order.

    Raises RuntimeError, an internal fault, unless every call is counted
    once and no pool is over-assigned.
    """
    n_calls = len(call_ids)
    accepted_home = handled[HOME_BSC]
    handed_over = sum(handled) - accepted_home
    if (
        accepted_home + handed_over + blocked != n_calls
        or blocked < 0
        or len(handled) != len(pools)
        or not all(0 <= used <= pool for used, pool in zip(handled, pools))
    ):
        raise RuntimeError(
            f"{system} report breaks conservation: BSCs handled {handled} "
            f"of pools {pools} and blocked {blocked}, for {n_calls} calls"
        )
    return SimulationReport(
        system=system,
        accepted_home=accepted_home,
        handed_over=handed_over,
        blocked=blocked,
        per_bsc_handled=dict(enumerate(handled)),
        total_execution_time_ms=total_execution_time_ms,
        empirical_blocking=blocked / n_calls if n_calls else 0.0,
        quantum_ms=quantum_ms,
        call_ids=call_ids,
        serving_bscs=serving_bscs,
        execution_times_ms=execution_times_ms,
        slices=slices,
    )


def simulate_normal(
    topology: NetworkTopology,
    calls: Workload,
    waiting_ms: float = DEFAULT_WAITING_MS,
) -> SimulationReport:
    """Admission without load balancing: home channels first come, first
    served; everything past the pool is blocked.

    The system clock charges arrival + waiting for every examined request;
    blocked requests spend that time too before rejection, but their
    records carry zero execution time since they received no service.
    """
    _check_sorted(calls)
    pools = list(topology.bsc_channels)
    n = len(calls)
    home = min(n, pools[HOME_BSC])
    charged = calls.arrival_ms + waiting_ms
    accepted = np.arange(n) < home
    return _report(
        NORMAL, pools, [home] + [0] * (len(pools) - 1), n - home, running_sum(charged), None,
        calls.ids, np.where(accepted, HOME_BSC, NO_BSC), np.where(accepted, charged, 0.0),
        np.zeros(n, dtype=np.int64),
    )


def _rotation_targets(capacities: list[int], count: int) -> np.ndarray:
    """Index into capacities of the pool taking each of the first `count`
    handovers, which must not exceed the pools' total.

    The rotation moves one position past each pool it assigns from and
    skips exhausted ones, so it deals in rounds: one channel from every
    pool that still has one, in list order.
    """
    pools = np.asarray(capacities)
    rounds = min(int(pools.max(initial=0)), count)
    has_channel = np.arange(rounds)[:, None] < pools  # [round, pool]
    return np.nonzero(has_channel)[1][:count]


def simulate_load_balanced(
    topology: NetworkTopology,
    calls: Workload,
    params: LbParams | None = None,
) -> SimulationReport:
    """Admission with round-robin handover of the overload to neighbor BSCs.

    Home admission is identical to the normal system. Overflow calls form
    the ready queue in arrival order; the quantum comes from the queued
    calls' mean arrival time over the queue size unless overridden. Each
    pass costs one quantum plus the context switch; a call that finishes
    its demand takes a channel on the next neighbor in rotation (skipping
    exhausted pools, advancing one position per assignment). Once no
    neighbor has a channel left, the rest of the queue is blocked.
    """
    if params is None:
        params = LbParams()
    _check_sorted(calls)
    pools = list(topology.bsc_channels)
    capacities = pools[HOME_BSC + 1:]
    n = len(calls)
    home = min(n, pools[HOME_BSC])
    serving = np.where(np.arange(n) < home, HOME_BSC, NO_BSC)
    times = np.where(serving == HOME_BSC, calls.arrival_ms + params.waiting_ms, 0.0)
    slices = np.zeros(n, dtype=np.int64)
    handled = [home] + [0] * len(capacities)
    served = np.zeros(0, dtype=np.int64)  # handed-over calls, in the order they finish
    quantum = None
    if home < n:
        if params.quantum_override_ms is not None:
            quantum = params.quantum_override_ms
        else:
            quantum = compute_quantum(average_arrival_range(calls.arrival_ms[home:]), float(n - home))
        demands, demand_index = np.unique(calls.demand_ms[home:], return_inverse=True)
        needed = np.array([slices_to_finish(d, quantum) for d in demands.tolist()], dtype=np.int64)
        queue_slices = needed[demand_index]
        # stable: calls finishing in the same pass keep queue order
        handed = np.argsort(queue_slices, kind="stable")[: sum(capacities)]
        targets = _rotation_targets(capacities, len(handed))
        served = home + handed
        serving[served] = HOME_BSC + 1 + targets
        slices[served] = queue_slices[handed]
        times[served] = slices[served] * slice_execution_time(quantum, params.context_switch_ms)
        handled[HOME_BSC + 1:] = np.bincount(targets, minlength=len(capacities)).tolist()

    # the system clock: home calls in arrival order, then handovers as they finish
    total = running_sum(times[served], start=running_sum(times[:home]))
    return _report(
        LOAD_BALANCED, pools, handled, n - home - len(served), total, quantum,
        calls.ids, serving, times, slices,
    )


def compare_systems(
    topology: NetworkTopology,
    calls: Workload,
    params: LbParams | None = None,
) -> ComparisonReport:
    """Run both systems on the identical workload and report the deltas."""
    if params is None:
        params = LbParams()
    ns = simulate_normal(topology, calls, waiting_ms=params.waiting_ms)
    lb = simulate_load_balanced(topology, calls, params)
    return ComparisonReport(
        normal=ns,
        load_balanced=lb,
        blocking_delta_pp=(ns.empirical_blocking - lb.empirical_blocking) * 100.0,
        execution_time_delta_ms=ns.total_execution_time_ms - lb.total_execution_time_ms,
    )
