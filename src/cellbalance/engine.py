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
from functools import cached_property, partial
from itertools import islice
from typing import Callable

import numpy as np

from .topology import HOME_BSC, BscId, NetworkTopology
from .traffic import CallRequest, average_arrival_range

DEFAULT_CONTEXT_SWITCH_MS = 0.1
DEFAULT_WAITING_MS = 3.0

NORMAL = "normal"
LOAD_BALANCED = "load_balanced"


class Disposition(Enum):
    ACCEPTED_HOME = "accepted_home"
    HANDED_OVER = "handed_over"
    BLOCKED = "blocked"


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
    """Counts and totals of one run.

    `records` (per-call outcomes in arrival order) is built on first read
    from what the engine kept, so summaries never pay for it. Equality and
    repr include the records.
    """

    system: str
    accepted_home: int
    handed_over: int
    blocked: int
    per_bsc_handled: dict[BscId, int]
    total_execution_time_ms: float
    empirical_blocking: float
    quantum_ms: float | None = None
    _build_records: Callable[[], list[CallRecord]] = field(
        default=list, repr=False, compare=False
    )

    @cached_property
    def records(self) -> tuple[CallRecord, ...]:
        return tuple(self._build_records())

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
    per_bsc_handled: dict[BscId, int]


def compute_quantum(avg_arrival_range_ms: float, ready_queue_size: float) -> float:
    """Optimum round-robin quantum: mean arrival time of the queued calls
    divided by the ready-queue size."""
    if avg_arrival_range_ms <= 0:
        raise ValueError(f"avg_arrival_range_ms = {avg_arrival_range_ms}, need > 0")
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
    differently. A quantum too small to change the demand once never
    changes it, so that call would never finish and is refused.
    """
    if not math.isfinite(demand_ms) or demand_ms <= 0:
        raise ValueError(f"demand {demand_ms} ms, need finite and > 0")
    if demand_ms - quantum_ms == demand_ms:
        raise ValueError(
            f"quantum_ms = {quantum_ms} is too small to reduce a demand of "
            f"{demand_ms} ms: the call would never finish"
        )
    slices = 1
    remaining = demand_ms - quantum_ms
    while remaining > 0:
        remaining -= quantum_ms
        slices += 1
    return slices


def _check_sorted(calls: tuple[CallRequest, ...]) -> None:
    for prev, cur in zip(calls, calls[1:]):
        if cur.arrival_time_ms < prev.arrival_time_ms:
            raise ValueError(
                f"calls not sorted by arrival: call {cur.id} at "
                f"{cur.arrival_time_ms} ms after call {prev.id} at {prev.arrival_time_ms} ms"
            )


def _admit_home(
    calls: tuple[CallRequest, ...], home_pool: int, waiting_ms: float
) -> tuple[int, float]:
    """Home admission of both systems: the first calls, as many as the home
    pool holds, take home channels. Returns how many did and the system
    clock charged for them (arrival + waiting), summed in arrival order."""
    home = min(len(calls), home_pool)
    total = 0.0
    for call in islice(calls, home):
        total += call.arrival_time_ms + waiting_ms
    return home, total


def _home_records(
    calls: tuple[CallRequest, ...], home: int, waiting_ms: float
) -> list[CallRecord]:
    return [
        CallRecord(
            call_id=call.id,
            disposition=Disposition.ACCEPTED_HOME,
            serving_bsc=HOME_BSC,
            execution_time_ms=call.arrival_time_ms + waiting_ms,
            slices_used=0,
        )
        for call in islice(calls, home)
    ]


def _blocked_record(call_id: int) -> CallRecord:
    return CallRecord(
        call_id=call_id,
        disposition=Disposition.BLOCKED,
        serving_bsc=None,
        execution_time_ms=0.0,
        slices_used=0,
    )


def _normal_records(
    calls: tuple[CallRequest, ...], home: int, waiting_ms: float
) -> list[CallRecord]:
    """Records in arrival order: the first `home` calls accepted at home,
    the rest blocked."""
    records = _home_records(calls, home, waiting_ms)
    records.extend(_blocked_record(call.id) for call in islice(calls, home, None))
    return records


def _lb_records(
    calls: tuple[CallRequest, ...],
    home: int,
    waiting_ms: float,
    slices: list[int],
    slice_cost: float,
    handed: list[int],
    targets: np.ndarray,
) -> list[CallRecord]:
    """Records in arrival order: the first `home` calls accepted at home;
    overflow call i (queue position) needed slices[i] passes, and the j-th
    handover went to call handed[j] on neighbor pool targets[j], BSC
    targets[j] + 1; the rest of the overflow is blocked."""
    overflow = calls[home:]
    serving: list[BscId | None] = [None] * len(overflow)
    for pos, target in zip(handed, targets.tolist()):
        serving[pos] = HOME_BSC + 1 + target
    records = _home_records(calls, home, waiting_ms)
    for call, k, bsc in zip(overflow, slices, serving):
        if bsc is None:
            records.append(_blocked_record(call.id))
        else:
            records.append(
                CallRecord(
                    call_id=call.id,
                    disposition=Disposition.HANDED_OVER,
                    serving_bsc=bsc,
                    execution_time_ms=k * slice_cost,
                    slices_used=k,
                )
            )
    return records


def _report(
    system: str,
    n_calls: int,
    pools: list[int],
    handled: list[int],
    blocked: int,
    total_execution_time_ms: float,
    quantum_ms: float | None,
    build_records: Callable[[], list[CallRecord]],
) -> SimulationReport:
    """The report of a run in which BSC b took handled[b] calls out of its
    pools[b] channels and `blocked` calls were refused.

    Raises RuntimeError, an internal fault, unless every call is counted
    once and no pool is over-assigned.
    """
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
        _build_records=build_records,
    )


def simulate_normal(
    topology: NetworkTopology,
    calls: list[CallRequest],
    waiting_ms: float = DEFAULT_WAITING_MS,
) -> SimulationReport:
    """Admission without load balancing: home channels first come, first
    served; everything past the pool is blocked.

    The system clock charges arrival + waiting for every examined request;
    blocked requests spend that time too before rejection, but their
    records carry zero execution time since they received no service.
    """
    calls = tuple(calls)
    _check_sorted(calls)
    pools = [b.free_channels for b in topology.bscs]
    home, total = _admit_home(calls, pools[HOME_BSC], waiting_ms)
    for call in islice(calls, home, None):
        total += call.arrival_time_ms + waiting_ms
    return _report(
        NORMAL, len(calls), pools, [home] + [0] * (len(pools) - 1), len(calls) - home,
        total, None, partial(_normal_records, calls, home, waiting_ms),
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
    calls: list[CallRequest],
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
    calls = tuple(calls)
    _check_sorted(calls)
    pools = [b.free_channels for b in topology.bscs]
    home, total = _admit_home(calls, pools[HOME_BSC], params.waiting_ms)
    overflow = calls[home:]
    if not overflow:
        return _report(
            LOAD_BALANCED, len(calls), pools, [home] + [0] * (len(pools) - 1), 0,
            total, None, partial(_normal_records, calls, home, params.waiting_ms),
        )

    if params.quantum_override_ms is not None:
        quantum = params.quantum_override_ms
    else:
        quantum = compute_quantum(average_arrival_range(overflow), float(len(overflow)))
    slice_cost = slice_execution_time(quantum, params.context_switch_ms)

    slices_by_demand: dict[float, int] = {}
    slices = []
    for call in overflow:
        k = slices_by_demand.get(call.demand_ms)
        if k is None:
            k = slices_by_demand[call.demand_ms] = slices_to_finish(call.demand_ms, quantum)
        slices.append(k)
    # sorted() is stable: calls finishing in the same pass keep queue order
    finish_order = sorted(range(len(overflow)), key=slices.__getitem__)

    capacities = pools[HOME_BSC + 1:]
    handed = finish_order[: min(len(overflow), sum(capacities))]
    targets = _rotation_targets(capacities, len(handed))
    for pos in handed:
        total += slices[pos] * slice_cost

    return _report(
        LOAD_BALANCED, len(calls), pools,
        [home] + np.bincount(targets, minlength=len(capacities)).tolist(),
        len(overflow) - len(handed), total, quantum,
        partial(
            _lb_records, calls, home, params.waiting_ms,
            slices, slice_cost, handed, targets,
        ),
    )


def compare_systems(
    topology: NetworkTopology,
    calls: list[CallRequest],
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
        per_bsc_handled=dict(lb.per_bsc_handled),
    )
