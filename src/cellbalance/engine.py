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

A Workload holds only calls the engines can run, so they check none, and
a SimulationReport refuses a total or quantum that overflows a float.
"""

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .topology import FLOAT_MAX, HOME_BSC, BscId, LbParams, NetworkTopology, check_setting, shown
from .traffic import CHUNK, Workload, running_sum

NORMAL = "normal"
LOAD_BALANCED = "load_balanced"

NO_BSC = -1  # serving BSC of a blocked call in a report's per-call column


def _signed_dtype(largest: int) -> np.dtype:
    """The narrowest signed integer that holds every value from -1 to
    `largest`: int8 up to 127."""
    return np.min_scalar_type(-largest - 1)


def disposition(serving_bsc: BscId) -> str:
    """What a report writer prints for a call by its serving BSC in a report
    column: accepted_home, handed_over or blocked."""
    if serving_bsc == NO_BSC:
        return "blocked"
    return "accepted_home" if serving_bsc == HOME_BSC else "handed_over"


@dataclass(frozen=True)
class CallRecord:
    """Outcome of one call, built by SimulationReport.records, which is kept
    only for the benchmark's traced reader; everything else reads the
    report's columns. Blocked calls carry zero time and zero slices even if
    they sat in the ready queue for a while before draining."""

    call_id: int
    disposition: str
    serving_bsc: BscId | None
    execution_time_ms: float
    slices_used: int


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """One run: its totals and its per-call columns in arrival order: call
    id, serving BSC (NO_BSC when blocked), execution time and round-robin
    slices. The columns are the run's only record of outcomes; every count
    is read from the serving-BSC column. The engines write that column in
    the narrowest signed integer that holds NO_BSC and every pool index
    (int8 up to 128 BSCs, int16 beyond), and the slices column in the
    narrowest that holds the run's largest count (int8 up to 127 passes,
    and for the normal system's zeros).

    Raises ValueError, a run its input overflows, unless the total and the
    quantum are finite, and so every time. Raises RuntimeError, an internal
    fault, unless the columns have one length, every serving BSC is NO_BSC
    or the index of a pool, and no pool is over-assigned. Two reports are
    equal when their scalar fields are and their columns hold equal values.
    """

    system: str
    bsc_channels: tuple[int, ...]
    total_execution_time_ms: float
    quantum_ms: float | None
    call_ids: np.ndarray = field(repr=False)
    serving_bscs: np.ndarray = field(repr=False)
    execution_times_ms: np.ndarray = field(repr=False)
    slices: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.total_execution_time_ms):
            raise ValueError(
                f"{self.system} run: total execution time "
                f"{self.total_execution_time_ms} ms overflows a float"
            )
        if not math.isfinite(self.quantum_ms or 0.0):
            raise ValueError(f"{self.system} run: quantum {self.quantum_ms} ms overflows a float")
        columns = (self.call_ids, self.serving_bscs, self.execution_times_ms, self.slices)
        lengths = sorted({len(column) for column in columns})
        codes, pools = self.serving_bscs, list(self.bsc_channels)
        # codes first: bincount raises ValueError on a bad one, which main maps to exit 2
        if (
            len(lengths) > 1
            or codes.min(initial=NO_BSC) < NO_BSC
            or codes.max(initial=NO_BSC) >= len(pools)
            or any(used > pool for used, pool in zip(self.per_bsc_handled.values(), pools))
        ):
            served = dict(zip(*(a.tolist() for a in np.unique(codes, return_counts=True))))
            raise RuntimeError(
                f"{self.system} report breaks conservation: columns of lengths {lengths}, "
                f"calls per serving BSC {served}, pools {pools}"
            )

    @cached_property
    def per_bsc_handled(self) -> dict[BscId, int]:
        # a chunk at a time: bincount casts the codes to intp, 8 B a call
        handled = np.zeros(len(self.bsc_channels), dtype=np.int64)
        for begin in range(0, len(self.serving_bscs), CHUNK):
            codes = self.serving_bscs[begin:begin + CHUNK]
            handled += np.bincount(codes[codes != NO_BSC], minlength=len(handled))
        return dict(enumerate(handled.tolist()))

    @property
    def accepted_home(self) -> int:
        return self.per_bsc_handled[HOME_BSC]

    @property
    def handed_over(self) -> int:
        return sum(self.per_bsc_handled.values()) - self.accepted_home

    @property
    def blocked(self) -> int:
        return len(self.call_ids) - sum(self.per_bsc_handled.values())

    @property
    def empirical_blocking(self) -> float:
        n_calls = len(self.call_ids)
        return self.blocked / n_calls if n_calls else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationReport):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @cached_property
    def records(self) -> tuple[CallRecord, ...]:
        """The columns as one CallRecord per call, for the benchmark's traced
        reader only."""
        columns = (self.call_ids, self.serving_bscs, self.execution_times_ms, self.slices)
        return tuple(
            CallRecord(
                call_id=call_id,
                disposition=disposition(bsc),
                serving_bsc=None if bsc == NO_BSC else bsc,
                execution_time_ms=time_ms,
                slices_used=k,
            )
            for call_id, bsc, time_ms, k in zip(*(column.tolist() for column in columns))
        )


@dataclass(frozen=True)
class ComparisonReport:
    normal: SimulationReport
    load_balanced: SimulationReport

    @property
    def blocking_delta_pp(self) -> float:
        return (self.normal.empirical_blocking - self.load_balanced.empirical_blocking) * 100.0

    @property
    def execution_time_delta_ms(self) -> float:
        return self.normal.total_execution_time_ms - self.load_balanced.total_execution_time_ms


class UndefinedQuantum(ValueError):
    """The queued calls' mean arrival time is not above 0 ms, or is a
    number (NaN, an int past the largest float) that gives no float
    quantum: one has to be set."""

    def __init__(self, avg_arrival_range_ms: float):
        super().__init__(
            f"avg_arrival_range_ms = {shown(avg_arrival_range_ms)}, "
            "need > 0 and convertible to a float"
        )
        self.avg_arrival_range_ms = avg_arrival_range_ms


def compute_quantum(avg_arrival_range_ms: float, ready_queue_size: float) -> float:
    """Optimum round-robin quantum: mean arrival time of the queued calls
    divided by the ready-queue size. An infinite mean gives an infinite
    quantum, which the report refuses."""
    if not 0 < avg_arrival_range_ms <= FLOAT_MAX and avg_arrival_range_ms != math.inf:
        raise UndefinedQuantum(avg_arrival_range_ms)
    check_setting("ready_queue_size", ready_queue_size, positive=True)
    return avg_arrival_range_ms / ready_queue_size


def slice_execution_time(quantum_ms: float, context_switch_ms: float) -> float:
    """Cost of one round-robin pass: the quantum plus the fixed switch overhead."""
    return quantum_ms + context_switch_ms


def slices_to_finish(demand_ms: float, quantum_ms: float) -> int:
    """Round-robin passes a call of this demand, finite and > 0 as every
    Workload's is, takes to finish.

    Counts the passes of subtracting the quantum until nothing is left, the
    float operations a queued call goes through; ceil(demand / quantum)
    rounds differently. The remaining demand never grows, so a pass that
    leaves it unchanged repeats forever: that call would never finish and is
    refused.

    The count takes O(binades), not one step per pass. While the remaining
    demand r stays in its binade [2^e, 2^(e+1)), r - q rounds on one evenly
    spaced grid, so once a step has landed there (fixing the parity a tie
    rounds to) every later step has the same size. Steps that land above
    2^e are skipped in one division; the step that reaches 2^e is taken for
    real, since its exact result may round onto the finer grid below.
    """
    slices = 0
    remaining = demand_ms
    while remaining > 0:
        after = remaining - quantum_ms
        if after == remaining:
            raise ValueError(
                f"quantum_ms = {quantum_ms} is too small to reduce a demand of "
                f"{demand_ms} ms: the call would never finish"
            )
        slices += 1
        step = remaining - after
        edge = math.ldexp(0.5, math.frexp(remaining)[1])  # 2^e
        if after > edge and after - (after - quantum_ms) == step:
            skipped = max(int((after - edge) // step) - 1, 0)
            after -= skipped * step
            slices += skipped
        remaining = after
    return slices


@np.errstate(over="ignore")  # the report refuses a total or quantum that overflows
def simulate_normal(
    topology: NetworkTopology,
    calls: Workload,
    params: LbParams = LbParams(),
) -> SimulationReport:
    """Admission without load balancing: home channels first come, first
    served; everything past the pool is blocked.

    The system clock charges arrival + waiting for every examined request;
    blocked requests spend that time too before rejection, but their
    execution time in the report is zero since they received no service.
    """
    n = len(calls)
    home = min(n, topology.bsc_channels[HOME_BSC])
    serving, times = _home_admitted(calls, topology.bsc_channels, home, params.waiting_ms)
    total = running_sum(calls.arrival_ms[home:] + params.waiting_ms, running_sum(times[:home]))
    return SimulationReport(
        NORMAL, topology.bsc_channels, total, None, calls.ids, serving, times,
        np.zeros(n, dtype=_signed_dtype(0)),
    )


def _home_admitted(
    calls: Workload, pools: tuple[int, ...], home: int, waiting_ms: float
) -> tuple[np.ndarray, np.ndarray]:
    """The serving-BSC and execution-time columns once the first `home`
    calls are admitted at home, each charged arrival + waiting; every other
    call is blocked with zero time so far. The serving column is the
    narrowest signed integer that holds NO_BSC and every index of `pools`:
    int8 up to 128 pools."""
    serving = np.full(len(calls), NO_BSC, dtype=_signed_dtype(len(pools) - 1))
    serving[:home] = HOME_BSC
    times = np.zeros(len(calls))
    np.add(calls.arrival_ms[:home], waiting_ms, out=times[:home])
    return serving, times


def _rotation_targets(capacities: tuple[int, ...], count: int) -> np.ndarray:
    """Index into capacities of the pool taking each of the first `count`
    handovers, which must not exceed the pools' total, in the narrowest
    signed integer that holds len(capacities), the largest index once
    shifted past the home pool.

    The rotation moves one position past each pool it assigns from and
    skips exhausted ones, so it deals in rounds: one channel from every
    pool that still has one, in list order. The pools taking part change
    only at a pool's size, so the targets are filled one run of like rounds
    at a time, then the last, partial round.
    """
    targets = np.empty(count, dtype=_signed_dtype(len(capacities)))
    dealt = filled = 0  # rounds dealt, handovers assigned
    for size in sorted(set(capacities)):
        # every pool with a channel in these rounds; pools stay Python ints, of any size
        live = np.flatnonzero([pool >= size for pool in capacities])
        rounds = min(size - dealt, (count - filled) // len(live))
        end = filled + rounds * len(live)
        targets[filled:end].reshape(rounds, len(live))[:] = live
        dealt, filled = dealt + rounds, end
        if dealt < size:  # count runs out within this run of rounds
            targets[filled:] = live[:count - filled]
            break
    return targets


@np.errstate(over="ignore")  # the report refuses a total or quantum that overflows
def simulate_load_balanced(
    topology: NetworkTopology,
    calls: Workload,
    params: LbParams = LbParams(),
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
    pools = topology.bsc_channels
    capacities = pools[HOME_BSC + 1:]
    n = len(calls)
    home = min(n, pools[HOME_BSC])
    serving, times = _home_admitted(calls, pools, home, params.waiting_ms)
    total = running_sum(times[:home])  # the system clock: home calls in arrival order
    quantum = None
    needed = []  # passes each distinct queued demand takes
    if home < n:
        if params.quantum_override_ms is not None:
            quantum = params.quantum_override_ms
        else:
            quantum = compute_quantum(running_sum(calls.arrival_ms[home:]) / (n - home), float(n - home))
        queued = calls.demand_ms[home:]
        # with counts np.unique sorts; without, it hashes, which imports numpy.ma
        demands = np.unique(queued, return_counts=True)[0]
        needed = [slices_to_finish(d, quantum) for d in demands.tolist()]
    # in the column's own dtype, so that np.take below writes without a cast
    needed = np.array(needed, dtype=_signed_dtype(max(needed, default=0)))
    slices = np.zeros(n, dtype=needed.dtype)
    if home < n:
        # each queued call's passes, in the report's column, looked up a
        # chunk at a time; blocked calls' are zeroed below
        queue_slices = slices[home:]
        for begin in range(0, n - home, CHUNK):
            part = slice(begin, begin + CHUNK)
            np.take(needed, np.searchsorted(demands, queued[part]), out=queue_slices[part])
        # stable: calls finishing in the same pass keep queue order
        order = np.argsort(queue_slices, kind="stable")
        capacity = sum(capacities)
        queue_slices[order[capacity:]] = 0
        served = order[:capacity]  # queue positions of the handed-over calls, as they finish
        targets = _rotation_targets(capacities, len(served))
        targets += HOME_BSC + 1
        serving[home:][served] = targets
        del targets  # before the mask below is built
        # only handed-over calls: a blocked one keeps +0.0 even if a slice costs inf
        queue_times = times[home:]
        slice_time = slice_execution_time(quantum, params.context_switch_ms)
        np.multiply(queue_slices, slice_time, out=queue_times, where=queue_slices > 0)
        # then the handovers as they finish, gathered a chunk at a time: the
        # sum runs left to right, so chunking it changes no bit
        for begin in range(0, len(served), CHUNK):
            total = running_sum(queue_times[served[begin:begin + CHUNK]], start=total)
        del order, served  # freed before the report's own check allocates

    return SimulationReport(LOAD_BALANCED, pools, total, quantum, calls.ids, serving, times, slices)


def compare_systems(
    topology: NetworkTopology,
    calls: Workload,
    params: LbParams = LbParams(),
) -> ComparisonReport:
    """Run both systems on the identical workload and report the deltas."""
    ns = simulate_normal(topology, calls, params)
    lb = simulate_load_balanced(topology, calls, params)
    return ComparisonReport(ns, lb)
