"""Synthetic call-request workloads: seeded, sorted, replayable.

Arrivals are uniform over a fixed window and positions uniform over the
simulation square. One seed drives two independent RNG substreams (arrival
times, positions) so regenerating with the same params is bit-identical.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .topology import NetworkTopology

DEFAULT_ARRIVAL_WINDOW_MS = 2000.0
DEFAULT_DEMAND_MS = 0.4
DEFAULT_SEED = 42

WORKLOAD_HEADER = "id,arrival_ms,x_km,y_km,demand_ms"


@dataclass(frozen=True)
class CallRequest:
    """One call arrival: when it happens, where, and how much handover work."""

    id: int
    arrival_time_ms: float
    position: tuple[float, float]
    demand_ms: float


@dataclass(frozen=True)
class WorkloadParams:
    n_calls: int
    seed: int = DEFAULT_SEED
    arrival_window_ms: float = DEFAULT_ARRIVAL_WINDOW_MS
    demand_ms: float = DEFAULT_DEMAND_MS

    def __post_init__(self) -> None:
        if self.n_calls < 0:
            raise ValueError(f"n_calls = {self.n_calls}, need >= 0")
        if not 0 < self.arrival_window_ms < math.inf:
            raise ValueError(
                f"arrival_window_ms = {self.arrival_window_ms}, need finite and > 0"
            )
        if not 0 < self.demand_ms < math.inf:
            raise ValueError(f"demand_ms = {self.demand_ms}, need finite and > 0")


def generate_workload(
    params: WorkloadParams, topology: NetworkTopology
) -> list[CallRequest]:
    """Draw n_calls requests, sorted by arrival time, ids dense from 0.

    Pure function of (params, topology): the seed is split into one
    substream per concern, so arrival draws never perturb position draws.
    """
    n = params.n_calls
    if n == 0:
        return []

    # mask to 64 bits so negative seeds stay valid SeedSequence entropy
    arrival_seq, position_seq = np.random.SeedSequence(params.seed % 2**64).spawn(2)
    arrivals = np.random.default_rng(arrival_seq).uniform(
        0.0, params.arrival_window_ms, size=n
    )
    positions = np.random.default_rng(position_seq).uniform(
        0.0, topology.area_km, size=(n, 2)
    )

    order = np.argsort(arrivals, kind="stable")
    return [
        CallRequest(
            id=i,
            arrival_time_ms=float(arrivals[j]),
            position=(float(positions[j, 0]), float(positions[j, 1])),
            demand_ms=params.demand_ms,
        )
        for i, j in enumerate(order)
    ]


def average_arrival_range(calls: list[CallRequest]) -> float:
    """Arithmetic mean of the arrival timestamps, in ms.

    This is the numerator of the quantum-time formula.
    """
    if not calls:
        raise ValueError("average arrival range undefined on empty workload")
    return sum(c.arrival_time_ms for c in calls) / len(calls)


def format_workload(calls: Iterable[CallRequest]) -> str:
    """Columnar text, one call per line, floats in full round-trip precision."""
    lines = [WORKLOAD_HEADER]
    for c in calls:
        lines.append(
            f"{c.id},{c.arrival_time_ms!r},{c.position[0]!r},"
            f"{c.position[1]!r},{c.demand_ms!r}"
        )
    return "\n".join(lines) + "\n"


def export_workload(calls: Iterable[CallRequest], path: str | Path) -> None:
    """Write a workload file that import_workload reads back bit-identically."""
    Path(path).write_text(format_workload(calls))


def import_workload(path: str | Path) -> list[CallRequest]:
    """Read a workload file written by export_workload.

    Rejects, naming the line, a duplicate call id, a non-finite arrival
    time and a demand that is not finite and positive.
    """
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != WORKLOAD_HEADER:
        raise ValueError(f"{path}: missing workload header '{WORKLOAD_HEADER}'")
    calls = []
    ids = set()
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
        try:
            call = CallRequest(
                id=int(fields[0]),
                arrival_time_ms=float(fields[1]),
                position=(float(fields[2]), float(fields[3])),
                demand_ms=float(fields[4]),
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if call.id in ids:
            raise ValueError(f"{path}:{lineno}: duplicate call id {call.id}")
        if not math.isfinite(call.arrival_time_ms):
            raise ValueError(f"{path}:{lineno}: arrival_ms {call.arrival_time_ms} is not finite")
        if not math.isfinite(call.demand_ms) or call.demand_ms <= 0:
            raise ValueError(
                f"{path}:{lineno}: demand_ms {call.demand_ms}, need finite and > 0"
            )
        ids.add(call.id)
        calls.append(call)
    return calls
