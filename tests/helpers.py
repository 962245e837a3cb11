"""Builders and references shared by the test modules."""

from dataclasses import fields

import numpy as np

from cellbalance.traffic import Workload


def workload_of(arrivals, demands=0.4) -> Workload:
    """Calls with ids 0..n-1, arriving at `arrivals` ms (already sorted for
    the engines), each needing `demands` ms of handover work: one value for
    every call, or one per call."""
    arrival_ms = np.asarray(arrivals, dtype=float)
    n = len(arrival_ms)
    return Workload(
        ids=np.arange(n, dtype=np.int64),
        arrival_ms=arrival_ms,
        demand_ms=np.broadcast_to(np.asarray(demands, dtype=float), (n,)).copy(),
    )


def same_workload(a: Workload, b: Workload) -> bool:
    """Equal column by column, dtypes included; NaN equals NaN."""
    return all(
        np.array_equal(x, y, equal_nan=True) and x.dtype == y.dtype
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(Workload))
    )


def sequential_sum(values) -> float:
    """The left-to-right float loop that totals and means must round like."""
    total = 0.0
    for value in values:
        total += value
    return total
