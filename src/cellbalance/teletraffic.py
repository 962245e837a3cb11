"""Analytical blocking math and the blocking-vs-load sweep.

The Erlang B evaluator uses the standard recurrence instead of literal
factorials, which overflow past ~170 channels; the two are algebraically
identical and the test suite holds them to 1e-12 of each other.
"""

import math
from dataclasses import dataclass

from .engine import simulate_load_balanced, simulate_normal
from .topology import NetworkTopology
from .traffic import WorkloadParams, generate_workload


@dataclass(frozen=True)
class OfferedLoad:
    """Traffic offered to a channel group, in erlangs."""

    erlangs: float

    def __post_init__(self) -> None:
        if not 0 <= self.erlangs < math.inf:
            raise ValueError(f"offered load = {self.erlangs} erlangs, need finite and >= 0")

    @classmethod
    def from_rates(cls, lambda_per_s: float, mu_per_s: float) -> "OfferedLoad":
        """Offered load as arrival rate over departure rate."""
        if not 0 < mu_per_s < math.inf:
            raise ValueError(f"mu_per_s = {mu_per_s}, need finite and > 0")
        if not 0 <= lambda_per_s < math.inf:
            raise ValueError(f"lambda_per_s = {lambda_per_s}, need finite and >= 0")
        return cls(lambda_per_s / mu_per_s)


@dataclass(frozen=True)
class BlockingCurvePoint:
    n_calls: int
    ns_blocking: float
    lb_blocking: float


def erlang_b(a: OfferedLoad, n_channels: int) -> float:
    """Blocking probability of an n-channel loss system offered a erlangs.

    Recurrence: E(0) = 1, E(k) = A*E(k-1) / (k + A*E(k-1)). The load is
    finite, so once E(k) underflows to 0.0 every later step is 0.0 too and
    the loop stops; until then it takes one step per channel.
    """
    if n_channels < 0:
        raise ValueError(f"n_channels = {n_channels}, need >= 0")
    load = a.erlangs
    prob = 1.0
    for k in range(1, n_channels + 1):
        prob = load * prob / (k + load * prob)
        if prob == 0.0:
            break
    return prob


def blocking_sweep(
    topology: NetworkTopology, load_levels: list[int], seed: int
) -> list[BlockingCurvePoint]:
    """Run both systems at each load level, every one drawn from `seed` as
    given with the default window, demand and load-balancing params, and
    record empirical blocking. Admission never reads arrivals, so blocking
    depends only on the level and the pools."""
    previous = None
    for n in load_levels:
        if n < 0:
            raise ValueError(f"load level {n} is negative")
        if previous is not None and n < previous:
            raise ValueError(f"load levels must ascend: {n} after {previous}")
        previous = n

    points = []
    for n in load_levels:
        calls = generate_workload(WorkloadParams(n_calls=n, seed=seed))
        ns = simulate_normal(topology, calls)
        lb = simulate_load_balanced(topology, calls)
        points.append(
            BlockingCurvePoint(
                n_calls=n,
                ns_blocking=ns.empirical_blocking,
                lb_blocking=lb.empirical_blocking,
            )
        )
    return points


def format_blocking_csv(points: list[BlockingCurvePoint]) -> str:
    """Curve as CSV, probabilities with six fractional digits."""
    lines = ["n_calls,ns_blocking,lb_blocking"]
    for p in points:
        lines.append(f"{p.n_calls},{p.ns_blocking:.6f},{p.lb_blocking:.6f}")
    return "\n".join(lines) + "\n"
