"""Analytical blocking math and the blocking-vs-load sweep.

The Erlang B evaluator uses the standard recurrence instead of literal
factorials, which overflow past ~170 channels; the two are algebraically
identical and the test suite holds them to 1e-12 of each other.
"""

import math
from dataclasses import dataclass

import numpy as np

from .engine import LbParams, simulate_load_balanced, simulate_normal
from .topology import NetworkTopology
from .traffic import (
    DEFAULT_ARRIVAL_WINDOW_MS,
    DEFAULT_DEMAND_MS,
    WorkloadParams,
    generate_workload,
)


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


def derive_level_seed(base_seed: int, level_index: int) -> int:
    """Stable per-level workload seed so sweep points are independent yet
    reproducible from one base seed."""
    state = np.random.SeedSequence([base_seed % 2**64, level_index]).generate_state(
        2, np.uint32
    )
    return int(state[0]) << 32 | int(state[1])


def blocking_sweep(
    topology: NetworkTopology,
    load_levels: list[int],
    seed: int,
    lb_params: LbParams = LbParams(),
    arrival_window_ms: float = DEFAULT_ARRIVAL_WINDOW_MS,
    demand_ms: float = DEFAULT_DEMAND_MS,
) -> list[BlockingCurvePoint]:
    """Run both systems at each load level and record empirical blocking."""
    previous = None
    for n in load_levels:
        if n < 0:
            raise ValueError(f"load level {n} is negative")
        if previous is not None and n < previous:
            raise ValueError(f"load levels must ascend: {n} after {previous}")
        previous = n

    points = []
    for index, n in enumerate(load_levels):
        params = WorkloadParams(
            n_calls=n,
            seed=derive_level_seed(seed, index),
            arrival_window_ms=arrival_window_ms,
            demand_ms=demand_ms,
        )
        calls = generate_workload(params, topology)
        ns = simulate_normal(topology, calls, waiting_ms=lb_params.waiting_ms)
        lb = simulate_load_balanced(topology, calls, lb_params)
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
