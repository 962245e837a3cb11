"""Analytical blocking math and the blocking-vs-load sweep.

The Erlang B evaluator uses the standard recurrence instead of literal
factorials, which overflow past ~170 channels; the two are algebraically
identical and the test suite holds them to 1e-12 of each other.
"""

from dataclasses import dataclass

from .engine import simulate_load_balanced, simulate_normal
from .topology import MAX_CALLS, NetworkTopology, WorkloadParams, check_count, check_setting
from .traffic import generate_workload


@dataclass(frozen=True)
class OfferedLoad:
    """Traffic offered to a channel group, in erlangs."""

    erlangs: float

    def __post_init__(self) -> None:
        check_setting("erlangs", self.erlangs)

    @classmethod
    def from_rates(cls, lambda_per_s: float, mu_per_s: float) -> "OfferedLoad":
        """Offered load as arrival rate over departure rate."""
        check_setting("mu_per_s", mu_per_s, positive=True)
        check_setting("lambda_per_s", lambda_per_s)
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
    check_count("n_channels", n_channels)
    load = a.erlangs
    prob = 1.0
    for k in range(1, n_channels + 1):
        prob = load * prob / (k + load * prob)
        if prob == 0.0:
            break
    return prob


def blocking_sweep(topology: NetworkTopology, load_levels: list[int]) -> list[BlockingCurvePoint]:
    """Run both systems at each load level on a workload of the default
    params, and record empirical blocking. Admission never reads arrivals,
    so blocking depends only on the level and the pools: no seed is taken."""
    previous = None
    for n in load_levels:
        check_count("load level", n, MAX_CALLS)
        if previous is not None and n < previous:
            raise ValueError(f"load levels must ascend: {n} after {previous}")
        previous = n

    points = []
    for n in load_levels:
        calls = generate_workload(WorkloadParams(n_calls=n))
        # each report is dropped once its blocking is read: one is held at a time
        points.append(
            BlockingCurvePoint(
                n_calls=n,
                ns_blocking=simulate_normal(topology, calls).empirical_blocking,
                lb_blocking=simulate_load_balanced(topology, calls).empirical_blocking,
            )
        )
    return points


def format_blocking_csv(points: list[BlockingCurvePoint]) -> str:
    """Curve as CSV, probabilities with six fractional digits."""
    lines = ["n_calls,ns_blocking,lb_blocking"]
    for p in points:
        lines.append(f"{p.n_calls},{p.ns_blocking:.6f},{p.lb_blocking:.6f}")
    return "\n".join(lines) + "\n"
