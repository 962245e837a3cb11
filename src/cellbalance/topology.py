"""Every setting a run takes, and the two rules they are held to.

The network is one switching center, a home controller and its neighbors:
its channel pools, one per BSC, home first. Every BSC has CELLS_PER_BSC
cells, which only the console line and a report's params name: a cell
carries no capacity of its own. The workload and load-balancing params sit
beside the topology, each default written once, as its field's default.
Every count is held to check_count and every other number but the seed
to check_setting. This module imports no numpy.
"""

import math
import sys
from dataclasses import dataclass

# BSC identity is its position in the topology's list of channel pools.
# Index 0 is always the home (overloaded) controller.
BscId = int

HOME_BSC: BscId = 0

CELLS_PER_BSC = 7
MAX_CALLS = (2**63 - 1) // 8  # the longest 8-byte per-call column numpy allocates
FLOAT_MAX = sys.float_info.max  # a Python float, which compares with any int exactly


def shown(value: float) -> str:
    """The value as a message shows it: its str, or for an int too long for
    str (sys.get_int_max_str_digits), its size in bits."""
    try:
        return str(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


def check_setting(name: str, value: float, positive: bool = False) -> None:
    """Raise ValueError naming the setting unless 0 <= value (0 < value if
    positive) and value <= FLOAT_MAX; NaN fails both. The bound is the
    largest float, not inf: an int above it is < inf but converts to no
    float, so it would overflow deep in a run instead of being refused."""
    if not ((0 < value if positive else 0 <= value) and value <= FLOAT_MAX):
        raise ValueError(f"{name} = {shown(value)}, need finite and {'>' if positive else '>='} 0")


def check_count(name: str, value: int, most: float = math.inf) -> None:
    """Raise ValueError naming the count unless it is an integer (it has
    __index__, as numpy's integers do), >= 0 and <= most."""
    if not hasattr(value, "__index__"):
        need = "an integer"
    elif value < 0:
        need = ">= 0"
    elif value > most:
        need = f"<= {most}"
    else:
        return
    raise ValueError(f"{name} = {shown(value)}, need {need}")


@dataclass(frozen=True)
class NetworkTopology:
    """The BSCs under one switching center: one channel pool per BSC, home
    first.

    Raises ValueError on fewer than two BSCs, then on a pool that is not a
    count.
    """

    bsc_channels: tuple[int, ...] = (313, 346, 382)

    def __post_init__(self) -> None:
        if len(self.bsc_channels) < 2:
            raise ValueError(
                "at least one neighbor required: bsc_channels lists "
                f"{len(self.bsc_channels)} BSC(s), need >= 2"
            )
        for bsc, channels in enumerate(self.bsc_channels):
            check_count(f"bsc_channels[{bsc}]", channels)


@dataclass(frozen=True)
class WorkloadParams:
    n_calls: int = 900
    seed: int = 42
    arrival_window_ms: float = 2000.0
    demand_ms: float = 0.4

    def __post_init__(self) -> None:
        check_count("n_calls", self.n_calls, MAX_CALLS)
        check_setting("arrival_window_ms", self.arrival_window_ms, positive=True)
        check_setting("demand_ms", self.demand_ms, positive=True)


@dataclass(frozen=True)
class LbParams:
    context_switch_ms: float = 0.1
    waiting_ms: float = 3.0
    quantum_override_ms: float | None = None

    def __post_init__(self) -> None:
        check_setting("context_switch_ms", self.context_switch_ms)
        check_setting("waiting_ms", self.waiting_ms)
        if self.quantum_override_ms is not None:
            check_setting("quantum_override_ms", self.quantum_override_ms, positive=True)
