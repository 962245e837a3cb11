"""Network structure: one switching center, a home controller and its neighbors.

The topology is its channel pools, one per BSC, home first. Every BSC has
CELLS_PER_BSC cells, which only the console line and a report's params
name: a cell carries no capacity of its own.
"""

from dataclasses import dataclass

# BSC identity is its position in the topology's list of channel pools.
# Index 0 is always the home (overloaded) controller.
BscId = int

HOME_BSC: BscId = 0

DEFAULT_BSC_CHANNELS = (313, 346, 382)
CELLS_PER_BSC = 7


@dataclass(frozen=True)
class NetworkTopology:
    """The BSCs under one switching center: one channel pool per BSC, home
    first.

    Raises ValueError on fewer than two BSCs or a negative channel pool.
    """

    bsc_channels: tuple[int, ...] = DEFAULT_BSC_CHANNELS

    def __post_init__(self) -> None:
        if len(self.bsc_channels) < 2:
            raise ValueError(
                "at least one neighbor required: bsc_channels lists "
                f"{len(self.bsc_channels)} BSC(s), need >= 2"
            )
        for bsc, channels in enumerate(self.bsc_channels):
            if channels < 0:
                raise ValueError(f"bsc_channels[{bsc}] = {channels} is negative")
