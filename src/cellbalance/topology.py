"""Network structure: one switching center, a home controller and its neighbors.

Channels are pooled per BSC. Cells matter only for spatial placement and
console display; they carry no capacity of their own.
"""

import math
from dataclasses import dataclass

# BSC identity is its position in the topology's list of channel pools.
# Index 0 is always the home (overloaded) controller.
BscId = int

HOME_BSC: BscId = 0

DEFAULT_BSC_CHANNELS = (313, 346, 382)
DEFAULT_CELLS_PER_BSC = 7
DEFAULT_AREA_KM = 1.0


@dataclass(frozen=True)
class NetworkTopology:
    """The BSCs under one switching center: one channel pool per BSC, home
    first, each with the same number of cells, over a square area.

    Raises ValueError on fewer than two BSCs, an area that is not finite and
    positive, cells_per_bsc < 1 or a negative channel pool.
    """

    bsc_channels: tuple[int, ...] = DEFAULT_BSC_CHANNELS
    cells_per_bsc: int = DEFAULT_CELLS_PER_BSC
    area_km: float = DEFAULT_AREA_KM

    def __post_init__(self) -> None:
        if len(self.bsc_channels) < 2:
            raise ValueError(
                "at least one neighbor required: bsc_channels lists "
                f"{len(self.bsc_channels)} BSC(s), need >= 2"
            )
        if not 0 < self.area_km < math.inf:
            raise ValueError(f"area_km = {self.area_km}, need finite and > 0")
        if self.cells_per_bsc < 1:
            raise ValueError(f"cells_per_bsc = {self.cells_per_bsc}, need >= 1")
        for bsc, channels in enumerate(self.bsc_channels):
            if channels < 0:
                raise ValueError(f"bsc_channels[{bsc}] = {channels} is negative")
