"""Network structure: one switching center, a home controller and its neighbors.

Channels are pooled per BSC. Cells matter only for spatial placement and
console display; they carry no capacity of their own.
"""

import math
from dataclasses import dataclass

# BSC identity is its position in the topology's controller list.
# Index 0 is always the home (overloaded) controller.
BscId = int

HOME_BSC: BscId = 0

DEFAULT_BSC_CHANNELS = (313, 346, 382)
DEFAULT_CELLS_PER_BSC = 7
DEFAULT_AREA_KM = 1.0


@dataclass(frozen=True)
class TopologyConfig:
    """Flat configuration for a topology: one channel count per BSC."""

    bsc_channels: tuple[int, ...] = DEFAULT_BSC_CHANNELS
    cells_per_bsc: int = DEFAULT_CELLS_PER_BSC
    area_km: float = DEFAULT_AREA_KM


@dataclass(frozen=True)
class BscConfig:
    """A single controller: identity, cell count, and channel pool size."""

    id: BscId
    cells: int
    free_channels: int


@dataclass(frozen=True)
class NetworkTopology:
    """Validated MSC/BSC/cell hierarchy, immutable once built."""

    msc_id: str
    bscs: tuple[BscConfig, ...]
    area_km: float

    @property
    def home(self) -> BscConfig:
        return self.bscs[HOME_BSC]

    @property
    def home_channels(self) -> int:
        return self.home.free_channels


def build_topology(config: TopologyConfig) -> NetworkTopology:
    """Assemble the topology of a config and validate it.

    BSC ids are assigned densely in list order, so the first channel
    count always belongs to the home controller.

    Raises ValueError on fewer than two BSCs, negative channel counts,
    cells_per_bsc < 1, or an area that is not finite and positive.
    """
    bscs = tuple(
        BscConfig(id=i, cells=config.cells_per_bsc, free_channels=n)
        for i, n in enumerate(config.bsc_channels)
    )
    topology = NetworkTopology(msc_id="MSC", bscs=bscs, area_km=config.area_km)
    validate_topology(topology)
    return topology


def validate_topology(topology: NetworkTopology) -> None:
    """Check every structural invariant; raises ValueError on the first breach.

    The only check of a topology: messages name the TopologyConfig key.
    Also guards directly-constructed topologies (duplicate or sparse ids)
    that build_topology cannot produce.
    """
    if len(topology.bscs) < 2:
        raise ValueError(
            "at least one neighbor required: bsc_channels lists "
            f"{len(topology.bscs)} BSC(s), need >= 2"
        )
    if not 0 < topology.area_km < math.inf:
        raise ValueError(f"area_km = {topology.area_km}, need finite and > 0")
    ids = [b.id for b in topology.bscs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate BSC ids: {ids}")
    if ids != list(range(len(ids))):
        raise ValueError(f"BSC ids must be dense 0..{len(ids) - 1}, got {ids}")
    for b in topology.bscs:
        if b.cells < 1:
            raise ValueError(f"cells_per_bsc = {b.cells} at BSC{b.id + 1}, need >= 1")
        if b.free_channels < 0:
            raise ValueError(f"bsc_channels[{b.id}] = {b.free_channels} is negative")
