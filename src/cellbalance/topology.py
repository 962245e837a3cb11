"""Network structure: one switching center, a home controller and its neighbors.

Channels are pooled per BSC. Cells matter only for spatial placement and
console display; they carry no capacity of their own.
"""

from dataclasses import dataclass, field

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

    def neighbor_channels(self) -> int:
        """Total channel pool across all neighbor BSCs."""
        return sum(b.free_channels for b in self.bscs[1:])


def build_topology(config: TopologyConfig) -> NetworkTopology:
    """Validate a config and assemble the topology.

    BSC ids are assigned densely in list order, so the first channel
    count always belongs to the home controller.

    Raises ValueError on fewer than two BSCs, negative channel counts,
    cells_per_bsc < 1, or non-positive area.
    """
    if len(config.bsc_channels) < 2:
        raise ValueError(
            "at least one neighbor required: bsc_channels lists "
            f"{len(config.bsc_channels)} BSC(s), need >= 2"
        )
    for i, n in enumerate(config.bsc_channels):
        if n < 0:
            raise ValueError(f"bsc_channels[{i}] = {n} is negative")
    if config.cells_per_bsc < 1:
        raise ValueError(f"cells_per_bsc = {config.cells_per_bsc}, need >= 1")
    if config.area_km <= 0:
        raise ValueError(f"area_km = {config.area_km}, need > 0")

    bscs = tuple(
        BscConfig(id=i, cells=config.cells_per_bsc, free_channels=n)
        for i, n in enumerate(config.bsc_channels)
    )
    topology = NetworkTopology(msc_id="MSC", bscs=bscs, area_km=config.area_km)
    validate_topology(topology)
    return topology


def validate_topology(topology: NetworkTopology) -> None:
    """Check every structural invariant; raises ValueError on the first breach.

    Also guards directly-constructed topologies (duplicate or sparse ids,
    bad per-BSC fields) that build_topology cannot produce.
    """
    if len(topology.bscs) < 2:
        raise ValueError("at least one neighbor required: topology needs >= 2 BSCs")
    if topology.area_km <= 0:
        raise ValueError(f"area_km = {topology.area_km}, need > 0")
    ids = [b.id for b in topology.bscs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate BSC ids: {ids}")
    if ids != list(range(len(ids))):
        raise ValueError(f"BSC ids must be dense 0..{len(ids) - 1}, got {ids}")
    for b in topology.bscs:
        if b.cells < 1:
            raise ValueError(f"BSC{b.id + 1}: cells = {b.cells}, need >= 1")
        if b.free_channels < 0:
            raise ValueError(f"BSC{b.id + 1}: free_channels = {b.free_channels} is negative")


def neighbor_ids(topology: NetworkTopology) -> list[BscId]:
    """All BSC ids except the home one, ascending.

    This order seeds the round-robin rotation over handover targets.
    """
    return [b.id for b in topology.bscs[1:]]


@dataclass
class ChannelLedger:
    """Mutable remaining-channel counters for one simulation run.

    Single-writer: each engine run owns its own ledger. Assignments
    against an empty pool raise instead of clamping.
    """

    initial: dict[BscId, int]
    remaining: dict[BscId, int] = field(init=False)

    @classmethod
    def from_topology(cls, topology: NetworkTopology) -> "ChannelLedger":
        return cls(initial={b.id: b.free_channels for b in topology.bscs})

    def __post_init__(self) -> None:
        self.remaining = dict(self.initial)

    def available(self, bsc: BscId) -> int:
        return self.remaining[bsc]

    def assigned(self, bsc: BscId) -> int:
        return self.initial[bsc] - self.remaining[bsc]

    def assign(self, bsc: BscId, count: int = 1) -> None:
        if count > self.remaining[bsc]:
            raise ValueError(
                f"BSC{bsc + 1}: no free channel to assign "
                f"({count} requested, {self.remaining[bsc]} left)"
            )
        self.remaining[bsc] -= count

    def release(self, bsc: BscId) -> None:
        if self.remaining[bsc] >= self.initial[bsc]:
            raise ValueError(f"BSC{bsc + 1}: release without matching assignment")
        self.remaining[bsc] += 1
