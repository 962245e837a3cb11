import math

import pytest

from cellbalance.topology import (
    DEFAULT_BSC_CHANNELS,
    HOME_BSC,
    BscConfig,
    NetworkTopology,
    TopologyConfig,
    build_topology,
    validate_topology,
)


def default_topology():
    return build_topology(TopologyConfig())


class TestBuildTopology:
    def test_default_shape(self):
        topo = default_topology()
        assert len(topo.bscs) == 3
        assert [b.id for b in topo.bscs] == [0, 1, 2]
        assert [b.free_channels for b in topo.bscs] == list(DEFAULT_BSC_CHANNELS)
        assert all(b.cells == 7 for b in topo.bscs)
        assert topo.area_km == 1.0

    def test_home_is_first(self):
        topo = default_topology()
        assert topo.home.id == HOME_BSC
        assert topo.home_channels == 313

    def test_rejects_single_bsc(self):
        with pytest.raises(ValueError, match="at least one neighbor"):
            build_topology(TopologyConfig(bsc_channels=(313,)))

    def test_rejects_empty_channel_list(self):
        with pytest.raises(ValueError):
            build_topology(TopologyConfig(bsc_channels=()))

    def test_rejects_negative_channels(self):
        with pytest.raises(ValueError, match="bsc_channels"):
            build_topology(TopologyConfig(bsc_channels=(313, -1)))

    def test_zero_channels_allowed(self):
        topo = build_topology(TopologyConfig(bsc_channels=(0, 0)))
        assert topo.home_channels == 0

    def test_rejects_zero_cells(self):
        with pytest.raises(ValueError, match="cells_per_bsc"):
            build_topology(TopologyConfig(cells_per_bsc=0))

    def test_rejects_nonpositive_area(self):
        for area in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="area_km"):
                build_topology(TopologyConfig(area_km=area))

    def test_validate_accepts_built(self):
        validate_topology(default_topology())

    def test_validate_rejects_duplicate_ids(self):
        topo = default_topology()
        broken = NetworkTopology(
            msc_id=topo.msc_id,
            bscs=(topo.bscs[0], topo.bscs[0], topo.bscs[2]),
            area_km=topo.area_km,
        )
        with pytest.raises(ValueError, match="duplicate"):
            validate_topology(broken)

    def test_validate_rejects_sparse_ids(self):
        topo = default_topology()
        broken = NetworkTopology(
            msc_id=topo.msc_id,
            bscs=(topo.bscs[0], topo.bscs[1], BscConfig(id=5, cells=7, free_channels=1)),
            area_km=topo.area_km,
        )
        with pytest.raises(ValueError, match="dense"):
            validate_topology(broken)
