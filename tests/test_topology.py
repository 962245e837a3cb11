import pytest
from hypothesis import given, strategies as st

from cellbalance.topology import (
    DEFAULT_BSC_CHANNELS,
    HOME_BSC,
    BscConfig,
    ChannelLedger,
    NetworkTopology,
    TopologyConfig,
    build_topology,
    neighbor_ids,
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

    def test_neighbor_pool_and_order(self):
        topo = default_topology()
        assert topo.neighbor_channels() == 728
        assert neighbor_ids(topo) == [1, 2]
        assert neighbor_ids(build_topology(TopologyConfig(bsc_channels=(1, 1)))) == [1]
        five = build_topology(TopologyConfig(bsc_channels=(1, 1, 1, 1, 1)))
        assert neighbor_ids(five) == [1, 2, 3, 4]

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
        with pytest.raises(ValueError, match="area_km"):
            build_topology(TopologyConfig(area_km=0.0))

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


class TestChannelLedger:
    def test_initial_matches_topology(self):
        topo = default_topology()
        ledger = ChannelLedger.from_topology(topo)
        assert ledger.available(0) == 313
        assert ledger.available(1) == 346
        assert ledger.available(2) == 382
        assert ledger.assigned(0) == 0

    def test_assign_decrements_and_counts(self):
        ledger = ChannelLedger.from_topology(default_topology())
        ledger.assign(1)
        ledger.assign(1)
        assert ledger.available(1) == 344
        assert ledger.assigned(1) == 2

    def test_assign_exhausted_raises(self):
        ledger = ChannelLedger.from_topology(build_topology(TopologyConfig(bsc_channels=(1, 0))))
        with pytest.raises(ValueError, match="no free channel"):
            ledger.assign(1)

    def test_release_restores(self):
        ledger = ChannelLedger.from_topology(default_topology())
        ledger.assign(2)
        ledger.release(2)
        assert ledger.available(2) == 382
        assert ledger.assigned(2) == 0

    def test_release_without_assign_raises(self):
        ledger = ChannelLedger.from_topology(default_topology())
        with pytest.raises(ValueError, match="release"):
            ledger.release(0)

    @given(
        channels=st.lists(st.integers(min_value=0, max_value=20), min_size=2, max_size=5),
        ops=st.lists(st.integers(min_value=0, max_value=4), max_size=60),
    )
    def test_conservation_under_assignments(self, channels, ops):
        """available(b) + assigned(b) stays equal to the initial pool."""
        topo = build_topology(TopologyConfig(bsc_channels=tuple(channels)))
        ledger = ChannelLedger.from_topology(topo)
        for raw in ops:
            bsc = raw % len(channels)
            if ledger.available(bsc) > 0:
                ledger.assign(bsc)
            for b, initial in enumerate(channels):
                assert ledger.available(b) + ledger.assigned(b) == initial
                assert ledger.available(b) >= 0
