from dataclasses import fields

import pytest

from cellbalance.topology import CELLS_PER_BSC, DEFAULT_BSC_CHANNELS, HOME_BSC, NetworkTopology


class TestBuildTopology:
    def test_default_shape(self):
        topo = NetworkTopology()
        assert topo.bsc_channels == DEFAULT_BSC_CHANNELS == (313, 346, 382)
        assert [f.name for f in fields(topo)] == ["bsc_channels"]
        assert CELLS_PER_BSC == 7

    def test_home_is_first(self):
        assert NetworkTopology().bsc_channels[HOME_BSC] == 313

    def test_rejects_single_bsc(self):
        with pytest.raises(ValueError, match="at least one neighbor"):
            NetworkTopology(bsc_channels=(313,))

    def test_rejects_empty_channel_list(self):
        with pytest.raises(ValueError):
            NetworkTopology(bsc_channels=())

    def test_rejects_negative_channels(self):
        with pytest.raises(ValueError, match=r"bsc_channels\[1\] = -1"):
            NetworkTopology(bsc_channels=(313, -1))

    def test_zero_channels_allowed(self):
        assert NetworkTopology(bsc_channels=(0, 0)).bsc_channels == (0, 0)

    def test_checks_run_in_order(self):
        with pytest.raises(ValueError, match="at least one neighbor"):
            NetworkTopology(bsc_channels=(-1,))
        with pytest.raises(ValueError, match=r"bsc_channels\[0\] = -1"):
            NetworkTopology(bsc_channels=(-1, -2))
