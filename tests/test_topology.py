import math

import pytest

from cellbalance.topology import DEFAULT_BSC_CHANNELS, HOME_BSC, NetworkTopology


class TestBuildTopology:
    def test_default_shape(self):
        topo = NetworkTopology()
        assert topo.bsc_channels == DEFAULT_BSC_CHANNELS == (313, 346, 382)
        assert topo.cells_per_bsc == 7
        assert topo.area_km == 1.0

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

    def test_rejects_zero_cells(self):
        with pytest.raises(ValueError, match="cells_per_bsc"):
            NetworkTopology(cells_per_bsc=0)

    def test_rejects_nonpositive_area(self):
        for area in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="area_km"):
                NetworkTopology(area_km=area)

    def test_checks_run_in_order(self):
        with pytest.raises(ValueError, match="at least one neighbor"):
            NetworkTopology(bsc_channels=(-1,), cells_per_bsc=0, area_km=0.0)
        with pytest.raises(ValueError, match="area_km"):
            NetworkTopology(bsc_channels=(1, -1), cells_per_bsc=0, area_km=0.0)
        with pytest.raises(ValueError, match="cells_per_bsc"):
            NetworkTopology(bsc_channels=(1, -1), cells_per_bsc=0)
