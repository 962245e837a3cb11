import math
from dataclasses import fields

import numpy as np
import pytest

from cellbalance.teletraffic import OfferedLoad, blocking_sweep, erlang_b
from cellbalance.topology import (
    CELLS_PER_BSC,
    HOME_BSC,
    MAX_CALLS,
    LbParams,
    NetworkTopology,
    WorkloadParams,
    shown,
)
from cellbalance.traffic import workload_columns


class TestBuildTopology:
    def test_default_shape(self):
        topo = NetworkTopology()
        assert topo.bsc_channels == (313, 346, 382)
        assert [f.name for f in fields(topo)] == ["bsc_channels"]
        assert CELLS_PER_BSC == 7
        assert WorkloadParams() == WorkloadParams(n_calls=900, seed=42, arrival_window_ms=2000.0,
                                                  demand_ms=0.4)
        assert LbParams() == LbParams(context_switch_ms=0.1, waiting_ms=3.0)

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


def test_max_calls_is_the_longest_8_byte_column():
    assert MAX_CALLS == np.iinfo(np.int64).max // 8


# each count setting: its name in a refusal, how to set it, and its bounds
COUNTS = {
    "bsc_channels[1]": (lambda n: NetworkTopology((1, n)), 0, math.inf),
    "n_calls": (lambda n: WorkloadParams(n_calls=n), 0, MAX_CALLS),
    "load level": (lambda n: blocking_sweep(NetworkTopology(), [n]), 0, MAX_CALLS),
    "n_channels": (lambda n: erlang_b(OfferedLoad(1), n), 0, math.inf),
    "seed": (lambda n: WorkloadParams(seed=n), -math.inf, math.inf),
}


def refused_counts():
    for name, (_, least, most) in COUNTS.items():
        refusals = [("-1", -1, ">= 0"), ("-10**5000", -10**5000, ">= 0")] if least == 0 else []
        refusals += [("2.5", 2.5, "an integer"), ("nan", math.nan, "an integer"),
                     ("str", "7", "an integer")]
        if most < math.inf:
            refusals += [("MAX_CALLS+1", MAX_CALLS + 1, f"<= {MAX_CALLS}"),
                         ("10**5000", 10**5000, f"<= {MAX_CALLS}")]
        for tag, value, need in refusals:
            yield pytest.param(name, value, need, id=f"{name}={tag}")


@pytest.mark.parametrize("name, value, need", refused_counts())
def test_one_count_rule(name, value, need):
    """Every count is refused by name unless it is an integer >= 0 within
    its bound, and the seed unless it is an integer. A NaN pool ran, since
    min(5, nan) is 5, and reported 5 calls accepted at home; a float pool,
    level or count raised TypeError, and a count of more than 4300 digits
    Python's str limit, naming nothing. A float or str seed raised numpy's
    TypeError from generate_workload."""
    build = COUNTS[name][0]
    with pytest.raises(ValueError) as refused:
        build(value)
    assert str(refused.value) == f"{name} = {shown(value)}, need {need}"


@pytest.mark.parametrize("name", COUNTS)
def test_counts_take_numpy_integers(name):
    build = COUNTS[name][0]
    build(np.int64(3))
    build(np.uint8(0))


@pytest.mark.parametrize("seed, same_as", [(np.int64(5), 5), (np.uint64(2**64 - 1), -1),
                                           (-1, 2**64 - 1)])
def test_seed_takes_any_integer(seed, same_as):
    """A numpy or negative seed draws the calls and positions of the
    Python int it equals mod 2**64: np.int64(5) raised OverflowError from
    `seed % 2**64`, since 2**64 fits no numpy integer."""
    drawn, expected = (workload_columns(WorkloadParams(n_calls=50, seed=s)) for s in (seed, same_as))
    assert all(np.array_equal(a, b) for a, b in zip(drawn, expected))
