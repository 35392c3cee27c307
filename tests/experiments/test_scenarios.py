"""Tests for the scenario builders and runners (reduced sizes)."""

import pytest

from repro.core.config import DelugeParams, LRSelugeParams, SelugeParams
from repro.errors import ConfigError
from repro.experiments.scenarios import (
    MultiHopScenario,
    OneHopScenario,
    make_params,
    run_scenario,
)


@pytest.mark.parametrize("protocol", ["deluge", "seluge", "lr-seluge"])
def test_one_hop_all_protocols_complete(protocol):
    scenario = OneHopScenario(protocol=protocol, loss_rate=0.15, receivers=3,
                              image_size=2500, k=8, n=12, seed=5, max_time=2400)
    result = run_scenario(scenario)
    assert result.completed
    assert result.images_ok
    assert result.data_packets > 0
    assert result.latency > 0


def test_one_hop_deterministic_given_seed():
    scenario = OneHopScenario(protocol="lr-seluge", loss_rate=0.2, receivers=3,
                              image_size=2500, k=8, n=12, seed=9)
    a = run_scenario(scenario)
    b = run_scenario(scenario)
    assert a.counters == b.counters
    assert a.latency == b.latency


def test_one_hop_seed_changes_outcome():
    base = dict(protocol="lr-seluge", loss_rate=0.2, receivers=3,
                image_size=2500, k=8, n=12)
    a = run_scenario(OneHopScenario(seed=1, **base))
    b = run_scenario(OneHopScenario(seed=2, **base))
    assert a.counters != b.counters


def test_multihop_small_grid_completes():
    scenario = MultiHopScenario(protocol="lr-seluge", topology="grid:3x3:3",
                                image_size=2500, k=8, n=12, seed=3,
                                ambient=False, max_time=2400)
    result = run_scenario(scenario)
    assert result.completed
    assert result.images_ok


def test_multihop_mica2_names():
    scenario = MultiHopScenario(protocol="seluge", topology="tight:4x4",
                                image_size=2500, k=8, n=12, seed=3, max_time=3600)
    result = run_scenario(scenario)
    assert result.completed


def test_multihop_unknown_topology():
    with pytest.raises(ConfigError):
        run_scenario(MultiHopScenario(topology="ring:10"))


def test_make_params_dispatch():
    assert isinstance(make_params("deluge"), DelugeParams)
    assert isinstance(make_params("seluge"), SelugeParams)
    assert isinstance(make_params("lr-seluge"), LRSelugeParams)
    with pytest.raises(ConfigError):
        make_params("gossip")
    with pytest.raises(ConfigError):
        make_params("rateless")


def test_run_result_metrics_consistent():
    result = run_scenario(OneHopScenario(protocol="seluge", loss_rate=0.1,
                                         receivers=2, image_size=2500, k=8, seed=4))
    row = result.summary_row()
    assert row["data_pkts"] == result.data_packets
    assert row["total_bytes"] == result.total_bytes
    assert result.total_bytes > result.data_bytes > 0
    assert str(result)  # formatting does not crash


def test_incomplete_run_reports_max_time():
    result = run_scenario(OneHopScenario(protocol="seluge", loss_rate=0.3,
                                         receivers=3, image_size=2500, k=8,
                                         seed=4, max_time=1.0))
    assert not result.completed
    assert result.latency == 1.0
    assert result.images_ok is False
