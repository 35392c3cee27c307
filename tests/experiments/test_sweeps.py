"""Tests for the generic sweep utility."""

import pytest

from repro.experiments.executor import CampaignConfig
from repro.experiments.sweeps import sweep_multihop, sweep_one_hop


def test_one_hop_sweep_structure():
    table = sweep_one_hop(
        protocols=("seluge", "lr-seluge"),
        loss_rates=(0.1, 0.3),
        receivers=(3,),
        image_size=2048,
        k=8,
        n=12,
        seeds=(1,),
    )
    assert len(table.rows) == 4  # 2 protocols x 2 loss rates x 1 N
    assert all(row[-1] == "yes" for row in table.rows)
    assert table.headers[:3] == ["protocol", "p", "N"]
    # Higher loss means higher cost within each protocol.
    by_key = {(row[0], row[1]): row for row in table.rows}
    for protocol in ("seluge", "lr-seluge"):
        assert by_key[(protocol, 0.3)][6] > by_key[(protocol, 0.1)][6]


def test_one_hop_sweep_parallel_matches_serial():
    kwargs = dict(protocols=("lr-seluge",), loss_rates=(0.2,), receivers=(3,),
                  image_size=2048, k=8, n=12, seeds=(1, 2))
    serial = sweep_one_hop(campaign=CampaignConfig(), **kwargs)
    parallel = sweep_one_hop(campaign=CampaignConfig(processes=2), **kwargs)
    assert serial.rows == parallel.rows


def test_multihop_sweep():
    table = sweep_multihop(
        protocols=("seluge",),
        topologies=("grid:3x3:3",),
        image_size=2048,
        seeds=(1,),
    )
    assert len(table.rows) == 1
    assert table.rows[0][-1] == "yes"
