"""Cross-module integration tests: full disseminations with everything on."""

import pytest

from repro.experiments.scenarios import MultiHopScenario, OneHopScenario, run_scenario


def test_four_protocols_same_scenario_ranking_under_loss():
    """At moderate loss, the coded protocol beats the secure ARQ baseline."""
    import statistics

    seeds = (31, 32, 33)
    mean_latency = {}
    for protocol in ("deluge", "seluge", "lr-seluge", "rateless"):
        runs = [run_scenario(OneHopScenario(
            protocol=protocol, loss_rate=0.3, receivers=8,
            image_size=8000, k=16, n=24, seed=s,
        )) for s in seeds]
        assert all(r.completed and r.images_ok for r in runs), protocol
        mean_latency[protocol] = statistics.mean(r.latency for r in runs)
    assert mean_latency["lr-seluge"] < mean_latency["seluge"]


def test_lr_seluge_multihop_pipeline_deep_chain():
    """A 1x8 line forces pipelined page-by-page forwarding over 8 hops."""
    result = run_scenario(MultiHopScenario(
        protocol="lr-seluge", topology="grid:1x8:3", image_size=3000,
        k=8, n=12, seed=6, ambient=False, max_time=3600,
    ))
    assert result.completed
    assert result.images_ok


def test_seluge_multihop_with_ambient_bursts():
    result = run_scenario(MultiHopScenario(
        protocol="seluge", topology="grid:3x3:3", image_size=2500,
        k=8, seed=7, ambient=True, max_time=3600,
    ))
    assert result.completed and result.images_ok


def test_counters_are_frozen_at_completion():
    """Post-completion Trickle chatter must not leak into the metrics."""
    scenario = OneHopScenario(protocol="seluge", loss_rate=0.05, receivers=2,
                              image_size=2500, k=8, seed=8)
    a = run_scenario(scenario)
    assert a.completed
    # The snapshot was taken at latency time: counters cannot include advs
    # whose Trickle interval starts after completion.  Re-running gives the
    # identical snapshot (determinism), proving no post-hoc drift.
    b = run_scenario(scenario)
    assert a.counters == b.counters


def test_all_nodes_hold_bitwise_identical_image():
    from repro.core.image import CodeImage
    scenario = OneHopScenario(protocol="lr-seluge", loss_rate=0.25, receivers=5,
                              image_size=5000, k=8, n=12, seed=12)
    result = run_scenario(scenario)
    assert result.completed
    assert result.images_ok  # checked against the original bytes inside


def test_larger_images_mean_proportionally_more_traffic():
    small = run_scenario(OneHopScenario(protocol="lr-seluge", loss_rate=0.1,
                                        receivers=3, image_size=2500, k=8, n=12, seed=3))
    large = run_scenario(OneHopScenario(protocol="lr-seluge", loss_rate=0.1,
                                        receivers=3, image_size=7500, k=8, n=12, seed=3))
    assert large.data_packets > 2 * small.data_packets
