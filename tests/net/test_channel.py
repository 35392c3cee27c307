"""Unit tests for loss models."""

import math

import pytest

from repro.net.channel import (
    BernoulliLoss,
    GilbertElliottLoss,
    NoLoss,
    PerLinkLoss,
    SyntheticNoiseTrace,
    snr_to_prr,
)
from repro.net.packet import Frame, FrameKind
from repro.sim.rng import RngRegistry
from repro.errors import ConfigError


def _frame():
    return Frame(kind=FrameKind.DATA, sender=0, size_bytes=50, payload=None)


def _drop_rate(model, trials=4000, receiver=1):
    rngs = RngRegistry(7)
    frame = _frame()
    drops = sum(
        model.should_drop(rngs, 0, receiver, frame, t * 0.01) for t in range(trials)
    )
    return drops / trials


def test_no_loss():
    assert _drop_rate(NoLoss()) == 0.0


def test_bernoulli_zero_and_validation():
    assert _drop_rate(BernoulliLoss(0.0)) == 0.0
    with pytest.raises(ConfigError):
        BernoulliLoss(1.0)
    with pytest.raises(ConfigError):
        BernoulliLoss(-0.1)


def test_bernoulli_empirical_rate():
    rate = _drop_rate(BernoulliLoss(0.3))
    assert 0.27 < rate < 0.33


def test_per_link_uses_directed_probabilities():
    model = PerLinkLoss({(0, 1): 0.0, (0, 2): 1.0})
    rngs = RngRegistry(1)
    frame = _frame()
    assert not model.should_drop(rngs, 0, 1, frame, 0.0)
    assert model.should_drop(rngs, 0, 2, frame, 0.0)
    # unknown links use the default (1.0 = always drop)
    assert model.should_drop(rngs, 0, 3, frame, 0.0)


def test_per_link_validation():
    with pytest.raises(ConfigError):
        PerLinkLoss({(0, 1): 1.5})
    for default in (-0.5, 1.7, math.nan):
        with pytest.raises(ConfigError):
            PerLinkLoss({}, default=default)


def test_gilbert_elliott_mean_loss_between_states():
    model = GilbertElliottLoss(loss_good=0.0, loss_bad=1.0, mean_good=1.0, mean_bad=1.0)
    rate = _drop_rate(model, trials=8000)
    assert 0.35 < rate < 0.65  # half the time in each state


def test_gilbert_elliott_burstiness():
    """Consecutive outcomes should be positively correlated (bursty)."""
    model = GilbertElliottLoss(loss_good=0.01, loss_bad=0.95,
                               mean_good=5.0, mean_bad=5.0)
    rngs = RngRegistry(3)
    frame = _frame()
    outcomes = [
        model.should_drop(rngs, 0, 1, frame, t * 0.05) for t in range(6000)
    ]
    same = sum(a == b for a, b in zip(outcomes, outcomes[1:]))
    assert same / (len(outcomes) - 1) > 0.75


def test_gilbert_elliott_validation():
    with pytest.raises(ConfigError):
        GilbertElliottLoss(loss_good=1.5)
    with pytest.raises(ConfigError):
        GilbertElliottLoss(mean_good=0.0)


def test_composite_any_drop_wins():
    """With a loss map, a frame survives only if both the static link draw
    and the Gilbert-Elliott chain let it through."""
    quiet = dict(loss_good=0.0, loss_bad=0.0)
    model = GilbertElliottLoss(**quiet, loss_map={(0, 1): 1.0, (0, 2): 0.0})
    assert _drop_rate(model) == 1.0
    assert _drop_rate(model, receiver=2) == 0.0
    assert _drop_rate(model, receiver=3) == 1.0  # unknown links: default 1.0
    noisy = GilbertElliottLoss(loss_good=1.0, loss_bad=1.0, loss_map={(0, 1): 0.0})
    assert _drop_rate(noisy) == 1.0
    with pytest.raises(ConfigError):
        GilbertElliottLoss(loss_map={(0, 1): 1.5})


def test_snr_to_prr_monotonic_and_saturating():
    values = [snr_to_prr(s) for s in (-5, 0, 3, 6, 9, 12, 20)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] < 0.01
    assert values[-1] > 0.99


def test_noise_trace_deterministic_and_bounded():
    a = SyntheticNoiseTrace(RngRegistry(5))
    b = SyntheticNoiseTrace(RngRegistry(5))
    samples_a = [a.noise_at(t * 0.05) for t in range(200)]
    samples_b = [b.noise_at(t * 0.05) for t in range(200)]
    assert samples_a == samples_b
    assert all(-120 < x < -60 for x in samples_a)


def test_noise_trace_has_heavy_periods():
    trace = SyntheticNoiseTrace(RngRegistry(11))
    samples = [trace.noise_at(t * 0.05) for t in range(2000)]
    heavy = sum(1 for x in samples if x > -90)
    assert 0 < heavy < len(samples)


def test_gilbert_elliott_empirical_rate_matches_stationary_mix():
    """Long-run loss rate ~= f_bad*loss_bad + f_good*loss_good where
    f_bad = mean_bad / (mean_good + mean_bad) (alternating renewal)."""
    model = GilbertElliottLoss(loss_good=0.05, loss_bad=0.5,
                               mean_good=6.0, mean_bad=2.0)
    rate = _drop_rate(model, trials=40000)
    expected = (6.0 * 0.05 + 2.0 * 0.5) / 8.0  # 0.1625
    assert abs(rate - expected) < 0.04


def test_gilbert_elliott_mean_burst_length():
    """With loss_good=0 / loss_bad=1, drop bursts trace BAD sojourns: the
    mean burst length (in samples) should be ~ mean_bad / sample period."""
    dt = 0.05
    model = GilbertElliottLoss(loss_good=0.0, loss_bad=1.0,
                               mean_good=4.0, mean_bad=2.0)
    rngs = RngRegistry(13)
    frame = _frame()
    outcomes = [
        model.should_drop(rngs, 0, 1, frame, t * dt) for t in range(60000)
    ]
    bursts = []
    run = 0
    for dropped in outcomes:
        if dropped:
            run += 1
        elif run:
            bursts.append(run)
            run = 0
    assert len(bursts) > 50
    mean_burst = sum(bursts) / len(bursts)
    expected = 2.0 / dt  # 40 samples
    assert 0.6 * expected < mean_burst < 1.5 * expected


def test_gilbert_elliott_links_evolve_independently():
    """Each directed link has its own chain + rng stream: interleaving
    queries to another link must not perturb the first link's outcomes."""
    times = [t * 0.05 for t in range(3000)]
    frame = _frame()

    model_a = GilbertElliottLoss(loss_good=0.0, loss_bad=1.0,
                                 mean_good=3.0, mean_bad=3.0)
    rngs_a = RngRegistry(21)
    alone = [model_a.should_drop(rngs_a, 0, 1, frame, t) for t in times]

    model_b = GilbertElliottLoss(loss_good=0.0, loss_bad=1.0,
                                 mean_good=3.0, mean_bad=3.0)
    rngs_b = RngRegistry(21)
    interleaved = []
    for t in times:
        model_b.should_drop(rngs_b, 0, 2, frame, t)  # other link traffic
        interleaved.append(model_b.should_drop(rngs_b, 0, 1, frame, t))
        model_b.should_drop(rngs_b, 2, 1, frame, t)

    assert alone == interleaved
    # and the two links are not mirroring each other's state
    other = [model_b.should_drop(rngs_b, 0, 2, frame, 3000 * 0.05 + i * 0.05)
             for i in range(500)]
    assert other != alone[:500]
