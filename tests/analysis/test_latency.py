"""Tests for the analytical latency model (validated against simulation)."""

import pytest

from repro.analysis.latency import estimate_lr_seluge_latency, estimate_seluge_latency
from repro.core.config import ImageConfig, LRSelugeParams, SelugeParams
from repro.experiments.scenarios import OneHopScenario, run_scenario


def test_monotone_in_loss():
    params = SelugeParams(k=32, image=ImageConfig(image_size=20 * 1024))
    values = [estimate_seluge_latency(params, p, 20) for p in (0.0, 0.1, 0.3)]
    assert values[0] < values[1] < values[2]
    lr = LRSelugeParams(k=32, n=48, image=ImageConfig(image_size=20 * 1024))
    lr_values = [estimate_lr_seluge_latency(lr, p, 20) for p in (0.0, 0.1, 0.3)]
    assert lr_values[0] < lr_values[1] < lr_values[2]


def test_lr_predicted_faster_under_loss():
    image = ImageConfig(image_size=20 * 1024)
    seluge = estimate_seluge_latency(SelugeParams(k=32, image=image), 0.3, 20)
    lr = estimate_lr_seluge_latency(LRSelugeParams(k=32, n=48, image=image), 0.3, 20)
    assert lr < seluge


@pytest.mark.parametrize("p", [0.05, 0.2])
def test_seluge_prediction_within_factor_of_simulation(p):
    params = SelugeParams(k=32, image=ImageConfig(image_size=8 * 1024))
    predicted = estimate_seluge_latency(params, p, 10)
    simulated = run_scenario(OneHopScenario(
        protocol="seluge", loss_rate=p, receivers=10, image_size=8 * 1024,
        seed=2,
    )).latency
    assert predicted == pytest.approx(simulated, rel=0.6)


@pytest.mark.parametrize("p", [0.05, 0.2])
def test_lr_prediction_within_factor_of_simulation(p):
    params = LRSelugeParams(k=32, n=48, image=ImageConfig(image_size=8 * 1024))
    predicted = estimate_lr_seluge_latency(params, p, 10)
    simulated = run_scenario(OneHopScenario(
        protocol="lr-seluge", loss_rate=p, receivers=10, image_size=8 * 1024,
        seed=2,
    )).latency
    assert predicted == pytest.approx(simulated, rel=0.6)
