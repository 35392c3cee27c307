"""Tests for the energy accounting extension."""

import pytest

from repro.experiments.energy import EnergyModel, EnergyReport, estimate_energy
from repro.experiments.metrics import RunResult
from repro.experiments.scenarios import OneHopScenario, run_scenario


def _result(tx_bytes=10_000, rx_bytes=50_000, latency=100.0):
    return RunResult(
        protocol="x", completed=True, latency=latency,
        counters={"tx_total_bytes": tx_bytes, "rx_delivered_bytes": rx_bytes},
    )


class _FakePipeline:
    def __init__(self, **stats):
        self.stats = stats


def test_radio_energy_scales_with_bytes():
    small = estimate_energy(_result(tx_bytes=1000), n_nodes=5)
    large = estimate_energy(_result(tx_bytes=2000), n_nodes=5)
    assert large.tx_mj == pytest.approx(2 * small.tx_mj)


def test_crypto_energy_from_pipelines():
    pipelines = [_FakePipeline(signature_verifications=1, hash_checks=100,
                               decode_ops=10)]
    report = estimate_energy(_result(), n_nodes=5, pipelines=pipelines)
    model = EnergyModel()
    assert report.crypto_mj == pytest.approx(
        (model.ecdsa_verify_uj + 100 * model.hash_uj) / 1000.0
    )
    assert report.decode_mj == pytest.approx(10 * model.decode_uj / 1000.0)


def test_no_pipelines_means_no_crypto_energy():
    report = estimate_energy(_result(), n_nodes=5)
    assert report.crypto_mj == 0.0
    assert report.decode_mj == 0.0


def test_idle_energy_scales_with_latency_and_nodes():
    a = estimate_energy(_result(latency=100.0), n_nodes=10)
    b = estimate_energy(_result(latency=200.0), n_nodes=10)
    c = estimate_energy(_result(latency=100.0), n_nodes=20)
    assert b.idle_mj == pytest.approx(2 * a.idle_mj)
    assert c.idle_mj == pytest.approx(2 * a.idle_mj)


def test_breakdown_sums_to_total():
    report = EnergyReport(tx_mj=1.0, rx_mj=2.0, crypto_mj=3.0,
                          decode_mj=4.0, idle_mj=5.0)
    assert report.total_mj == 15.0
    assert report.breakdown()["total_mj"] == 15.0


def test_end_to_end_energy_comparison():
    """Under loss, LR-Seluge's radio energy is lower despite decode costs."""
    reports = {}
    for protocol in ("seluge", "lr-seluge"):
        result = run_scenario(OneHopScenario(
            protocol=protocol, loss_rate=0.25, receivers=6,
            image_size=6000, k=16, n=24, seed=11,
        ))
        assert result.completed
        reports[protocol] = estimate_energy(result, n_nodes=7)
    assert reports["lr-seluge"].tx_mj < reports["seluge"].tx_mj

def test_rx_bytes_counted_by_radio():
    """The radio counts delivered bytes (the energy model's rx input)."""
    result = run_scenario(OneHopScenario(protocol="deluge", loss_rate=0.0,
                                         receivers=2, image_size=2048, k=8, seed=3))
    assert result.completed
    assert result.counters.get("rx_delivered_bytes", 0) > 0
    # Broadcast: every transmitted byte is heard by both receivers and the base.
    assert result.counters["rx_delivered_bytes"] >= result.counters["tx_total_bytes"]
