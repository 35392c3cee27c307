"""Behavior of the engine-native attack models against live networks."""

import pytest

from repro.attacks import ATTACK_KINDS, resolve_kind
from repro.errors import ConfigError
from repro.obs.invariants import check_events


def test_registry_has_every_attack_kind():
    assert {
        "bogus-data", "signature-flood", "control-forge", "denial-of-receipt",
        "reactive-jammer", "greyhole", "replay", "sybil-snack",
    } <= set(ATTACK_KINDS)


def test_resolve_kind_rejects_unknown():
    with pytest.raises(ConfigError):
        resolve_kind("meteor-strike")


def test_reactive_jammer_emits_jam_frames(adversarial_rig):
    rig = adversarial_rig("reactive-jammer", params={"duty": 0.15})
    result = rig.run()
    assert result.completed and result.images_ok
    assert rig.trace.counters["attack_jam"] > 0
    assert rig.trace.counters["tx_jam"] == rig.trace.counters["attack_jam"]


def test_reactive_jammer_respects_duty_cycle(adversarial_rig):
    duty, burst = 0.05, 0.5
    rig = adversarial_rig("reactive-jammer",
                          params={"duty": duty, "burst_s": burst})
    result = rig.run()
    airtime = rig.radio.config.airtime(96)
    spent = rig.trace.counters["attack_jam"] * airtime
    # The lazy budget can never exceed duty * elapsed plus one full burst.
    assert spent <= duty * result.latency + burst + airtime


def test_greyhole_serves_and_drops(adversarial_rig):
    # seed 2 gives the attacker enough SNACK traffic that the 50% coin
    # lands on both outcomes within the run.
    rig = adversarial_rig("greyhole", params={"drop_rate": 0.5}, period=1.0,
                          seed=2)
    result = rig.run()
    assert result.completed and result.images_ok
    assert rig.trace.counters["attack_greyhole_served"] > 0
    assert rig.trace.counters["attack_greyhole_dropped"] > 0


def test_replay_reinjects_but_never_rebuffers(adversarial_rig):
    rig = adversarial_rig("replay", period=0.3, max_time=2400.0)
    result = rig.run()
    assert result.completed and result.images_ok
    assert rig.trace.counters["attack_replayed"] > 0
    report = check_events(rig.log)
    assert report.checked["replay_never_rebuffered"] > 0
    assert not report.of_invariant("replay_never_rebuffered")


def test_sybil_inflates_serving_cost(adversarial_rig):
    baseline = adversarial_rig().run()
    rig = adversarial_rig("sybil-snack", period=0.3)
    result = rig.run()
    assert result.completed
    assert rig.trace.counters["attack_sybil_snack"] > 0
    # Forged identities fold into tracking tables: the network transmits
    # measurably more than the attack-free run of the same seed.
    assert result.total_bytes > 1.05 * baseline.total_bytes


def test_denial_of_receipt_runs_through_engine(adversarial_rig):
    rig = adversarial_rig("denial-of-receipt",
                          params={"victim": 1, "unit": 0, "n_packets": 12})
    result = rig.run()
    assert result.completed
    assert rig.trace.counters["attack_dor_snack"] > 0
