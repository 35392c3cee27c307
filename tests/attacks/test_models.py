"""Behavior of the attack models against live networks."""

from repro.attacks import ATTACK_KINDS


def test_registry_has_every_attack_kind():
    assert set(ATTACK_KINDS) == {
        "bogus-data", "signature-flood", "control-forge", "denial-of-receipt",
    }


def test_denial_of_receipt_runs_through_engine(adversarial_rig):
    rig = adversarial_rig("denial-of-receipt",
                          params={"victim": 1, "unit": 0, "n_packets": 12})
    result = rig.run()
    assert result.completed
    assert rig.trace.counters["attack_dor_snack"] > 0
