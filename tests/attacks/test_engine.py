"""AttackEngine: placement, deployment, and lifecycle (halt on completion)."""

import pytest

from repro.attacks import AttackSpec, load_attack_plan
from repro.attacks.engine import _kind_params
from repro.attacks.models import ATTACK_KINDS
from repro.errors import ConfigError
from repro.experiments.adversarial import run_attributed
from repro.faults.plan import FaultEvent, FaultKind


def test_deploy_places_attacker_into_topology(adversarial_rig):
    rig = adversarial_rig("bogus-data")
    topo = rig.radio.topology
    assert list(rig.engine.attacker_ids) == [5]  # star:4 is nodes 0..4
    assert 5 in topo.positions
    assert topo.neighbors[5]  # audible to someone
    assert all(5 in topo.neighbors[v] for v in topo.neighbors[5])  # symmetric
    assert rig.trace.counters["attack_deployed"] == 1


def test_deploy_twice_raises(adversarial_rig):
    rig = adversarial_rig("bogus-data")
    with pytest.raises(ConfigError):
        rig.engine.deploy()


def test_position_and_reach_bound_audibility(adversarial_rig):
    # Dropped on the base station with a 1 m reach: in a radius-5 star the
    # only node in range is the base itself.
    spec = AttackSpec(kind="bogus-data", position=(0.0, 0.0), reach=1.0)
    rig = adversarial_rig(attacks=(spec,))
    aid = rig.engine.attacker_ids[0]
    assert set(rig.radio.topology.neighbors[aid]) == {0}


def test_unreachable_placement_raises(adversarial_rig):
    spec = AttackSpec(kind="bogus-data", position=(500.0, 500.0), reach=1.0)
    with pytest.raises(ConfigError):
        adversarial_rig(attacks=(spec,))


def test_attackers_halt_once_victims_complete(adversarial_rig):
    """Regression: attacker loops stop at completion — no further firings."""
    rig = adversarial_rig("bogus-data", period=0.3)
    result = rig.run()
    assert result.completed
    attacker = rig.attackers[0]
    assert attacker.halted
    assert rig.trace.counters["attack_halted"] == 1
    sent = attacker.sent
    fired = rig.trace.counters["attack_bogus_data"]
    events_before = rig.sim.processed_events
    rig.sim.run(until=rig.sim.now + 120.0)
    assert rig.sim.processed_events >= events_before  # sim kept going...
    assert attacker.sent == sent                      # ...the attacker didn't
    assert rig.trace.counters["attack_bogus_data"] == fired


def test_stop_time_halts_attack_window(adversarial_rig):
    spec = AttackSpec(kind="bogus-data", start=1.0, period=0.3, stop=5.0)
    rig = adversarial_rig(attacks=(spec,))
    rig.engine.start_all()
    rig.base.start()
    rig.sim.run(until=30.0)
    attacker = rig.attackers[0]
    assert attacker.halted
    assert 0 < attacker.sent <= 1 + int((5.0 - 1.0) / 0.3)


def test_halt_all_is_safe_on_crashed_attackers(adversarial_rig):
    rig = adversarial_rig("bogus-data")
    attacker = rig.attackers[0]
    rig.engine.start_all()
    rig.sim.run(until=2.0)
    attacker.crash()
    rig.engine.halt_all()
    attacker.reboot()  # a later fault-plan reboot must not revive it
    sent = attacker.sent
    rig.sim.run(until=rig.sim.now + 20.0)
    assert attacker.halted and attacker.sent == sent


def test_attacker_is_audible_on_per_link_grids(adversarial_rig):
    """Regression: attacker links spliced into ``Topology.link_loss`` after
    radio construction must reach the live ``PerLinkLoss`` table — a copied
    map defaults the new links to 100% loss and silently isolates the
    adversary on every grid topology."""
    rig = adversarial_rig("bogus-data", topology="grid:3x3:3", period=0.3,
                          max_time=2400.0)
    result = run_attributed(rig)
    assert result.completed
    attacker = rig.attackers[0]
    assert attacker._progress  # it overheard adverts
    assert result.counters["adv_frames_delivered"] > 0  # and victims heard it


def test_engine_plan_from_json(adversarial_rig, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"attacks": [{"kind": "bogus-data", '
                    '"params": {"payload_size": 40}}]}', encoding="utf-8")
    rig = adversarial_rig(attacks=load_attack_plan(path))
    assert [a.kind for a in rig.attackers] == ["bogus-data"]
    assert rig.attackers[0].payload_size == 40


def test_unknown_kind_rejected_at_deploy(adversarial_rig):
    with pytest.raises(ConfigError, match="meteor-strike"):
        adversarial_rig("meteor-strike")


@pytest.mark.parametrize("kind", sorted(ATTACK_KINDS))
def test_every_attack_parameter_has_a_checkable_type(kind):
    params = _kind_params(ATTACK_KINDS[kind])
    assert params and all(isinstance(t, type) for t in params.values())


@pytest.mark.parametrize("params", [
    {"payload_size": "big"}, {"payload_size": True}, {"version": 2.0},
])
def test_mistyped_param_rejected_at_deploy(adversarial_rig, params):
    with pytest.raises(ConfigError, match="must be int"):
        adversarial_rig("bogus-data", params=params)


def test_attacker_crash_composes_with_fault_plan(adversarial_rig):
    """A FaultPlan can kill an attacker mid-run; victims finish."""
    faults = (FaultEvent(10.0, FaultKind.NODE_CRASH, node=5),)  # the attacker
    rig = adversarial_rig("bogus-data", start=1.0, period=0.3, faults=faults)
    result = run_attributed(rig)
    assert result.completed and result.images_ok
    attacker = rig.attackers[0]
    assert attacker.crashed
    sent_at_crash = attacker.sent
    rig.sim.run(until=rig.sim.now + 60.0)
    assert attacker.sent == sent_at_crash
