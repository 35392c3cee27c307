"""AttackEngine: placement, deployment, and lifecycle (halt on completion)."""

import pytest

from repro.attacks import AttackEngine, AttackPlan, AttackSpec
from repro.errors import ConfigError
from repro.experiments.adversarial import run_attributed


def test_deploy_places_attacker_into_topology(adversarial_rig):
    rig = adversarial_rig("reactive-jammer")
    topo = rig.radio.topology
    assert list(rig.engine.attacker_ids) == [5]  # star:4 is nodes 0..4
    assert 5 in topo.positions
    assert topo.neighbors[5]  # audible to someone
    assert all(5 in topo.neighbors[v] for v in topo.neighbors[5])  # symmetric
    assert rig.trace.counters["attack_deployed"] == 1


def test_deploy_twice_raises(adversarial_rig):
    rig = adversarial_rig("replay")
    with pytest.raises(ConfigError):
        rig.engine.deploy()


def test_position_and_reach_bound_audibility(adversarial_rig):
    # Dropped on the base station with a 1 m reach: in a radius-5 star the
    # only node in range is the base itself.
    spec = AttackSpec(kind="reactive-jammer", position=(0.0, 0.0), reach=1.0)
    rig = adversarial_rig(attacks=(spec,))
    aid = rig.engine.attacker_ids[0]
    assert set(rig.radio.topology.neighbors[aid]) == {0}


def test_unreachable_placement_raises(adversarial_rig):
    spec = AttackSpec(kind="replay", position=(500.0, 500.0), reach=1.0)
    with pytest.raises(ConfigError):
        adversarial_rig(attacks=(spec,))


def test_attackers_halt_once_victims_complete(adversarial_rig):
    """Regression: attacker loops stop at completion — no further firings."""
    rig = adversarial_rig("sybil-snack", period=0.3)
    result = rig.run()
    assert result.completed
    attacker = rig.attackers[0]
    assert attacker.halted
    assert rig.trace.counters["attack_halted"] == 1
    sent = attacker.sent
    fired = rig.trace.counters["attack_sybil_snack"]
    events_before = rig.sim.processed_events
    rig.sim.run(until=rig.sim.now + 120.0)
    assert rig.sim.processed_events >= events_before  # sim kept going...
    assert attacker.sent == sent                      # ...the attacker didn't
    assert rig.trace.counters["attack_sybil_snack"] == fired


def test_stop_time_halts_attack_window(adversarial_rig):
    spec = AttackSpec(kind="sybil-snack", start=1.0, period=0.3, stop=5.0)
    rig = adversarial_rig(attacks=(spec,))
    rig.engine.start_all()
    rig.base.start()
    rig.sim.run(until=30.0)
    attacker = rig.attackers[0]
    assert attacker.halted
    assert 0 < attacker.sent <= 1 + int((5.0 - 1.0) / 0.3)


def test_halt_all_is_safe_on_crashed_attackers(adversarial_rig):
    rig = adversarial_rig("replay")
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
    rig = adversarial_rig("sybil-snack", topology="grid:3x3:3", period=0.3,
                          max_time=2400.0)
    result = run_attributed(rig)
    assert result.completed
    attacker = rig.attackers[0]
    assert attacker.sent > 0  # it overheard adverts, so it fired
    assert result.counters["adv_frames_delivered"] > 0  # and victims heard it


def test_engine_plan_from_json(adversarial_rig):
    plan = AttackPlan().attack("greyhole", drop_rate=0.9)
    again = AttackPlan.from_json(plan.to_json())
    rig = adversarial_rig(attacks=again.specs)
    assert [a.kind for a in rig.attackers] == ["greyhole"]
