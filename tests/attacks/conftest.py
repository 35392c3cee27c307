import pytest

from repro.attacks import AttackSpec
from repro.experiments.adversarial import recording_trace
from repro.experiments.scenarios import Scenario, build_rig


@pytest.fixture
def adversarial_rig():
    """Factory: a small wired star-network rig with one optional attacker."""

    def make(kind=None, params=None, attacks=None, defense=None, faults=(),
             protocol="lr-seluge", topology="star:4", image_size=2048,
             k=4, n=6, seed=1, max_time=1500.0, start=1.0, period=0.4):
        if attacks is None:
            attacks = () if kind is None else (
                AttackSpec(kind=kind, start=start, period=period,
                           params=params or {}),)
        scenario = Scenario(
            protocol=protocol, topology=topology, loss_rate=0.05,
            ambient=False, image_size=image_size, k=k, n=n, seed=seed,
            max_time=max_time, faults=tuple(faults), attacks=tuple(attacks),
            defense=defense,
        )
        return build_rig(scenario, trace=recording_trace())

    return make
