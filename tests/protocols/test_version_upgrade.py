"""Image-version upgrades: the operation code dissemination exists for."""

import dataclasses

import pytest

from repro.attacks.model import AttackModel
from repro.core.config import ImageConfig
from repro.core.image import CodeImage
from repro.core.preprocess import DelugePreprocessor, LRSelugePreprocessor
from repro.crypto.ecdsa import generate_keypair
from repro.crypto.puzzle import MessageSpecificPuzzle
from repro.experiments.runner import CompletionTracker, run_network
from repro.experiments.scenarios import _BUILDERS, make_params
from repro.net.channel import BernoulliLoss
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import star_topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


def _network(protocol, receivers=3, loss=0.1, image_size=2500, seed=6,
             attacker_slot=False):
    sim = Simulator()
    rngs = RngRegistry(seed)
    trace = TraceRecorder()
    topo = star_topology(receivers + (1 if attacker_slot else 0))
    radio = Radio(sim, topo, BernoulliLoss(loss), rngs, trace,
                  config=RadioConfig(collisions=False))
    params = make_params(protocol, image_size=image_size, k=8, n=12, version=2)
    image_v2 = CodeImage.synthetic(image_size, version=2, seed=seed)
    tracker = CompletionTracker(trace)
    base, nodes, pre = _BUILDERS[protocol](
        sim, radio, rngs, trace, params, image=image_v2,
        receiver_ids=list(range(1, receivers + 1)), on_complete=tracker)
    return sim, trace, tracker, base, nodes, params, image_v2


def _build_v3(protocol, params, image_size, seed, base, rngs_seed):
    image_v3 = CodeImage.synthetic(image_size, version=3, seed=seed + 100)
    params_v3 = dataclasses.replace(
        params, image=ImageConfig(image_size=image_size, version=3))
    if protocol == "lr-seluge":
        keypair = generate_keypair(rngs_seed)
        pre = LRSelugePreprocessor(
            params_v3, keypair, MessageSpecificPuzzle(difficulty=10)
        ).build(image_v3)
    else:
        pre = DelugePreprocessor(params_v3).build(image_v3)
    return image_v3, pre


@pytest.mark.parametrize("protocol", ["lr-seluge", "deluge"])
def test_upgrade_after_initial_dissemination(protocol):
    sim, trace, tracker, base, nodes, params, image_v2 = _network(protocol)
    base.start()
    result = run_network(sim, trace, tracker, nodes, protocol,
                         max_time=2400.0, expected_image=image_v2.data)
    assert result.completed

    image_v3, pre_v3 = _build_v3(protocol, params, 2500, 6, base, rngs_seed=6)
    base.publish_image(pre_v3)
    limit = sim.now + 2400.0
    while sim.now < limit and not all(
        n.complete and (n.pipeline.version or 0) == 3 for n in nodes
    ):
        sim.run(until=sim.now + 5.0)
    for node in nodes:
        assert node.pipeline.version == 3
        assert node.complete
        assert node.image_bytes() == image_v3.data


def test_upgrade_mid_dissemination():
    """Publishing v3 while v2 is still spreading: everyone ends on v3."""
    protocol = "lr-seluge"
    sim, trace, tracker, base, nodes, params, image_v2 = _network(
        protocol, loss=0.2, image_size=4000)
    base.start()
    sim.run(until=8.0)  # v2 partially disseminated
    assert any(not n.complete for n in nodes)
    image_v3, pre_v3 = _build_v3(protocol, params, 4000, 6, base, rngs_seed=6)
    base.publish_image(pre_v3)
    limit = sim.now + 3600.0
    while sim.now < limit and not all(
        n.complete and (n.pipeline.version or 0) == 3 for n in nodes
    ):
        sim.run(until=sim.now + 5.0)
    for node in nodes:
        assert node.pipeline.version == 3
        assert node.image_bytes() == image_v3.data


class _VersionLiar(AttackModel):
    """Broadcasts advertisements claiming a bogus newer version."""

    def _attack_once(self):
        from repro.core.packets import Advertisement
        from repro.net.packet import FrameKind

        forged = Advertisement(version=99, units_complete=9, total_units=9)
        self.broadcast(FrameKind.ADV, 20, forged)
        self.sent += 1


def test_secure_nodes_ignore_forged_version_advertisements():
    """A version-99 advertisement must not reset secure nodes' state."""
    sim, trace, tracker, base, nodes, params, image_v2 = _network(
        "lr-seluge", receivers=3, attacker_slot=True)
    liar = _VersionLiar(4, sim, base.radio, RngRegistry(77), trace, period=0.5)
    liar.start()
    base.start()
    result = run_network(sim, trace, tracker, nodes, "lr-seluge",
                         max_time=2400.0, expected_image=image_v2.data)
    assert result.completed and result.images_ok
    for node in nodes:
        assert node.pipeline.version == 2  # never adopted the phantom v99


def test_deluge_wedged_by_forged_version_advertisement():
    """The insecure baseline trusts the forged version and stalls on it."""
    sim, trace, tracker, base, nodes, params, image_v2 = _network(
        "deluge", receivers=3, attacker_slot=True)
    liar = _VersionLiar(4, sim, base.radio, RngRegistry(78), trace, period=0.3)
    liar.start()
    base.start()
    result = run_network(sim, trace, tracker, nodes, "deluge",
                         max_time=600.0, expected_image=image_v2.data)
    # Nodes reset to "version 99" for which no data exists: v2 never finishes.
    assert not result.completed
    assert any((n.pipeline.version or 0) == 99 for n in nodes)
