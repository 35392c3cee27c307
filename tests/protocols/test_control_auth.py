"""Tests for control-packet authentication (cluster and pairwise keys)."""

import pytest

from repro.attacks import ControlForger
from repro.core.image import CodeImage
from repro.core.packets import Advertisement, SnackRequest
from repro.crypto.keys import ClusterKey
from repro.experiments.runner import CompletionTracker, run_network
from repro.experiments.scenarios import make_params
from repro.net.channel import NoLoss
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import star_topology
from repro.protocols.control_auth import (
    ClusterAuthenticator,
    PairwiseAuthenticator,
    make_authenticator,
)
from repro.protocols.lr_seluge import build_lr_seluge_network
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

SECRET = b"cluster-secret-1"


def _adv(units=3):
    return Advertisement(version=2, units_complete=units, total_units=10)


def _snack(requester=3, server=0):
    return SnackRequest(version=2, unit=4, requester=requester, server=server,
                        needed=(0, 1, 5))


def test_cluster_roundtrip():
    a = ClusterAuthenticator(1, ClusterKey(SECRET))
    b = ClusterAuthenticator(2, ClusterKey(SECRET))
    adv = _adv()
    assert b.check_adv(adv, a.tag_adv(adv), sender=1)
    snack = _snack()
    assert b.check_snack(snack, a.tag_snack(snack), sender=3)


def test_cluster_rejects_wrong_key():
    a = ClusterAuthenticator(1, ClusterKey(SECRET))
    outsider = ClusterAuthenticator(9, ClusterKey(b"other-secret-xyz"))
    adv = _adv()
    assert not a.check_adv(adv, outsider.tag_adv(adv), sender=9)


def test_cluster_rejects_tampered_content():
    a = ClusterAuthenticator(1, ClusterKey(SECRET))
    tag = a.tag_adv(_adv(units=3))
    assert not a.check_adv(_adv(units=9), tag, sender=1)


def test_pairwise_roundtrip_and_source_binding():
    requester = PairwiseAuthenticator(3, ClusterKey(SECRET))
    server = PairwiseAuthenticator(0, ClusterKey(SECRET))
    snack = _snack(requester=3, server=0)
    tag = requester.tag_snack(snack)
    assert server.check_snack(snack, tag, sender=3)
    # A compromised node 7 replaying node 3's SNACK is rejected: the claimed
    # requester does not match the actual sender.
    assert not server.check_snack(snack, tag, sender=7)


def test_pairwise_rejects_spoofed_requester():
    """A compromised insider cannot SNACK in another node's name."""
    insider = PairwiseAuthenticator(7, ClusterKey(SECRET))
    server = PairwiseAuthenticator(0, ClusterKey(SECRET))
    spoofed = _snack(requester=3, server=0)  # claims to be node 3
    tag = insider._cluster.pairwise(7, 0).tag(b"whatever")
    assert not server.check_snack(spoofed, tag, sender=7)


def test_make_authenticator_modes():
    assert make_authenticator(None, 1, SECRET) is None
    assert make_authenticator("none", 1, SECRET) is None
    assert isinstance(make_authenticator("cluster", 1, SECRET), ClusterAuthenticator)
    assert isinstance(make_authenticator("pairwise", 1, SECRET), PairwiseAuthenticator)
    with pytest.raises(ValueError):
        make_authenticator("quantum", 1, SECRET)


def _network_under_control_forgery(control_auth):
    sim = Simulator()
    rngs = RngRegistry(6)
    trace = TraceRecorder()
    topo = star_topology(4)
    radio = Radio(sim, topo, NoLoss(), rngs, trace,
                  config=RadioConfig(collisions=False))
    params = make_params("lr-seluge", image_size=2500, k=8, n=12)
    image = CodeImage.synthetic(2500, version=2, seed=6)
    tracker = CompletionTracker(trace)
    base, nodes, pre = build_lr_seluge_network(
        sim, radio, rngs, trace, params, image=image,
        receiver_ids=[1, 2, 3], on_complete=tracker,
        control_auth=control_auth,
    )
    attacker = ControlForger(4, sim, radio, rngs, trace, period=0.3,
                             total_units=pre.total_units, n_packets=12)
    attacker.start()
    base.start()
    result = run_network(sim, trace, tracker, nodes, "lr-seluge",
                         max_time=1800.0, expected_image=image.data)
    return result, trace, attacker


def test_forged_control_rejected_with_auth():
    result, trace, attacker = _network_under_control_forgery("cluster")
    assert result.completed and result.images_ok
    assert attacker.sent > 0
    rejects = (trace.counters.get("ctrl_auth_reject_adv", 0)
               + trace.counters.get("ctrl_auth_reject_snack", 0))
    assert rejects > 0


def test_forged_control_processed_without_auth():
    result, trace, attacker = _network_under_control_forgery(None)
    # Without MACs the forged control packets are processed (the attack
    # surface the cluster key closes); dissemination may still complete.
    assert trace.counters.get("ctrl_auth_reject_adv", 0) == 0
    assert trace.counters.get("attack_forged_control", 0) > 0


def test_legit_dissemination_unaffected_by_pairwise_auth():
    sim = Simulator()
    rngs = RngRegistry(7)
    trace = TraceRecorder()
    topo = star_topology(3)
    radio = Radio(sim, topo, NoLoss(), rngs, trace,
                  config=RadioConfig(collisions=False))
    params = make_params("lr-seluge", image_size=2500, k=8, n=12)
    image = CodeImage.synthetic(2500, version=2, seed=7)
    tracker = CompletionTracker(trace)
    base, nodes, pre = build_lr_seluge_network(
        sim, radio, rngs, trace, params, image=image,
        on_complete=tracker, control_auth="pairwise",
    )
    base.start()
    result = run_network(sim, trace, tracker, nodes, "lr-seluge",
                         max_time=1800.0, expected_image=image.data)
    assert result.completed and result.images_ok
    assert trace.counters.get("ctrl_auth_reject_snack", 0) == 0