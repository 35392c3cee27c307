"""Tests of the shared MAINTAIN/RX/TX machinery through real networks."""

import pytest

from repro.core.packets import SnackRequest
from repro.net.packet import Frame, FrameKind


def test_single_receiver_completes_on_perfect_channel(harness):
    h = harness("lr-seluge", receivers=1)
    result = h.run()
    assert result.completed
    assert result.images_ok
    node = h.nodes[0]
    assert node.complete
    assert node.units_complete == h.pre.total_units
    assert node.completion_time > 0


def test_base_station_starts_complete(harness):
    h = harness("lr-seluge", receivers=1)
    assert h.base.complete
    assert h.base.units_complete == h.pre.total_units
    assert h.base.completion_time == 0.0


def test_completion_callback_invoked_once_per_node(harness):
    h = harness("seluge", receivers=3)
    result = h.run()
    assert result.completed
    assert set(result.per_node_completion) == {n.node_id for n in h.nodes}


def test_receivers_learn_neighbor_progress(harness):
    h = harness("deluge", receivers=2)
    h.run()
    node = h.nodes[0]
    assert node._neighbor_progress.get(0) == h.pre.total_units


def test_no_loss_means_minimal_data_transmissions(harness):
    """On a perfect channel every distinct packet is sent at most ~once."""
    h = harness("seluge", receivers=3)
    result = h.run()
    distinct = h.pre.data_packet_count() + 1  # + signature
    assert result.data_packets <= distinct * 1.25


def test_snack_flood_mitigation_bounds_service():
    """With the Section IV-E counter, repeated SNACKs are eventually ignored."""
    from repro.core.image import CodeImage
    from repro.experiments.runner import CompletionTracker
    from repro.net.channel import NoLoss
    from repro.net.radio import Radio, RadioConfig
    from repro.net.topology import star_topology
    from repro.protocols.seluge import build_seluge_network
    from repro.experiments.scenarios import make_params
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngRegistry
    from repro.sim.trace import TraceRecorder

    sim = Simulator()
    rngs = RngRegistry(3)
    trace = TraceRecorder()
    topo = star_topology(2)
    radio = Radio(sim, topo, NoLoss(), rngs, trace, config=RadioConfig(collisions=False))
    params = make_params("seluge", image_size=2000, k=8)
    image = CodeImage.synthetic(2000, version=2, seed=1)
    tracker = CompletionTracker(trace)
    base, nodes, pre = build_seluge_network(
        sim, radio, rngs, trace, params, image=image,
        on_complete=tracker, snack_flood_threshold=3,
    )
    # Node 1 behaves normally; node 2's pipeline is crippled so it keeps
    # requesting the same unit forever (a denial-of-receipt attacker).
    base.start()
    for node in nodes:
        node.start()
    attacker = nodes[1]
    victim_unit = 2

    def spam():
        request = SnackRequest(version=2, unit=victim_unit, requester=attacker.node_id,
                               server=0, needed=tuple(range(8)))
        attacker.broadcast(FrameKind.SNACK, 20, request, dest=0)
        sim.schedule(0.5, spam)

    sim.schedule(5.0, spam)
    sim.run(until=120.0)
    assert trace.counters.get("snack_ignored_flood", 0) > 0


def test_trickle_advertisements_continue_after_completion(harness):
    h = harness("deluge", receivers=2)
    h.run()
    before = h.trace.counters["tx_adv"]
    h.sim.run(until=h.sim.now + 300.0)
    assert h.trace.counters["tx_adv"] > before


def test_version_field_propagates(harness):
    h = harness("lr-seluge", receivers=1)
    h.run()
    assert h.nodes[0].pipeline.version == h.image.version


def _recording_node(harness):
    """A receiver whose four frame handlers only record what reached them."""
    h = harness("lr-seluge", receivers=2)
    node = h.nodes[0]
    handled = []
    for name in ("_on_adv", "_on_snack", "_on_data", "_on_signature"):
        setattr(node, name, lambda payload, sender, name=name:
                handled.append((name, sender)))
    return h, node, handled


def _deliver(node, kind, sender):
    node.on_receive(Frame(kind=kind, sender=sender, size_bytes=20,
                          payload=object()), sender)


def test_each_frame_kind_reaches_its_handler(harness):
    h, node, handled = _recording_node(harness)
    for kind in FrameKind:
        _deliver(node, kind, 7)
    assert handled == [("_on_data", 7), ("_on_snack", 7), ("_on_adv", 7),
                       ("_on_signature", 7)]


def test_crashed_node_handles_nothing(harness):
    h, node, handled = _recording_node(harness)
    node.crash()
    for kind in FrameKind:
        _deliver(node, kind, 0)
    assert handled == []


def _best_progress_holds(node):
    return node._best_progress == max(node._neighbor_progress.values(),
                                      default=-1)


def test_best_progress_tracks_every_progress_write(harness):
    """The kept best neighbour progress equals a recount after each write:
    adv (raising and lowering), SNACK, signature, data, crash, reboot,
    adoption, and the newer-version signature that adopts."""
    import dataclasses

    from repro.core.config import ImageConfig
    from repro.core.image import CodeImage
    from repro.core.packets import Advertisement
    from repro.core.preprocess import LRSelugePreprocessor
    from repro.crypto.ecdsa import generate_keypair
    from repro.crypto.puzzle import MessageSpecificPuzzle

    h = harness("lr-seluge", receivers=2)
    node = h.nodes[0]
    total = h.pre.total_units

    def adv(sender, units):
        node._on_adv(Advertisement(2, units, total), sender)

    def snack(sender, unit):
        node._on_snack(SnackRequest(2, unit, sender, 0, (0,)), sender)

    # (step, best progress after it)
    steps = [
        (lambda: node._on_signature(h.pre.signature_packet, 0), 1),
        (lambda: adv(0, 3), 3),
        (lambda: node._on_signature(h.pre.signature_packet, 2), 3),
        (lambda: adv(2, 5), 5),
        (lambda: adv(2, 1), 3),        # lowers the best: recounted
        (lambda: snack(2, 4), 4),
        (lambda: node._on_data(h.base.pipeline.serving_packets(1)[0], 9), 4),
        (lambda: adv(2, 0), 3),        # lowers the best again
        (lambda: adv(0, 1), 2),        # node 9's data progress is the best
        (lambda: adv(2, 2), 2),        # a tie
        (lambda: adv(9, 0), 2),        # the tie holds the best
        (lambda: adv(2, 0), 1),
        (node.crash, -1),
        (node.reboot, -1),
        (lambda: adv(0, total), -1),   # a fresh pipeline: a newer version
        (lambda: node._adopt_pipeline(node.pipeline_factory(2)), -1),
    ]
    for step, best in steps:
        step()
        assert _best_progress_holds(node)
        assert node._best_progress == best
    assert node._neighbor_progress == {}

    # A verified newer-version signature adopts a fresh pipeline and
    # records its sender at progress 1.
    image_v3 = CodeImage.synthetic(3000, version=3, seed=105)
    params_v3 = dataclasses.replace(
        h.params, image=ImageConfig(image_size=3000, version=3))
    pre_v3 = LRSelugePreprocessor(
        params_v3, generate_keypair(h.rngs.root_seed),
        MessageSpecificPuzzle(difficulty=10)).build(image_v3)
    node._on_signature(pre_v3.signature_packet, 7)
    assert node.pipeline.version == 3
    assert node._neighbor_progress == {7: 1}
    assert _best_progress_holds(node)


def test_best_progress_follows_an_insecure_version_adoption(harness):
    from repro.core.packets import Advertisement

    h = harness("deluge", receivers=2)
    node = h.nodes[0]
    node._on_adv(Advertisement(2, 4, h.pre.total_units), 2)
    node._on_adv(Advertisement(3, 1, h.pre.total_units), 0)
    assert node.pipeline.version == 3
    assert node._neighbor_progress == {0: 1}
    assert _best_progress_holds(node)


@pytest.mark.parametrize("protocol", ["lr-seluge", "deluge"])
def test_best_progress_holds_after_every_delivery_of_a_lossy_run(
        harness, monkeypatch, protocol):
    from repro.protocols.common import DisseminationNode

    checked = []
    on_receive = DisseminationNode.on_receive

    def checked_receive(self, frame, sender):
        on_receive(self, frame, sender)
        assert _best_progress_holds(self)
        checked.append(self.node_id)

    monkeypatch.setattr(DisseminationNode, "on_receive", checked_receive)
    h = harness(protocol, receivers=4, loss=0.3)
    assert h.run().completed
    assert len(checked) > 100


@pytest.mark.parametrize("protocol", ["deluge", "seluge", "lr-seluge"])
def test_out_of_range_data_is_dropped_before_it_counts(harness, protocol):
    """A data packet outside the image's fixed packet set (index past the
    unit's packet count, or unit past the unit count) is not buffered, does
    not raise its sender's progress and does not count as data heard."""
    import dataclasses

    from repro.core.packets import Advertisement

    h = harness(protocol, receivers=2)
    node = h.nodes[0]
    total = h.pre.total_units
    if node.uses_signature:
        node._on_signature(h.pre.signature_packet, 0)
    node._on_adv(Advertisement(2, total, total), 0)
    assert node.pipeline.total_units == total
    unit = node.units_complete
    n_packets, _ = node.pipeline.geometry(unit)
    good = h.base.pipeline.serving_packets(unit)[0]
    last_heard = dict(node._last_data_heard)
    for bad in (dataclasses.replace(good, index=n_packets),
                dataclasses.replace(good, index=n_packets + 7),
                dataclasses.replace(good, unit=total),
                dataclasses.replace(good, unit=total + 3)):
        node._on_data(bad, 9)
        assert node._rx_buffer == {}
        assert 9 not in node._neighbor_progress
        assert node._last_data_heard == last_heard
    # The in-range packet it was forged from is taken, by the same path
    # (Seluge's one-packet hash page decodes on the spot).
    node._on_data(good, 9)
    assert (node._rx_buffer == {good.index: good}
            or node.units_complete == unit + 1)
    assert node._neighbor_progress[9] == unit + 1
    assert node._last_data_heard[unit] == h.sim.now
