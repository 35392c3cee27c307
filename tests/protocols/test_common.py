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
