"""Unit tests for the broadcast radio and MAC."""

import pytest

from repro.errors import SimulationError
from repro.net.channel import BernoulliLoss, NoLoss, PerLinkLoss
from repro.net.node import NetworkNode
from repro.net.packet import Frame, FrameKind
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import star_topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


class Sink(NetworkNode):
    """Records every delivered frame."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_receive(self, frame, sender):
        self.received.append((frame, sender, self.sim.now))


def _network(n_receivers=3, loss=None, collisions=True):
    sim = Simulator()
    rngs = RngRegistry(1)
    trace = TraceRecorder()
    topo = star_topology(n_receivers)
    radio = Radio(sim, topo, loss or NoLoss(), rngs, trace,
                  config=RadioConfig(collisions=collisions))
    nodes = [Sink(i, sim, radio, rngs, trace) for i in topo.node_ids]
    return sim, radio, nodes, trace


def test_broadcast_reaches_all_neighbors():
    sim, radio, nodes, trace = _network()
    nodes[0].broadcast(FrameKind.DATA, 50, "payload")
    sim.run()
    for node in nodes[1:]:
        assert len(node.received) == 1
        frame, sender, _ = node.received[0]
        assert sender == 0
        assert frame.payload == "payload"
    assert nodes[0].received == []  # no self-delivery


def test_airtime_determines_delivery_time():
    sim, radio, nodes, trace = _network()
    nodes[0].broadcast(FrameKind.DATA, 50, "x")
    sim.run()
    expected = radio.config.airtime(50)
    assert nodes[1].received[0][2] == pytest.approx(expected)


def test_counters_by_kind_and_bytes():
    sim, radio, nodes, trace = _network()
    nodes[0].broadcast(FrameKind.DATA, 50, "d")
    nodes[1].broadcast(FrameKind.SNACK, 20, "s")
    sim.run()
    assert trace.counters["tx_data"] == 1
    assert trace.counters["tx_snack"] == 1
    assert trace.counters["tx_data_bytes"] == 50
    assert trace.counters["tx_total"] == 2
    assert trace.counters["rx_delivered"] == 2 * 3  # two frames, three listeners each


def test_sender_queue_serialises_frames():
    sim, radio, nodes, trace = _network()
    nodes[0].broadcast(FrameKind.DATA, 50, "a")
    nodes[0].broadcast(FrameKind.DATA, 50, "b")
    assert radio.queue_length(0) >= 1
    sim.run()
    times = [t for _, _, t in nodes[1].received]
    assert len(times) == 2
    assert times[1] >= times[0] + radio.config.airtime(50)


def test_bernoulli_loss_drops_some():
    sim, radio, nodes, trace = _network(n_receivers=5, loss=BernoulliLoss(0.5))
    for _ in range(40):
        nodes[0].broadcast(FrameKind.DATA, 30, "x")
    sim.run()
    delivered = sum(len(n.received) for n in nodes[1:])
    assert 40 < delivered < 160  # of 200 possible, ~100 expected
    assert trace.counters["rx_lost"] + trace.counters["rx_delivered"] == 200


def test_per_link_loss_respected():
    loss = PerLinkLoss({(0, 1): 0.0, (0, 2): 1.0, (0, 3): 0.0}, default=0.0)
    sim, radio, nodes, trace = _network(n_receivers=3, loss=loss)
    nodes[0].broadcast(FrameKind.DATA, 30, "x")
    sim.run()
    assert len(nodes[1].received) == 1
    assert len(nodes[2].received) == 0
    assert len(nodes[3].received) == 1


def test_receiver_table_follows_every_fault_surface_call():
    """Each call that changes who hears a sender rebuilds its receiver
    table: the next frame reaches exactly ``Radio.neighbors()``."""
    sim = Simulator()
    rngs = RngRegistry(1)
    trace = TraceRecorder()
    radio = Radio(sim, star_topology(3), NoLoss(), rngs, trace)
    nodes = [Sink(i, sim, radio, rngs, trace) for i in (0, 1, 2)]

    def receivers_of_next_frame():
        before = {node.node_id: len(node.received) for node in nodes}
        nodes[0].broadcast(FrameKind.DATA, 30, "x")
        sim.run()
        got = {node.node_id for node in nodes
               if len(node.received) > before[node.node_id]}
        assert got == set(radio.neighbors(0))
        return got

    assert receivers_of_next_frame() == {1, 2}
    radio.detach(1)
    assert receivers_of_next_frame() == {2}
    radio.attach(1)
    assert receivers_of_next_frame() == {1, 2}
    radio.set_link(0, 2, up=False)
    assert receivers_of_next_frame() == {1}
    radio.set_link(0, 2, up=True)
    assert receivers_of_next_frame() == {1, 2}
    nodes.append(Sink(3, sim, radio, rngs, trace))  # a late register
    assert receivers_of_next_frame() == {1, 2, 3}


def _custom_network(neighbors, collisions=True):
    from repro.net.topology import Topology

    positions = {i: (float(i), 0.0) for i in neighbors}
    topo = Topology(positions=positions, neighbors={u: list(vs) for u, vs in neighbors.items()})
    for u, vs in neighbors.items():
        for v in vs:
            topo.link_loss[(u, v)] = 0.0
    sim = Simulator()
    rngs = RngRegistry(1)
    trace = TraceRecorder()
    radio = Radio(sim, topo, NoLoss(), rngs, trace,
                  config=RadioConfig(collisions=collisions))
    nodes = {i: Sink(i, sim, radio, rngs, trace) for i in neighbors}
    return sim, radio, nodes, trace


def test_collision_hidden_terminal():
    # 1 -- 2 -- 3: nodes 1 and 3 cannot hear each other (no carrier sense),
    # so their simultaneous frames collide at node 2.
    sim, radio, nodes, trace = _custom_network({1: [2], 2: [1, 3], 3: [2]})
    nodes[1].broadcast(FrameKind.DATA, 50, "a")
    nodes[3].broadcast(FrameKind.DATA, 50, "b")
    sim.run()
    assert trace.counters.get("rx_collision", 0) == 2  # both lost at node 2
    assert len(nodes[2].received) == 0


def test_half_duplex_sender_misses_concurrent_frame():
    # Node 1 cannot hear node 2 (asymmetric: neighbors[2] lacks 1), so it
    # transmits over node 2's frame — and node 2, busy sending, misses
    # node 1's frame (half-duplex).
    sim, radio, nodes, trace = _custom_network({1: [2, 3], 2: [3], 3: []})
    nodes[2].broadcast(FrameKind.DATA, 50, "b")
    nodes[1].broadcast(FrameKind.DATA, 50, "a")
    sim.run()
    assert trace.counters.get("rx_halfduplex_miss", 0) >= 1
    assert len(nodes[2].received) == 0


def test_no_collisions_when_disabled():
    sim, radio, nodes, trace = _network(n_receivers=3, collisions=False)
    nodes[1].broadcast(FrameKind.DATA, 50, "a")
    nodes[2].broadcast(FrameKind.DATA, 50, "b")
    sim.run()
    assert trace.counters.get("rx_collision", 0) == 0
    # Everyone except the senders hears both frames.
    assert len(nodes[3].received) == 2


def test_carrier_sense_defers_second_sender():
    sim, radio, nodes, trace = _network(n_receivers=3, collisions=True)
    nodes[1].broadcast(FrameKind.DATA, 200, "long")
    # Start the second transmission while the first is on the air.
    sim.schedule(radio.config.airtime(200) / 2,
                 lambda: nodes[2].broadcast(FrameKind.DATA, 50, "late"))
    sim.run()
    # The late frame must not have collided: carrier sense deferred it.
    assert len(nodes[3].received) == 2


def test_duplicate_registration_rejected():
    sim, radio, nodes, trace = _network()
    with pytest.raises(SimulationError):
        Sink(1, sim, radio, RngRegistry(2), trace)


def test_unknown_node_id_rejected():
    sim, radio, nodes, trace = _network()
    with pytest.raises(SimulationError):
        Sink(99, sim, radio, RngRegistry(2), trace)


def test_frame_size_must_be_positive():
    with pytest.raises(ValueError):
        Frame(kind=FrameKind.DATA, sender=0, size_bytes=0, payload=None)
