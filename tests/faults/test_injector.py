"""Unit tests for FaultInjector and the radio-level fault hooks."""

import pytest

from repro.core.packets import DataPacket
from repro.errors import SimulationError
from repro.faults import FaultInjector, FaultPlan
from repro.net.channel import NoLoss
from repro.net.node import NetworkNode
from repro.net.packet import FrameKind
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import Topology, star_topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


class Sink(NetworkNode):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_receive(self, frame, sender):
        self.received.append((frame, sender))


def _network(topo=None, n_receivers=3):
    sim = Simulator()
    rngs = RngRegistry(1)
    trace = TraceRecorder()
    topo = topo or star_topology(n_receivers)
    radio = Radio(sim, topo, NoLoss(), rngs, trace,
                  config=RadioConfig(collisions=False))
    nodes = [Sink(i, sim, radio, rngs, trace) for i in topo.node_ids]
    return sim, radio, nodes, trace, rngs


def _install(sim, radio, trace, nodes, plan, rngs):
    injector = FaultInjector(sim, radio, trace, nodes, plan, rngs)
    injector.install()
    return injector


def _line_topology():
    # 0 - 1 - 2 - 3 chain
    neighbors = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
    positions = {i: (float(i), 0.0) for i in range(4)}
    loss = {(u, v): 0.0 for u, vs in neighbors.items() for v in vs}
    return Topology(positions=positions, neighbors=neighbors, link_loss=loss)


# -- radio primitives ---------------------------------------------------------


def test_detached_node_neither_sends_nor_receives():
    sim, radio, nodes, trace, rngs = _network()
    radio.detach(1)
    nodes[0].broadcast(FrameKind.DATA, 50, "x")
    sim.run()
    assert nodes[1].received == []
    assert len(nodes[2].received) == 1
    nodes[1].broadcast(FrameKind.DATA, 50, "y")
    sim.run()
    assert all(not n.received or n.received[-1][0].payload != "y"
               for n in (nodes[0], nodes[2]))
    radio.attach(1)
    nodes[0].broadcast(FrameKind.DATA, 50, "z")
    sim.run()
    assert nodes[1].received[-1][0].payload == "z"


def test_detach_aborts_in_flight_transmission():
    sim, radio, nodes, trace, rngs = _network()
    nodes[1].broadcast(FrameKind.DATA, 200, "doomed")
    sim.schedule(radio.config.airtime(200) / 2, radio.detach, 1)
    sim.run()
    assert nodes[0].received == []
    assert nodes[2].received == []
    assert trace.counters.get("tx_aborted", 0) == 1


def test_link_down_is_directional():
    sim, radio, nodes, trace, rngs = _network()
    radio.set_link(0, 1, up=False)
    nodes[0].broadcast(FrameKind.DATA, 50, "a")
    sim.run()
    assert nodes[1].received == []        # 0 -> 1 cut
    assert len(nodes[2].received) == 1    # 0 -> 2 unaffected
    nodes[1].broadcast(FrameKind.DATA, 50, "b")
    sim.run()
    assert nodes[0].received[-1][0].payload == "b"  # 1 -> 0 still up
    radio.set_link(0, 1, up=True)
    nodes[0].broadcast(FrameKind.DATA, 50, "c")
    sim.run()
    assert nodes[1].received[-1][0].payload == "c"


# -- injector plan replay -----------------------------------------------------


def test_injector_crash_reboot_calls_node_hooks():
    calls = []

    class Crashable(Sink):
        def crash(self):
            calls.append(("crash", self.node_id))

        def reboot(self):
            calls.append(("reboot", self.node_id))

    sim = Simulator()
    rngs = RngRegistry(1)
    trace = TraceRecorder()
    topo = star_topology(2)
    radio = Radio(sim, topo, NoLoss(), rngs, trace,
                  config=RadioConfig(collisions=False))
    nodes = [Crashable(i, sim, radio, rngs, trace) for i in topo.node_ids]
    plan = FaultPlan().crash(1.0, 2, reboot_after=2.0)
    _install(sim, radio, trace, nodes, plan, rngs)
    sim.run()
    assert calls == [("crash", 2), ("reboot", 2)]


def test_injector_rejects_double_install_and_unknown_node():
    sim, radio, nodes, trace, rngs = _network()
    injector = _install(sim, radio, trace, nodes, FaultPlan(), rngs)
    with pytest.raises(SimulationError):
        injector.install()
    sim2, radio2, nodes2, trace2, rngs2 = _network()
    plan = FaultPlan().crash(1.0, 99)
    _install(sim2, radio2, trace2, nodes2, plan, rngs2)
    with pytest.raises(SimulationError):
        sim2.run()


def test_partition_and_heal():
    sim, radio, nodes, trace, rngs = _network(topo=_line_topology())
    plan = FaultPlan().partition(1.0, [0, 1], [2, 3], heal_after=5.0)
    _install(sim, radio, trace, nodes, plan, rngs)
    sim.run(until=2.0)
    nodes[1].broadcast(FrameKind.DATA, 50, "cut")
    sim.run(until=3.0)
    assert nodes[0].received[-1][0].payload == "cut"   # same group
    assert nodes[2].received == []                     # across the cut
    sim.run(until=7.0)                                 # heal at t=6
    nodes[1].broadcast(FrameKind.DATA, 50, "healed")
    sim.run()
    assert nodes[2].received[-1][0].payload == "healed"


def test_heal_does_not_restore_explicitly_downed_links():
    sim, radio, nodes, trace, rngs = _network(topo=_line_topology())
    plan = (
        FaultPlan()
        .link_down(0.5, 1, 0)
        .partition(1.0, [0, 1], [2, 3], heal_after=1.0)
    )
    _install(sim, radio, trace, nodes, plan, rngs)
    sim.run(until=3.0)
    assert radio.link_is_up(1, 2)       # partition healed
    assert not radio.link_is_up(1, 0)   # explicit link-down stays down


# -- frame corruption ---------------------------------------------------------


def _data_frame_payload():
    return DataPacket(version=2, unit=3, index=1, payload=b"\x55" * 16)


def test_corrupt_flip_mangles_data_payloads():
    sim, radio, nodes, trace, rngs = _network()
    plan = FaultPlan().corrupt(0.0, duration=100.0, rate=1.0, mode="flip")
    _install(sim, radio, trace, nodes, plan, rngs)
    nodes[0].broadcast(FrameKind.DATA, 50, _data_frame_payload())
    sim.run()
    for node in nodes[1:]:
        payload = node.received[0][0].payload.payload
        assert payload[0] == 0x55 ^ 0xFF
        assert payload[1:] == b"\x55" * 15
    assert trace.counters["fault_corrupt_delivered"] == 3


def test_corrupt_truncate_shortens_payload():
    sim, radio, nodes, trace, rngs = _network()
    plan = FaultPlan().corrupt(0.0, duration=100.0, rate=1.0, mode="truncate")
    _install(sim, radio, trace, nodes, plan, rngs)
    nodes[0].broadcast(FrameKind.DATA, 50, _data_frame_payload())
    sim.run()
    assert len(nodes[1].received[0][0].payload.payload) == 8


def test_corrupt_drop_and_non_data_frames_vanish():
    sim, radio, nodes, trace, rngs = _network()
    plan = FaultPlan().corrupt(0.0, duration=100.0, rate=1.0, mode="drop")
    _install(sim, radio, trace, nodes, plan, rngs)
    nodes[0].broadcast(FrameKind.DATA, 50, _data_frame_payload())
    nodes[0].broadcast(FrameKind.ADV, 30, "not-a-data-packet")
    sim.run()
    assert all(n.received == [] for n in nodes[1:])
    assert trace.counters["fault_corrupt_dropped"] == 6


def test_corrupt_window_expires():
    sim, radio, nodes, trace, rngs = _network()
    plan = FaultPlan().corrupt(0.0, duration=1.0, rate=1.0, mode="drop")
    _install(sim, radio, trace, nodes, plan, rngs)
    sim.run(until=2.0)
    nodes[0].broadcast(FrameKind.DATA, 50, _data_frame_payload())
    sim.run()
    assert len(nodes[1].received) == 1  # delivered untouched
    assert nodes[1].received[0][0].payload.payload == b"\x55" * 16
