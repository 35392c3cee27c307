"""Brute-force oracle for the radio's collision model.

The reference below keeps every aired frame forever and decides each
(frame, receiver) outcome by pairwise interval overlap, with no pruning and
no incremental state:

* ``r`` hears ``s`` iff ``r in topology.neighbors[s]`` — the direction
  delivery uses.  Interference reads the raw topology, so a directed link
  taken down with ``set_link`` still interferes; only delivery is gated.
* Overlap is strict: a frame ending at ``t`` and one starting at ``t`` do
  not overlap.
* A frame is lost at ``r`` to half-duplex if ``r`` aired any overlapping
  frame, else to a collision if ``r`` heard any overlapping frame from
  another sender.  Aborted frames (sender detached mid-frame) deliver to
  nobody but still count as interference until their scheduled end.

The radio must agree with it outcome for outcome.
"""

import random

import pytest

from repro.net.channel import NoLoss
from repro.net.node import NetworkNode
from repro.net.packet import FrameKind
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import Topology
from repro.obs.events import EventLog
from repro.obs.flight import FlightRecorder
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Observer, TraceRecorder


class Sink(NetworkNode):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_receive(self, frame, sender):
        self.received.append((frame.payload, sender))


class OutcomeLog(Observer):
    """Seam subscriber recording what the radio decided per frame."""

    def __init__(self):
        self.aired = {}     # frame_id -> (sender, start, size_bytes)
        self.outcomes = {}  # (frame_id, receiver) -> cause | "delivered"

    def on_tx(self, ts, frame, unit):
        self.aired[frame.frame_id] = (frame.sender, ts, frame.size_bytes)

    def on_frame(self, ts, frame, start, delivered, lost):
        for dst in delivered:
            self.outcomes[(frame.frame_id, dst)] = "delivered"
        for dst, cause in lost:
            self.outcomes[(frame.frame_id, dst)] = cause


class Net:
    """A radio on a hand-made topology, plus the fault schedule it ran."""

    def __init__(self, neighbors):
        positions = {i: (float(i), 0.0) for i in neighbors}
        self.topo = Topology(positions=positions,
                             neighbors={u: list(vs) for u, vs in neighbors.items()})
        self.sim = Simulator()
        rngs = RngRegistry(1)
        self.trace = TraceRecorder()
        self.log = OutcomeLog()
        self.trace.subscribe(self.log)
        self.radio = Radio(self.sim, self.topo, NoLoss(), rngs, self.trace,
                           config=RadioConfig(collisions=True))
        self.nodes = {i: Sink(i, self.sim, self.radio, rngs, self.trace)
                      for i in neighbors}
        self.detach_log = []   # (time, node, attached_after)
        self.link_log = []     # (time, sender, receiver, up_after)

    def send_at(self, t, node, size, payload=None):
        self.sim.schedule(t, lambda: self.nodes[node].broadcast(
            FrameKind.DATA, size, payload))

    def detach_at(self, t, node):
        self.sim.schedule(t, self._detach, node)

    def attach_at(self, t, node):
        self.sim.schedule(t, self._attach, node)

    def link_at(self, t, sender, receiver, up):
        self.sim.schedule(t, self._link, sender, receiver, up)

    def _detach(self, node):
        self.radio.detach(node)
        self.detach_log.append((self.sim.now, node, False))

    def _attach(self, node):
        self.radio.attach(node)
        self.detach_log.append((self.sim.now, node, True))

    def _link(self, sender, receiver, up):
        self.radio.set_link(sender, receiver, up)
        self.link_log.append((self.sim.now, sender, receiver, up))

    def run(self):
        self.sim.run()
        return self


def _state_at(log, key, t, initial):
    """Last value ``log`` set for ``key`` strictly before ``t``."""
    state = initial
    for when, k, value in log:
        if k == key and when < t:
            state = value
    return state


def oracle(net):
    """Every (frame, receiver) outcome, decided from the whole schedule."""
    airtime = net.radio.config.airtime
    frames = [(fid, sender, start, start + airtime(size))
              for fid, (sender, start, size) in net.log.aired.items()]
    detaches = net.detach_log
    links = [(t, (s, r), up) for t, s, r, up in net.link_log]

    def aborted(sender, start, end):
        return any(node == sender and not up and start <= t < end
                   for t, node, up in detaches)

    outcomes = {}
    for fid, sender, start, end in frames:
        if aborted(sender, start, end):
            continue
        for r in net.topo.neighbors[sender]:
            if not _state_at(detaches, r, end, True):
                continue
            if not _state_at(links, (sender, r), end, True):
                continue
            overlapping = [s2 for fid2, s2, st2, e2 in frames
                           if fid2 != fid and st2 < end and start < e2]
            if r in overlapping:
                outcomes[(fid, r)] = "halfduplex"
            elif any(s2 != sender and r in net.topo.neighbors[s2]
                     for s2 in overlapping):
                outcomes[(fid, r)] = "collision"
            else:
                outcomes[(fid, r)] = "delivered"
    return outcomes


def _prune_miss_net():
    # Hidden terminals A(1) - R(2) - B(3), and a far pair C(4) - D(5).
    net = Net({1: [2], 2: [1, 3], 3: [2], 4: [5], 5: [4]})
    net.send_at(0.0, 1, 4000, "A-long")       # ~1.67 s on air
    net.send_at(0.001, 3, 10, "B-short")      # inside A's frame
    for _ in range(400):                      # > 256 finished frames
        net.send_at(0.002, 4, 1, "far")
    return net.run()


def test_prune_miss_long_frame_still_collides():
    net = _prune_miss_net()
    assert net.trace.counters["tx_total"] == 402
    # Neither hidden-terminal frame survives at R: B's short frame collided
    # with A's long one, and A's long frame with B's short one, even though
    # hundreds of unrelated frames finished in between.
    assert net.nodes[2].received == []
    assert net.trace.counters.get("rx_collision", 0) == 2
    assert net.log.outcomes == oracle(net)


def test_aborted_frame_jams_until_scheduled_end():
    # A(1) and B(3) are hidden from each other; A crashes mid-frame, and
    # B's frame ends after A's aborted frame would have.
    net = Net({1: [2], 2: [1, 3], 3: [2]})
    net.send_at(0.0, 1, 200, "A")
    net.send_at(0.01, 3, 200, "B")
    net.detach_at(0.02, 1)
    net.run()
    assert net.trace.counters["tx_aborted"] == 1
    assert net.nodes[2].received == []
    assert net.trace.counters.get("rx_collision", 0) == 1
    assert net.log.outcomes == oracle(net)


def test_link_down_still_interferes():
    net = Net({1: [2], 2: [1, 3], 3: [2]})
    net.link_at(0.0, 1, 2, False)
    net.send_at(0.001, 1, 100, "A")
    net.send_at(0.002, 3, 100, "B")
    net.run()
    # No attempt is made on the down link 1 -> 2, but A's frame is still
    # on the air at R and corrupts B's.
    assert (min(net.log.aired), 2) not in net.log.outcomes
    assert net.nodes[2].received == []
    assert net.trace.counters.get("rx_collision", 0) == 1
    assert net.log.outcomes == oracle(net)


def test_asymmetric_links_interfere_in_the_delivery_direction():
    # 1 and 2 both reach 3, which reaches neither: their frames collide at 3.
    net = Net({1: [3], 2: [3], 3: []})
    net.send_at(0.0, 1, 50, "a")
    net.send_at(0.0, 2, 50, "b")
    net.run()
    assert net.nodes[3].received == []
    assert net.trace.counters.get("rx_collision", 0) == 2
    assert net.log.outcomes == oracle(net)

    # 3 reaches 2 but cannot hear it: 2's frame does not jam 1's at 3.
    net = Net({1: [3], 2: [], 3: [2]})
    net.send_at(0.0, 1, 50, "a")
    net.send_at(0.0, 2, 50, "b")
    net.run()
    assert net.nodes[3].received == [("a", 1)]
    assert net.trace.counters.get("rx_collision", 0) == 0
    assert net.log.outcomes == oracle(net)


@pytest.mark.parametrize("end_runs_first", [False, True])
def test_back_to_back_frames_do_not_collide(end_runs_first):
    # 2 starts the instant 1's frame ends: strict overlap says no collision,
    # whichever of the end and start events the engine runs first.
    net = Net({1: [2, 3], 2: [3], 3: [1, 2]})
    t_end = net.radio.config.airtime(50)
    net.send_at(0.0, 1, 50, "a")
    if end_runs_first:
        # Queued after 1's end event, so that event runs first at t_end.
        net.sim.schedule(0.0, net.send_at, t_end, 2, 50, "b")
    else:
        net.send_at(t_end, 2, 50, "b")
    net.run()
    assert net.nodes[3].received == [("a", 1), ("b", 2)]
    assert net.log.outcomes == oracle(net)


def _random_topology(rnd, n, symmetric):
    neighbors = {u: [] for u in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if symmetric:
                if rnd.random() < 0.45:
                    neighbors[u].append(v)
                    neighbors[v].append(u)
            else:
                if rnd.random() < 0.45:
                    neighbors[u].append(v)
                if rnd.random() < 0.45:
                    neighbors[v].append(u)
    return neighbors


def _random_net(seed, symmetric, n=12, horizon=20.0):
    rnd = random.Random(seed)
    net = Net(_random_topology(rnd, n, symmetric))
    for _ in range(700):
        net.send_at(rnd.uniform(0.0, horizon), rnd.randrange(n),
                    rnd.choice([1, 1, 1, 4, 20, 60, 200, 700, 3000]))
    for _ in range(6):
        t = rnd.uniform(0.0, horizon)
        s, r = rnd.randrange(n), rnd.randrange(n)
        net.link_at(t, s, r, False)
        net.link_at(t + rnd.uniform(0.05, 1.0), s, r, True)
    for _ in range(3):
        t = rnd.uniform(0.0, horizon)
        node = rnd.randrange(n)
        net.detach_at(t, node)
        net.attach_at(t + rnd.uniform(0.01, 0.5), node)
    return net


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("seed", [1, 4, 5, 6])
def test_random_schedules_match_oracle(seed, symmetric):
    net = _random_net(seed, symmetric).run()
    assert net.trace.counters["tx_total"] > 256
    expected = oracle(net)
    assert set(net.log.outcomes) == set(expected)
    mismatched = {key: (net.log.outcomes[key], want)
                  for key, want in expected.items()
                  if net.log.outcomes[key] != want}
    assert mismatched == {}
    assert "collision" in expected.values()
    # Carrier sense over symmetric links rules half-duplex losses out.
    assert ("halfduplex" in expected.values()) is not symmetric


def _flight(net):
    log = EventLog()
    flight = FlightRecorder(log)
    net.trace.subscribe(flight)
    return log, flight


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("seed", [1, 4, 5, 6])
def test_frame_records_partition_the_up_neighbours(seed, symmetric):
    """One flight ``frame`` record per aired frame.  A finished frame's
    ``rx`` and ``lost`` split, without overlap, exactly the sender's
    attached neighbours over up links at frame end (nobody, if the sender
    was detached mid-frame)."""
    net = _random_net(seed, symmetric)
    log, flight = _flight(net)
    net.sim.run(until=15.0)
    flight.finalize(net.sim.now)

    records = log.of_kind("frame")
    assert sorted(e.detail["frame"] for e in records) == sorted(net.log.aired)
    detaches = net.detach_log
    links = [(t, (s, r), up) for t, s, r, up in net.link_log]
    for e in records:
        d, sender = e.detail, e.node
        assert d["frame"][0] == sender
        lost = [r for r, _cause in d["lost"]]
        assert len(set(d["rx"]) | set(lost)) == len(d["rx"]) + len(lost)
        if d.get("open"):
            expected = set()
        elif any(node == sender and not up and e.ts <= t < d["end"]
                 for t, node, up in detaches):
            expected = set()  # aborted
        else:
            expected = {r for r in net.topo.neighbors[sender]
                        if _state_at(detaches, r, d["end"], True)
                        and _state_at(links, (sender, r), d["end"], True)}
        assert set(d["rx"]) | set(lost) == expected


def test_aborted_and_open_frames_get_one_record_each():
    net = Net({1: [2], 2: [1]})
    net.send_at(0.0, 1, 200, "aborted")
    net.detach_at(0.02, 1)
    net.send_at(0.5, 2, 4000, "open")     # ~1.67 s on air
    log, flight = _flight(net)
    net.sim.run(until=1.0)
    flight.finalize(net.sim.now)
    aborted, still_on_air = log.of_kind("frame")
    assert (aborted.node, aborted.ts, aborted.detail["end"]) == (
        1, 0.0, pytest.approx(net.radio.config.airtime(200)))
    assert aborted.detail["rx"] == aborted.detail["lost"] == ()
    assert "open" not in aborted.detail
    assert (still_on_air.node, still_on_air.ts) == (2, 0.5)
    assert still_on_air.detail["open"] is True
    assert still_on_air.detail["end"] == 1.0
    assert still_on_air.detail["rx"] == still_on_air.detail["lost"] == ()
