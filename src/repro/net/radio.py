"""Broadcast radio with CSMA MAC, half-duplex nodes, and collision modelling.

Every transmission is a local broadcast: each neighbor of the sender receives
the frame at transmission end unless (a) it was itself transmitting
(half-duplex), (b) another audible transmission overlapped in time
(collision), or (c) the loss model drops it.  Carrier sensing defers a send
while any audible transmission is on the air, then retries after a random
backoff — a deliberately simple CSMA in the spirit of the mica2 stack.

``r`` hears ``s`` iff ``r in topology.neighbors[s]``, for delivery, carrier
sense and interference alike.  Collisions are decided by per-receiver
reception state updated when a frame starts and when it ends (O(degree)
each): every node keeps the frames it is hearing, and a frame starting while
another is still on the air (strict overlap: ``end > now``) marks both as
collided there.

Each outcome — a frame queued, aired, delivered, lost (with its cause) or
dropped by the MAC — is reported once, to the run's
:class:`~repro.sim.trace.TraceRecorder`.  Deliveries and losses are the
per-receiver outcomes, so the delivery loop bumps their counters and the
current-frame mark inline instead of calling the recorder; at frame end the
radio hands it the frame's receivers and losses in one report, so observers
see each aired frame once.

The one-hop experiments can disable collision modelling (the paper places
nodes "close enough to eliminate packet transmission errors caused by channel
impairments" and emulates all losses at the application layer).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, List, Optional, Sequence, Set,
                    Tuple, TYPE_CHECKING)

from repro.errors import SimulationError
from repro.net.channel import LossModel
from repro.net.packet import Frame
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import LOSS_COUNTERS, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import NetworkNode

__all__ = ["RadioConfig", "Radio"]


@dataclass(frozen=True)
class RadioConfig:  # replint: disable=REP017 -- built once per run, not per event; slots=True needs py>=3.10 and the CI matrix still runs 3.9
    """Physical/MAC constants (mica2 CC1000 flavour)."""

    bitrate_bps: float = 19200.0
    preamble_bytes: int = 8
    backoff_min_s: float = 0.005
    backoff_max_s: float = 0.040
    collisions: bool = True
    max_backoff_attempts: int = 60

    def airtime(self, size_bytes: int) -> float:
        """Seconds a frame of ``size_bytes`` occupies the channel."""
        return (size_bytes + self.preamble_bytes) * 8.0 / self.bitrate_bps


class _Transmission:
    __slots__ = ("sender", "frame", "start", "end", "hearing", "collided",
                 "halfduplex")

    def __init__(self, sender: int, frame: Frame, start: float, end: float):
        self.sender = sender
        self.frame = frame
        self.start = start
        self.end = end
        # Collision modelling only: the listeners' hearing lists this frame
        # sits in, and the listeners at which it is lost (allocated on the
        # first loss; membership tests only).
        self.hearing: Sequence[List["_Transmission"]] = ()
        self.collided: Optional[Set[int]] = None
        self.halfduplex: Optional[Set[int]] = None

    def collide_at(self, node_id: int) -> None:
        if self.collided is None:
            self.collided = {node_id}
        else:
            self.collided.add(node_id)

    def halfduplex_at(self, node_id: int) -> None:
        if self.halfduplex is None:
            self.halfduplex = {node_id}
        else:
            self.halfduplex.add(node_id)


class Radio:
    """The shared broadcast medium plus one MAC queue per node."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        loss_model: LossModel,
        rngs: RngRegistry,
        trace: TraceRecorder,
        config: Optional[RadioConfig] = None,
    ):
        self.sim = sim
        self.topology = topology
        self.loss_model = loss_model
        self.rngs = rngs
        self.trace = trace
        self.config = config or RadioConfig()
        self._nodes: Dict[int, "NetworkNode"] = {}
        self._queues: Dict[int, Deque[Frame]] = {}
        self._backoffs: Dict[int, int] = {}
        # Each node's frame on the air, kept until its end, and, with
        # collisions on, the frames each node is hearing.
        self._on_air: Dict[int, _Transmission] = {}
        self._hearing: Dict[int, List[_Transmission]] = {}
        # Per sender, its ``neighbors()`` with their receive handlers, built
        # at the sender's first frame end and cleared by register.
        # ``topology.neighbors`` may change only before a ``register`` call
        # (as the attack engine's placement does), or delivery goes on using
        # the stale table.
        self._receivers: Dict[int, List[Tuple[int, Callable[[Frame, int], None]]]] = {}
        trace.observe_radio(self)

    # -- registration -------------------------------------------------------

    def register(self, node: "NetworkNode") -> None:
        """Attach a node; it must have a unique id present in the topology."""
        if node.node_id in self._nodes:
            raise SimulationError(f"node id {node.node_id} registered twice")
        if node.node_id not in self.topology.positions:
            raise SimulationError(f"node id {node.node_id} not in topology")
        self._nodes[node.node_id] = node
        self._queues[node.node_id] = deque()
        self._backoffs[node.node_id] = 0
        self._receivers.clear()

    def node(self, node_id: int) -> "NetworkNode":
        return self._nodes[node_id]

    def neighbors(self, node_id: int) -> List[int]:
        """Registered neighbors, in topology order."""
        return [v for v in self.topology.neighbors.get(node_id, [])
                if v in self._nodes]

    # -- send path -----------------------------------------------------------

    def send(self, frame: Frame) -> None:
        """Enqueue a frame on the sender's MAC queue."""
        self.trace.enqueue(self.sim.now, frame)
        self._queues[frame.sender].append(frame)
        self._pump(frame.sender)

    def queue_length(self, node_id: int) -> int:
        return len(self._queues[node_id])

    def _channel_busy(self, node_id: int) -> bool:
        """Carrier sense: any audible transmission in progress?"""
        if not self.config.collisions:
            # Without a physical channel model concurrent senders never
            # interfere; a node's own queue still serialises its sends.
            return False
        now = self.sim.now
        for tx in self._hearing.get(node_id, ()):
            if tx.end > now:
                return True
        return False

    def _pump(self, node_id: int) -> None:
        if not self._queues[node_id] or node_id in self._on_air:
            return  # idle, or still sending (_finish pumps again)
        if self._channel_busy(node_id):
            self._backoffs[node_id] += 1
            if self._backoffs[node_id] > self.config.max_backoff_attempts:
                # Give up on this frame (models MAC drop under congestion).
                self.trace.mac_drop(self.sim.now, self._queues[node_id].popleft())
                self._backoffs[node_id] = 0
                self._pump(node_id)
                return
            rng = self.rngs.get(f"mac/{node_id}")
            delay = rng.uniform(self.config.backoff_min_s, self.config.backoff_max_s)
            self.sim.schedule(delay, self._pump, node_id)
            return
        self._backoffs[node_id] = 0
        frame = self._queues[node_id].popleft()
        duration = self.config.airtime(frame.size_bytes)
        tx = _Transmission(node_id, frame, self.sim.now, self.sim.now + duration)
        if self.config.collisions:
            self._start_reception(tx)
        self._on_air[node_id] = tx
        self.trace.tx(self.sim.now, frame)
        self.sim.schedule(duration, self._finish, tx)

    def _start_reception(self, tx: _Transmission) -> None:
        """Enter ``tx`` into its listeners' reception state.

        A frame that is still on the air (``end > now``) where ``tx`` is
        heard collides with it there; a listener that is itself on the air
        misses ``tx``, and the sender misses whatever it was hearing.
        """
        now = tx.start
        hearing: List[List[_Transmission]] = []
        for other in self._hearing.get(tx.sender, ()):
            if other.end > now:
                other.halfduplex_at(tx.sender)
        for receiver in self.topology.neighbors.get(tx.sender, ()):
            heard = self._hearing.get(receiver)
            if heard is None:
                heard = self._hearing[receiver] = []
            for other in heard:
                if other.end > now:
                    other.collide_at(receiver)
                    tx.collide_at(receiver)
            own = self._on_air.get(receiver)
            if own is not None and own.end > now:
                tx.halfduplex_at(receiver)
            heard.append(tx)
            hearing.append(heard)
        tx.hearing = hearing

    def _build_receivers(
        self, sender: int
    ) -> List[Tuple[int, Callable[[Frame, int], None]]]:
        """Fill ``sender``'s receiver table; built once per sender per
        invalidation, not per frame."""
        nodes = self._nodes
        receivers = self._receivers[sender] = [
            (v, nodes[v].on_receive) for v in self.neighbors(sender)]
        return receivers

    def _finish(self, tx: _Transmission) -> None:
        for heard in tx.hearing:
            heard.remove(tx)
        sender = tx.sender
        del self._on_air[sender]
        now, frame, trace = self.sim.now, tx.frame, self.trace
        delivered: List[int] = []
        lost: List[Tuple[int, str]] = []
        receivers = self._receivers.get(sender)
        if receivers is None:
            receivers = self._build_receivers(sender)
        rngs = self.rngs
        halfduplex, collided = tx.halfduplex or (), tx.collided or ()
        should_drop, counters = self.loss_model.should_drop, trace.counters
        size = frame.size_bytes
        # The current-frame mark (``TraceRecorder.current_frame``): the
        # receiver half lasts until the next delivery or ``frame_end``, so
        # should_drop must not read it.
        trace.rx_frame = frame.frame_id
        for receiver, on_receive in receivers:
            if receiver in halfduplex:
                cause = "halfduplex"
            elif receiver in collided:
                cause = "collision"
            elif should_drop(rngs, sender, receiver, frame, now):
                cause = "channel"
            else:
                # Counted before the handler runs: a run that completes
                # inside it freezes its counters there.
                counters["rx_delivered"] += 1
                counters["rx_delivered_bytes"] += size
                trace.rx_node = receiver
                on_receive(frame, sender)
                delivered.append(receiver)
                continue
            counters[LOSS_COUNTERS[cause]] += 1
            lost.append((receiver, cause))
        trace.frame_end(now, frame, tx.start, delivered, lost)
        self._pump(sender)
