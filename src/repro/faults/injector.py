"""Replays a :class:`~repro.faults.plan.FaultPlan` against a live network.

The injector schedules one simulator event per fault event, so faults
interleave with protocol traffic in strict ``(time, insertion order)`` —
identical seed + plan reproduces an identical trace.  Node crash/reboot is
delegated to the node itself (``DisseminationNode.crash()/reboot()`` own the
RAM-loss and flash-recovery semantics); link churn, partitions, and frame
corruption act on the :class:`~repro.net.radio.Radio`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.core.packets import DataPacket
from repro.errors import SimulationError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.net.packet import Frame
from repro.net.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import NetworkNode

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules a fault plan's events and applies them when they fire."""

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        trace: TraceRecorder,
        nodes: Iterable["NetworkNode"],
        plan: FaultPlan,
        rngs: RngRegistry,
    ):
        self.sim = sim
        self.radio = radio
        self.trace = trace
        self.plan = plan
        self.rngs = rngs
        self._nodes: Dict[int, "NetworkNode"] = {n.node_id: n for n in nodes}
        self._partition_links: List[Tuple[int, int]] = []
        self._corrupt_until: float = float("-inf")
        self._corrupt_rate: float = 0.0
        self._corrupt_mode: str = "flip"
        self._installed = False

    def install(self) -> None:
        """Schedule every plan event; call once, before or during the run."""
        if self._installed:
            raise SimulationError("FaultInjector.install() called twice")
        self._installed = True
        if self.radio.tamper is not None:
            raise SimulationError("radio already has a tamper hook installed")
        self.radio.tamper = self._tamper
        for event in self.plan.events:
            if event.time < self.sim.now:
                raise SimulationError(
                    f"fault at t={event.time} is in the past (now={self.sim.now})"
                )
            self.sim.schedule_at(event.time, self._apply, event)

    # -- event application ----------------------------------------------------

    def _node(self, node_id: Optional[int]) -> "NetworkNode":
        node = self._nodes.get(node_id)
        if node is None:
            raise SimulationError(f"fault plan names unknown node {node_id}")
        return node

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind is FaultKind.NODE_CRASH:
            self._node(event.node).crash()
        elif kind is FaultKind.NODE_REBOOT:
            self._node(event.node).reboot()
        elif kind is FaultKind.LINK_DOWN:
            u, v = event.link
            self.radio.set_link(u, v, up=False)
            self.trace.record(self.sim.now, "fault_link_down", None, link=(u, v))
        elif kind is FaultKind.LINK_UP:
            u, v = event.link
            self.radio.set_link(u, v, up=True)
            self.trace.record(self.sim.now, "fault_link_up", None, link=(u, v))
        elif kind is FaultKind.PARTITION:
            self._partition(event.groups)
        elif kind is FaultKind.HEAL:
            self._heal()
        elif kind is FaultKind.CORRUPT:
            self._corrupt_until = max(self._corrupt_until, self.sim.now + event.duration)
            self._corrupt_rate = event.rate
            self._corrupt_mode = event.mode
            self.trace.record(self.sim.now, "fault_corrupt_window", None,
                              duration=event.duration, rate=event.rate,
                              mode=event.mode)

    def _partition(self, groups: Tuple[Tuple[int, ...], ...]) -> None:
        """Cut every directed link between nodes of different groups.

        Nodes not named in any group are unaffected; healing restores
        exactly the links this partition cut (explicit link-down events from
        the plan stay down).
        """
        group_of: Dict[int, int] = {}
        for gi, group in enumerate(groups):
            for node in group:
                group_of[node] = gi
        cut: List[Tuple[int, int]] = []
        for u, gu in group_of.items():
            for v in self.radio.topology.neighbors.get(u, ()):
                gv = group_of.get(v)
                if gv is None or gv == gu:
                    continue
                if self.radio.link_is_up(u, v):
                    self.radio.set_link(u, v, up=False)
                    cut.append((u, v))
        self._partition_links.extend(cut)
        self.trace.record(self.sim.now, "fault_partition", None,
                          groups=len(groups), links_cut=len(cut))

    def _heal(self) -> None:
        for u, v in self._partition_links:
            self.radio.set_link(u, v, up=True)
        self.trace.record(self.sim.now, "fault_heal", None,
                          links_restored=len(self._partition_links))
        self._partition_links = []

    # -- frame corruption -----------------------------------------------------

    def _tamper(self, frame: Frame, sender: int, receiver: int) -> Optional[Frame]:
        if self.sim.now >= self._corrupt_until:
            return frame
        if self.rngs.get("faults/corrupt").random() >= self._corrupt_rate:
            return frame
        payload = frame.payload
        if (
            self._corrupt_mode == "drop"
            or not isinstance(payload, DataPacket)
            or not payload.payload
        ):
            # A mangled control frame fails the link-layer CRC and vanishes;
            # only data payloads are delivered corrupted (exercising the
            # receiver pipeline's per-packet authentication).
            self.trace.count("fault_corrupt_dropped")
            return None
        if self._corrupt_mode == "truncate":
            cut = max(1, len(payload.payload) // 2)
            tampered = dataclasses.replace(payload, payload=payload.payload[:cut])
        else:  # flip
            mangled = bytearray(payload.payload)
            mangled[0] ^= 0xFF
            tampered = dataclasses.replace(payload, payload=bytes(mangled))
        self.trace.count("fault_corrupt_delivered")
        return dataclasses.replace(frame, payload=tampered)
