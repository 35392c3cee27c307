"""Base class for simulated network nodes."""

from __future__ import annotations

import abc
import itertools
from typing import Any, Dict, List, Optional

from repro.net.packet import Frame, FrameKind
from repro.net.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

__all__ = ["NetworkNode"]


class NetworkNode(abc.ABC):
    """A node attached to a :class:`Radio`.

    Subclasses implement :meth:`on_receive`; :meth:`broadcast` builds and
    queues a frame.  Each node owns a named RNG stream for protocol jitter so
    simulations stay reproducible.
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        radio: Radio,
        rngs: RngRegistry,
        trace: TraceRecorder,
    ):
        self.node_id = node_id
        self.sim = sim
        self.radio = radio
        self.rngs = rngs
        self.trace = trace
        self.rng = rngs.get(f"node/{node_id}")
        self._frame_seq = itertools.count()
        radio.register(self)

    @property
    def neighbors(self) -> List[int]:
        return self.radio.neighbors(self.node_id)

    def broadcast(
        self,
        kind: FrameKind,
        size_bytes: int,
        payload: Any,
        dest: Optional[int] = None,
        cause: Optional[Dict[str, Any]] = None,
    ) -> Frame:
        """Queue a local broadcast; returns the frame for bookkeeping.

        ``cause`` is the optional causal-provenance stamp (built by protocol
        code only when ``trace.causal`` is attached); it rides on the frame
        object, never on the wire.  The frame's id is ``(node_id, seq)``,
        ``seq`` counting this node's broadcasts from 0.
        """
        frame = Frame(
            kind=kind,
            sender=self.node_id,
            size_bytes=size_bytes,
            payload=payload,
            dest=dest,
            frame_id=(self.node_id, next(self._frame_seq)),
            cause=cause,
        )
        self.radio.send(frame)
        return frame

    @abc.abstractmethod
    def on_receive(self, frame: Frame, sender: int) -> None:
        """Handle a frame delivered by the radio."""
