"""Wire frames.

A :class:`Frame` is what the radio carries: a kind, a sender, an explicit
on-air size in bytes (protocols compute their own packet sizes, including
hash images, bit-vectors, and Merkle paths), and an opaque protocol payload
object.  All frames are local broadcasts; ``dest`` is advisory (SNACKs name
the neighbor being asked to serve, but everyone in range overhears).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["FrameKind", "Frame", "FrameId"]

#: ``(sender, seq)``: the sender's ``seq``-th broadcast of the run.
FrameId = Tuple[int, int]


class FrameKind(enum.Enum):
    """Categories the evaluation reports separately (Section VI metrics)."""

    DATA = "data"
    SNACK = "snack"
    ADV = "adv"
    SIGNATURE = "signature"

    @property
    def metric_name(self) -> str:
        return f"tx_{self.value}"


@dataclass
class Frame:
    """One on-air transmission unit."""

    kind: FrameKind
    sender: int
    size_bytes: int
    payload: Any
    dest: Optional[int] = None
    #: Numbered by :meth:`repro.net.node.NetworkNode.broadcast`, per sender,
    #: so it depends on nothing but the run itself; None on a frame that
    #: never went through a node.
    frame_id: Optional[FrameId] = None
    #: Causal provenance stamp (``--causal-trace`` only): what triggered this
    #: transmission — ``{"trigger": ..., "parent": frame_id, "armed": ts}``.
    #: Not part of the wire format; None on every frame when tracing is off.
    cause: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"frame size must be positive, got {self.size_bytes}")
