"""Schema-versioned structured trace events with span support.

An :class:`EventLog` collects :class:`TraceEvent` instances — instants
(``ph="i"``) and completed spans (``ph="X"``, with a duration) — in
*simulated* time.  Its persistent form is JSONL
(:meth:`EventLog.write_jsonl` / :func:`load_jsonl`): one JSON object per
line, first line a schema header.  This is the archival form the run
manifest points at.

Span pairing is keyed by ``(kind, node, key)``: ``begin`` remembers the
start time, ``end`` emits one complete event covering the interval.  A
``begin`` with no matching ``end`` (e.g. an incomplete run) is flushed as an
open-span instant by :meth:`EventLog.flush_open_spans` so nothing is lost
silently.

The log hooks into :class:`repro.sim.trace.TraceRecorder` as its ``sink``:
every ``trace.record(...)`` becomes an instant event and the protocol span
call sites (``span_begin``/``span_end``) become complete events.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "TraceEvent",
    "EventLog",
    "FrameId",
    "as_frame_id",
    "load_jsonl",
]

#: Version stamped on newly written traces.  v3 logs each aired frame once,
#: as a ``frame`` record with its receivers and losses, and names frames by
#: ``(sender, seq)``; v2's ``link_tx``/``causal_tx``/``causal_rx``/
#: ``causal_loss`` kinds and global frame numbers are gone.
TRACE_SCHEMA_VERSION = 3

#: Versions :func:`load_jsonl` accepts.  The readers of v1/v2 frame kinds
#: are gone, so older archives are rejected rather than misread.
SUPPORTED_SCHEMA_VERSIONS = frozenset({3})

# Phase codes: instant, complete (with dur).
_PH_INSTANT = "i"
_PH_COMPLETE = "X"

SpanKey = Tuple[str, Optional[int], Any]


class TraceEvent:
    """One structured event in simulated seconds.

    A slotted record compared by value: ``ts`` is the event (or span
    start) time, ``kind`` its catalogue kind, ``ph`` ``"i"`` (instant) or
    ``"X"`` (complete span), ``node`` the owning node (None =
    network-wide), ``dur`` the span duration ("X" only) and ``detail`` its
    payload.  A run logs hundreds of thousands of these, so the record has
    no per-instance ``__dict__``.
    """

    __slots__ = ("ts", "kind", "ph", "node", "dur", "detail")

    def __init__(self, ts: float, kind: str, ph: str = _PH_INSTANT,
                 node: Optional[int] = None, dur: Optional[float] = None,
                 detail: Optional[Dict[str, Any]] = None) -> None:
        self.ts = ts
        self.kind = kind
        self.ph = ph
        self.node = node
        self.dur = dur
        self.detail: Dict[str, Any] = {} if detail is None else detail

    def _fields(self) -> Tuple[float, str, str, Optional[int],
                               Optional[float], Dict[str, Any]]:
        return (self.ts, self.kind, self.ph, self.node, self.dur, self.detail)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    # ``detail`` is a dict, so an event was never hashable.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return ("TraceEvent(ts={!r}, kind={!r}, ph={!r}, node={!r}, dur={!r}, "
                "detail={!r})".format(*self._fields()))

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"ts": self.ts, "kind": self.kind, "ph": self.ph}
        if self.node is not None:
            out["node"] = self.node
        if self.dur is not None:
            out["dur"] = self.dur
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        return cls(
            ts=float(data["ts"]),
            kind=str(data["kind"]),
            ph=str(data.get("ph", _PH_INSTANT)),
            node=data.get("node"),
            dur=data.get("dur"),
            detail=dict(data.get("detail", {})),
        )


class EventLog:
    """Append-only collection of structured trace events."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.open_spans_flushed = 0
        self._open_spans: Dict[SpanKey,
                               Tuple[float, Optional[Dict[str, Any]]]] = {}

    def __len__(self) -> int:
        return len(self.events)

    # -- sink protocol (used by TraceRecorder) -------------------------------
    #
    # The log takes ownership of each ``detail`` it is handed: a span's
    # begin detail becomes its record's detail, with the end's merged in.

    def instant(self, ts: float, kind: str, node: Optional[int] = None,
                detail: Optional[Dict[str, Any]] = None) -> None:
        """Record one instantaneous event."""
        self.events.append(TraceEvent(ts, kind, _PH_INSTANT, node, None,
                                      detail))

    def begin(self, ts: float, kind: str, node: Optional[int] = None,
              key: Any = None, detail: Optional[Dict[str, Any]] = None) -> None:
        """Open a span; a later matching :meth:`end` emits the complete event.

        A duplicate ``begin`` for an open key restarts the span (first write
        would hide re-entry bugs; the *latest* attempt is the interesting
        interval for e.g. a page whose assembly restarted).
        """
        self._open_spans[(kind, node, key)] = (ts, detail)

    def end(self, ts: float, kind: str, node: Optional[int] = None,
            key: Any = None, detail: Optional[Dict[str, Any]] = None) -> None:
        """Close a span opened by :meth:`begin`; unmatched ends are instants."""
        opened = self._open_spans.pop((kind, node, key), None)
        if opened is None:
            self.instant(ts, kind, node, detail)
            return
        start, merged = opened
        if detail:
            if merged:
                merged.update(detail)
            else:
                merged = detail
        self.events.append(TraceEvent(start, kind, _PH_COMPLETE, node,
                                      max(0.0, ts - start), merged))

    def flush_open_spans(self, ts: float) -> int:
        """Emit every still-open span as an open-ended complete event.

        Call once at the end of a run so spans that never closed (incomplete
        dissemination) still appear on the timeline; returns the number
        flushed.
        """
        flushed = 0
        for (kind, node, _key), (start, detail) in sorted(
            self._open_spans.items(), key=lambda item: item[1][0]
        ):
            if detail is None:
                detail = {}
            detail["open"] = True
            self.events.append(TraceEvent(start, kind, _PH_COMPLETE, node,
                                          max(0.0, ts - start), detail))
            flushed += 1
        self._open_spans.clear()
        self.open_spans_flushed += flushed
        return flushed

    # -- JSONL ----------------------------------------------------------------

    def header(self) -> Dict[str, Any]:
        return {
            "type": "header",
            "schema_version": TRACE_SCHEMA_VERSION,
            "events": len(self.events),
            "open_spans_flushed": self.open_spans_flushed,
        }

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.header(), sort_keys=True)]
        lines.extend(
            json.dumps(event.to_dict(), sort_keys=True) for event in self.events
        )
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        from repro.persist import atomic_write_text

        target = Path(path)
        atomic_write_text(target, self.to_jsonl())
        return target

    # -- queries ---------------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def spans(self, kind: Optional[str] = None) -> List[TraceEvent]:
        return [
            e for e in self.events
            if e.ph == _PH_COMPLETE and (kind is None or e.kind == kind)
        ]


#: A frame's ``(sender, seq)`` id (see :class:`repro.net.packet.Frame`).
FrameId = Tuple[int, int]


def as_frame_id(value: Any) -> FrameId:
    """A frame id as a dict key: the ``(sender, seq)`` pair, which a JSONL
    round trip turns into a two-element list."""
    sender, seq = value
    return (int(sender), int(seq))


def load_jsonl(path: Union[str, Path]) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Read a JSONL trace back: ``(header, events)``.

    Raises ``ValueError`` on a missing/foreign header or an unsupported
    schema version, so readers fail loudly instead of misinterpreting.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("type") != "header":
        raise ValueError(f"{path}: first line is not a trace header")
    version = header.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        supported = ", ".join(str(v) for v in sorted(SUPPORTED_SCHEMA_VERSIONS))
        raise ValueError(
            f"{path}: unsupported trace schema {version!r} "
            f"(reader supports {supported})"
        )
    events = [TraceEvent.from_dict(json.loads(line)) for line in lines[1:] if line]
    return header, events
