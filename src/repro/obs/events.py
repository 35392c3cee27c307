"""Schema-versioned structured trace events with span support.

An :class:`EventLog` collects :class:`TraceEvent` instances — instants
(``ph="i"``) and completed spans (``ph="X"``, with a duration) — in
*simulated* time.  Two persistent forms are supported:

* **JSONL** (:meth:`EventLog.write_jsonl` / :func:`load_jsonl`): one JSON
  object per line, first line a schema header.  This is the archival form
  the run manifest points at.
* **Chrome ``trace_event`` JSON** (:meth:`EventLog.to_chrome_trace` /
  :meth:`EventLog.write_chrome_trace`): loads directly in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing`` for timeline viewing.
  Each simulated node renders as one track (``tid``), with network-wide
  events (no node) on track 0.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "TraceEvent",
    "EventLog",
    "load_jsonl",
]

#: Version stamped on newly written traces.  v2 added the causal provenance
#: kinds (``causal_*``, :mod:`repro.obs.causal`); the event shape itself is
#: unchanged, so v1 archives remain fully readable.
TRACE_SCHEMA_VERSION = 2

#: Versions :func:`load_jsonl` accepts.  Readers treat unknown *kinds* as
#: opaque, so the only compatibility contract is the event dict shape —
#: identical between v1 and v2.
SUPPORTED_SCHEMA_VERSIONS = frozenset({1, 2})

# Chrome trace_event phase codes used here: instant, complete (with dur).
_PH_INSTANT = "i"
_PH_COMPLETE = "X"

SpanKey = Tuple[str, Optional[int], Any]


@dataclass(frozen=True)
class TraceEvent:
    """One structured event in simulated seconds."""

    ts: float                      # event (or span start) time, sim seconds
    kind: str                      # catalogue event kind
    ph: str = _PH_INSTANT          # "i" instant | "X" complete span
    node: Optional[int] = None     # owning node, None = network-wide
    dur: Optional[float] = None    # span duration, sim seconds ("X" only)
    detail: Dict[str, Any] = field(default_factory=dict)

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
    """Bounded, append-only collection of structured trace events."""

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self.dropped = 0
        self.open_spans_flushed = 0
        self._open_spans: Dict[SpanKey, Tuple[float, Dict[str, Any]]] = {}

    def __len__(self) -> int:
        return len(self.events)

    def _append(self, event: TraceEvent) -> None:
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    # -- sink protocol (used by TraceRecorder) -------------------------------

    def instant(self, ts: float, kind: str, node: Optional[int] = None,
                detail: Optional[Dict[str, Any]] = None) -> None:
        """Record one instantaneous event."""
        self._append(TraceEvent(ts=ts, kind=kind, ph=_PH_INSTANT, node=node,
                                detail=detail or {}))

    def begin(self, ts: float, kind: str, node: Optional[int] = None,
              key: Any = None, detail: Optional[Dict[str, Any]] = None) -> None:
        """Open a span; a later matching :meth:`end` emits the complete event.

        A duplicate ``begin`` for an open key restarts the span (first write
        would hide re-entry bugs; the *latest* attempt is the interesting
        interval for e.g. a page whose assembly restarted after a crash).
        """
        self._open_spans[(kind, node, key)] = (ts, dict(detail or {}))

    def end(self, ts: float, kind: str, node: Optional[int] = None,
            key: Any = None, detail: Optional[Dict[str, Any]] = None) -> None:
        """Close a span opened by :meth:`begin`; unmatched ends are instants."""
        opened = self._open_spans.pop((kind, node, key), None)
        if opened is None:
            self.instant(ts, kind, node, detail)
            return
        start, start_detail = opened
        merged = dict(start_detail)
        if detail:
            merged.update(detail)
        self._append(TraceEvent(ts=start, kind=kind, ph=_PH_COMPLETE, node=node,
                                dur=max(0.0, ts - start), detail=merged))

    def flush_open_spans(self, ts: float) -> int:
        """Emit every still-open span as an open-ended complete event.

        Call once at the end of a run so spans that never closed (incomplete
        dissemination, crashed node) still appear on the timeline; returns
        the number flushed.
        """
        flushed = 0
        for (kind, node, _key), (start, detail) in sorted(
            self._open_spans.items(), key=lambda item: item[1][0]
        ):
            merged = dict(detail)
            merged["open"] = True
            self._append(TraceEvent(ts=start, kind=kind, ph=_PH_COMPLETE,
                                    node=node, dur=max(0.0, ts - start),
                                    detail=merged))
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
            "dropped": self.dropped,
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

    # -- Chrome trace_event / Perfetto ----------------------------------------

    def to_chrome_trace(self, process_name: str = "repro-sim") -> Dict[str, Any]:
        """The log as a Chrome ``trace_event`` document (JSON object form).

        Timestamps are microseconds (Chrome's unit); one thread per node so
        Perfetto renders a per-node timeline, with span kinds as categories.
        """
        trace_events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
             "args": {"name": process_name}},
            {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
             "args": {"name": "network"}},
        ]
        named_nodes = sorted(
            {e.node for e in self.events if e.node is not None}
        )
        for node in named_nodes:
            trace_events.append(
                {"ph": "M", "pid": 1, "tid": node + 1, "name": "thread_name",
                 "args": {"name": f"node {node}"}}
            )
        for event in self.events:
            tid = 0 if event.node is None else event.node + 1
            entry: Dict[str, Any] = {
                "name": event.kind,
                "cat": event.kind.split("_", 1)[0],
                "ph": event.ph,
                "pid": 1,
                "tid": tid,
                "ts": event.ts * 1e6,
                "args": dict(event.detail),
            }
            if event.ph == _PH_INSTANT:
                entry["s"] = "t"  # thread-scoped instant
            if event.dur is not None:
                entry["dur"] = event.dur * 1e6
            trace_events.append(entry)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"schema_version": TRACE_SCHEMA_VERSION},
        }

    def write_chrome_trace(
        self, path: Union[str, Path], process_name: str = "repro-sim"
    ) -> Path:
        from repro.persist import atomic_write_text

        target = Path(path)
        atomic_write_text(target, json.dumps(self.to_chrome_trace(process_name)))
        return target

    # -- queries ---------------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def spans(self, kind: Optional[str] = None) -> List[TraceEvent]:
        return [
            e for e in self.events
            if e.ph == _PH_COMPLETE and (kind is None or e.kind == kind)
        ]


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
