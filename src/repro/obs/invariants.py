"""Trace-driven protocol invariant checking.

Replays a structured event trace (an in-memory :class:`~repro.obs.events.
EventLog`, a list of :class:`~repro.obs.events.TraceEvent`, or a JSONL file)
against a library of protocol invariants and reports every violation with the
offending event's ``ts``/``node``/``kind``.  The checker is pure offline
analysis — it never imports simulator state — so the same trace a CI smoke
run archives is the artifact a failure is debugged from.

Invariant library
-----------------

``auth_before_buffer``
    A *secured* node (``flight_meta`` ``secured=true``) never buffers a data
    packet (``pkt_buffered``) whose ``(version, unit, index)`` was not first
    authenticated (``pkt_auth_ok``).  This is the Seluge/LR-Seluge
    DoS-resilience claim; plain Deluge advertises ``secured=false`` and is
    exempt rather than falsely flagged.

``tracker_monotone``
    A tracking-table neighbor's distance (packets still needed to decode)
    never increases between SNACKs: ``mark_sent`` only ever decrements.  The
    requester of a ``trigger="snack"`` snapshot is exempt — a SNACK
    legitimately refreshes (and may raise) that one entry.

``serve_only_decoded``
    A node only transmits data packets (``frame`` with ``kind="data"``)
    for pages it has decoded, tracked through ``unit_complete``,
    ``fault_reboot`` (``resume_unit`` accounts for flash recovery), and
    ``version_adopted`` resets.  Senders that never emitted ``flight_meta``
    (e.g. attacker rigs outside the protocol) are not tracked.

``pages_sequential``
    ``unit_complete`` events per node advance strictly page by page:
    0, 1, 2, … — restarting at 0 after ``version_adopted`` and at
    ``resume_unit`` after ``fault_reboot``.

``complete_means_all_pages``
    A ``node_complete`` event implies the node decoded every page: its
    tracked unit count equals the event's ``total`` detail.

``replay_never_rebuffered``
    A node buffers any given packet identity ``(version, unit, index)`` at
    most once (``pkt_buffered``): a replayed frame may arrive again but must
    never be re-buffered.  Identities reset on ``version_adopted`` and, for
    units at or above the flash resume point, on ``fault_reboot``.

``causal_monotone``
    Causality never runs backwards: a frame's ``cause`` parent (and its
    timer-arm timestamp) precedes the transmission, the deliveries of a
    caused frame follow its transmission, and a decode is parented on a
    frame that was actually delivered to that node beforehand.  This is the
    invariant that makes critical paths temporally monotone by
    construction.

The ``auth_before_buffer``/``tracker_monotone``/``replay_never_rebuffered``
invariants need a flight-recorded trace
(``--flight-record``); ``causal_monotone`` needs a causal trace
(``--causal-trace``); the others also work on plain span traces.  Events
whose prerequisites are absent are skipped, and
:attr:`InvariantReport.checked` records how many events each invariant
actually examined so "vacuously clean" is visible.

Events are replayed in simulated-time order (a stable sort on ``ts``): a
``frame`` record is written when its frame leaves the air but stamped with
its air start, so this puts it where the transmission happened.  A
delivery needs no grounding check, because a frame's deliveries are part
of its own record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.obs.events import (EventLog, FrameId, TraceEvent, as_frame_id,
                               load_jsonl)

__all__ = [
    "INVARIANTS",
    "Violation",
    "InvariantReport",
    "check_events",
    "check_jsonl",
]

INVARIANTS: Tuple[str, ...] = (
    "auth_before_buffer",
    "tracker_monotone",
    "serve_only_decoded",
    "pages_sequential",
    "complete_means_all_pages",
    "replay_never_rebuffered",
    "causal_monotone",
)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to the offending trace event."""

    invariant: str
    ts: float
    node: Optional[int]
    kind: str
    message: str

    def render(self) -> str:
        where = "network" if self.node is None else f"node {self.node}"
        return (f"[{self.invariant}] t={self.ts:.6f} {where} "
                f"({self.kind}): {self.message}")


@dataclass
class InvariantReport:
    """Outcome of one checking pass."""

    violations: List[Violation] = field(default_factory=list)
    #: events examined per invariant — 0 means the trace lacked the inputs.
    checked: Dict[str, int] = field(default_factory=dict)
    events_seen: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def of_invariant(self, invariant: str) -> List[Violation]:
        return [v for v in self.violations if v.invariant == invariant]

    def summary(self) -> str:
        lines = [
            f"{self.events_seen} events; "
            + ", ".join(f"{name}={self.checked.get(name, 0)}"
                        for name in INVARIANTS)
        ]
        if self.ok:
            lines.append("all invariants hold")
        else:
            lines.append(f"{len(self.violations)} violation(s):")
            lines.extend("  " + v.render() for v in self.violations)
        return "\n".join(lines)


def _int_keys(mapping: Dict[Any, Any]) -> Dict[int, Any]:
    """Normalise JSON round-tripped dict keys back to ints."""
    return {int(k): v for k, v in mapping.items()}


class _Checker:
    def __init__(self) -> None:
        self.report = InvariantReport(checked={name: 0 for name in INVARIANTS})
        # per-node protocol facts from flight_meta
        self.secured: Dict[int, bool] = {}
        self.is_base: Dict[int, bool] = {}
        # per-node decode progress (inf = base station, always complete)
        self.units: Dict[int, float] = {}
        self.expected_unit: Dict[int, int] = {}
        # auth_before_buffer: authenticated (version, unit, index) per node
        self.authed: Dict[int, Set[Tuple[int, int, int]]] = {}
        # tracker_monotone: last per-neighbor distances per (node, unit)
        self.last_distances: Dict[Tuple[int, int], Dict[int, int]] = {}
        # replay_never_rebuffered: buffered identities per node
        self.buffered: Dict[int, Set[Tuple[int, int, int]]] = {}
        # causal_monotone: frame -> on-air ts, (frame, node) -> delivery ts
        self.air_ts: Dict[FrameId, float] = {}
        self.rx_ts: Dict[Tuple[FrameId, int], float] = {}
        # cause parents not yet seen on the air: either MAC-dropped (fine)
        # or aired *later* (a causality inversion) — settled after the pass.
        self.causal_pending: List[Tuple[FrameId, TraceEvent]] = []

    def _violate(self, invariant: str, event: TraceEvent, message: str) -> None:
        self.report.violations.append(
            Violation(invariant, event.ts, event.node, event.kind, message)
        )

    # -- event handlers -------------------------------------------------------

    def _on_meta(self, e: TraceEvent) -> None:
        if e.node is None:
            return
        d = e.detail
        self.secured[e.node] = bool(d.get("secured", False))
        base = bool(d.get("base", False))
        self.is_base[e.node] = base
        if base:
            self.units[e.node] = math.inf

    def _on_auth_ok(self, e: TraceEvent) -> None:
        if e.node is None:
            return
        d = e.detail
        self.authed.setdefault(e.node, set()).add(
            (int(d.get("version", 0)), int(d["unit"]), int(d["index"]))
        )

    def _on_buffered(self, e: TraceEvent) -> None:
        if e.node is None:
            return
        d = e.detail
        key = (int(d.get("version", 0)), int(d["unit"]), int(d["index"]))
        self.report.checked["replay_never_rebuffered"] += 1
        seen = self.buffered.setdefault(e.node, set())
        if key in seen:
            self._violate(
                "replay_never_rebuffered", e,
                f"re-buffered packet version={key[0]} unit={key[1]} "
                f"index={key[2]} (a replayed frame must stay a duplicate)",
            )
        else:
            seen.add(key)
        if not self.secured.get(e.node, False):
            return
        self.report.checked["auth_before_buffer"] += 1
        if key not in self.authed.get(e.node, ()):
            self._violate(
                "auth_before_buffer", e,
                f"buffered packet version={key[0]} unit={key[1]} "
                f"index={key[2]} without prior authentication",
            )

    def _on_tracker(self, e: TraceEvent) -> None:
        if e.node is None or "distances" not in e.detail:
            return
        d = e.detail
        unit = int(d["unit"])
        cur = {k: int(v) for k, v in _int_keys(dict(d["distances"])).items()}
        key = (e.node, unit)
        prev = self.last_distances.get(key)
        if prev is not None:
            self.report.checked["tracker_monotone"] += 1
            exempt = (
                int(d["requester"])
                if d.get("trigger") == "snack" and "requester" in d
                else None
            )
            for neighbor in sorted(set(prev) & set(cur)):
                if neighbor == exempt:
                    continue
                if cur[neighbor] > prev[neighbor]:
                    self._violate(
                        "tracker_monotone", e,
                        f"unit {unit}: neighbor {neighbor} distance rose "
                        f"{prev[neighbor]} -> {cur[neighbor]} "
                        f"(trigger={d.get('trigger')!r})",
                    )
        self.last_distances[key] = cur

    def _on_frame(self, e: TraceEvent) -> None:
        if e.node is None:
            return
        d = e.detail
        self._check_served(e)
        frame = as_frame_id(d["frame"])
        end = float(d.get("end", e.ts))
        self.air_ts[frame] = e.ts
        for receiver in d.get("rx", ()):
            self.rx_ts[(frame, int(receiver))] = end
        cause = d.get("cause")
        if not isinstance(cause, dict):
            return
        # One check of the cause, one per delivery.
        self.report.checked["causal_monotone"] += 1 + len(d.get("rx", ()))
        if end < e.ts:
            self._violate(
                "causal_monotone", e,
                f"frame {frame} delivered at t={end:g} before it "
                f"aired (t={e.ts:g})",
            )
        parent = cause.get("parent")
        if parent is not None:
            parent = as_frame_id(parent)
            parent_ts = self.air_ts.get(parent)
            if parent_ts is None:
                # Either the parent was MAC-dropped and never aired
                # (legitimate: retries still name it as the cause), or it
                # airs later in the trace — an inversion only visible once
                # the whole stream has been read. Settle it in run().
                self.causal_pending.append((parent, e))
            elif parent_ts > e.ts:
                self._violate(
                    "causal_monotone", e,
                    f"frame {frame} aired at t={e.ts:g} before its "
                    f"cause parent {parent} (t={parent_ts:g})",
                )
        armed = cause.get("armed")
        if armed is not None and float(armed) > e.ts:
            self._violate(
                "causal_monotone", e,
                f"frame {frame} aired at t={e.ts:g} before its timer "
                f"was armed (t={float(armed):g})",
            )

    def _check_served(self, e: TraceEvent) -> None:
        """serve_only_decoded: a protocol sender's data frame."""
        unit = e.detail.get("unit")
        if (e.detail.get("kind") != "data" or unit is None
                or e.node not in self.is_base):
            return  # non-data frame, or a sender outside the protocol
        self.report.checked["serve_only_decoded"] += 1
        if self.units.get(e.node, 0) <= int(unit):
            self._violate(
                "serve_only_decoded", e,
                f"transmitted data for unit {unit} while holding only "
                f"{self.units.get(e.node, 0):g} decoded unit(s)",
            )

    def _on_unit_complete(self, e: TraceEvent) -> None:
        if e.node is None or "unit" not in e.detail:
            return
        unit = int(e.detail["unit"])
        self.report.checked["pages_sequential"] += 1
        expected = self.expected_unit.get(e.node, 0)
        if unit != expected:
            self._violate(
                "pages_sequential", e,
                f"completed unit {unit}, expected unit {expected}",
            )
        self.expected_unit[e.node] = unit + 1
        prev = self.units.get(e.node, 0)
        self.units[e.node] = max(prev, unit + 1)

    def _on_node_complete(self, e: TraceEvent) -> None:
        if e.node is None or "total" not in e.detail:
            return
        self.report.checked["complete_means_all_pages"] += 1
        total = int(e.detail["total"])
        have = self.units.get(e.node, 0)
        if have < total:
            self._violate(
                "complete_means_all_pages", e,
                f"declared complete with {have:g}/{total} units decoded",
            )

    def _on_reboot(self, e: TraceEvent) -> None:
        if e.node is None:
            return
        resume = int(e.detail.get("resume_unit", 0))
        if not self.is_base.get(e.node, False):
            self.units[e.node] = resume
            self.expected_unit[e.node] = resume
        # Units at or above the resume point were lost with RAM and will be
        # received (and buffered) again legitimately.
        seen = self.buffered.get(e.node)
        if seen is not None:
            self.buffered[e.node] = {k for k in seen if k[1] < resume}
        self._drop_tracker_state(e.node)

    def _on_crash(self, e: TraceEvent) -> None:
        if e.node is not None:
            self._drop_tracker_state(e.node)

    def _on_version_adopted(self, e: TraceEvent) -> None:
        if e.node is None:
            return
        if not self.is_base.get(e.node, False):
            self.units[e.node] = 0
            self.expected_unit[e.node] = 0
        self.buffered.pop(e.node, None)
        self._drop_tracker_state(e.node)

    def _on_causal_decode(self, e: TraceEvent) -> None:
        d = e.detail
        if e.node is None:
            return
        parent = d.get("frame")
        if parent is None:
            return
        self.report.checked["causal_monotone"] += 1
        rx_ts = self.rx_ts.get((as_frame_id(parent), e.node))
        if rx_ts is None:
            self._violate(
                "causal_monotone", e,
                f"decode of unit {d.get('unit')} parented on frame {parent}, "
                f"which was never delivered to this node",
            )
        elif rx_ts > e.ts:
            self._violate(
                "causal_monotone", e,
                f"decode of unit {d.get('unit')} at t={e.ts:g} precedes the "
                f"delivery of its parent frame {parent} (t={rx_ts:g})",
            )

    def _drop_tracker_state(self, node: int) -> None:
        # Crash / new version wipes the TX service dict; stale distance
        # baselines must not chain across the reset.
        for key in [k for k in self.last_distances if k[0] == node]:
            del self.last_distances[key]

    # -- driver ---------------------------------------------------------------

    _HANDLERS = {
        "flight_meta": _on_meta,
        "pkt_auth_ok": _on_auth_ok,
        "pkt_buffered": _on_buffered,
        "tracker_snapshot": _on_tracker,
        "frame": _on_frame,
        "unit_complete": _on_unit_complete,
        "node_complete": _on_node_complete,
        "fault_reboot": _on_reboot,
        "fault_crash": _on_crash,
        "version_adopted": _on_version_adopted,
        "causal_decode": _on_causal_decode,
    }

    def run(self, events: Iterable[TraceEvent]) -> InvariantReport:
        for event in sorted(events, key=lambda e: e.ts):
            self.report.events_seen += 1
            handler = self._HANDLERS.get(event.kind)
            if handler is not None:
                handler(self, event)
        for parent, e in self.causal_pending:
            parent_ts = self.air_ts.get(parent)
            if parent_ts is not None and parent_ts > e.ts:
                # The parent did air after all — just later than its child,
                # which inverts causality. Parents still unknown here were
                # MAC-dropped and stay exempt.
                self._violate(
                    "causal_monotone", e,
                    f"frame {as_frame_id(e.detail['frame'])} aired at "
                    f"t={e.ts:g} before its cause parent {parent} "
                    f"(t={parent_ts:g})",
                )
        return self.report


def check_events(
    events: Union[EventLog, Iterable[TraceEvent]],
) -> InvariantReport:
    """Check the invariant library against an in-memory trace."""
    if isinstance(events, EventLog):
        events = events.events
    return _Checker().run(events)


def check_jsonl(path: Union[str, Path]) -> InvariantReport:
    """Check the invariant library against an archived JSONL trace."""
    _header, events = load_jsonl(path)
    return _Checker().run(events)
