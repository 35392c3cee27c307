"""Causal dissemination analysis: provenance DAG, critical paths, attribution.

A ``--causal-trace`` run (see :class:`repro.obs.flight.CausalRecorder`)
stamps every frame with the event that *caused* it — the received frame or
timer arm that triggered the transmission — and the flight recorder's
``frame`` records carry that stamp with every cross-node delivery of the
frame.  This module reconstructs that provenance as a DAG and answers the
question the wavefront plots cannot: **why** did node ``n`` complete at time
``t``?

The core operation is the backward **critical-path walk**
(:func:`critical_path`): starting from a node's completion, follow each
event to its cause — decode → delivery of the completing packet → its
transmission → the SNACK that requested it → the timer that armed the SNACK
→ the frame that armed the timer → … — until the chain roots at the base
station's initial advertisement.  The walk telescopes: consecutive edges
share endpoints, so the per-edge spans partition ``[t_root, t_end]`` exactly
and the **attributed fraction** ``1 - t_root / t_end`` measures how much of
the node's completion latency the chain explains (tier-1 holds it at ≥ 95%
on a lossy grid).

Every edge lands in one of nine **wait categories**:

``airtime``
    the frame was in flight (transmission start → delivery);
``mac``
    the frame sat in the sender's MAC queue (enqueue → on air);
``serve_pacing``
    a server paced out a data burst (request arrival → this packet's
    enqueue): inter-packet TX spacing plus earlier packets of the burst;
``retransmission``
    a request timer expired and the SNACK was re-sent (``retry`` /
    ``upgrade_retry``): the signature wait the paper's erasure coding
    attacks — LR-Seluge should show *less* of it under loss than
    Deluge/Seluge;
``request_backoff``
    the ordinary randomized request delay before a first SNACK
    (``first_request``, ``serve_defer``, ``data_progress``);
``suppression``
    Trickle-style politeness: the request was deferred because traffic was
    overheard (``data_burst``, ``lower_page``, ``snack_suppressed``);
``trickle``
    advertisement-interval wait: the gap between an advertiser becoming
    useful (its enabling page decode, or the base at ``t=0``) and its ADV
    going out;
``decode_verify``
    page decode / packet verification on the receiver;
``admission``
    security admission (``upgrade``: puzzle-guarded signature acquisition
    before data flows).

All functions are pure reductions over the event list; JSON artifacts go
through :mod:`repro.persist` atomic writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.obs.events import (EventLog, FrameId, TraceEvent, as_frame_id,
                               load_jsonl)

__all__ = [
    "WAIT_CATEGORIES",
    "CausalDag",
    "PathEdge",
    "CriticalPath",
    "build_dag",
    "critical_path",
    "attribute_run",
    "load_causal_dag",
    "analyze_causal_jsonl",
    "render_attribution",
    "render_why",
    "comparison_report",
]

WAIT_CATEGORIES: Tuple[str, ...] = (
    "airtime",
    "mac",
    "serve_pacing",
    "retransmission",
    "request_backoff",
    "suppression",
    "trickle",
    "decode_verify",
    "admission",
)

# Request-timer reasons -> wait category; everything else (first_request,
# serve_defer, data_progress, unknown) is ordinary request backoff.
_REASON_CATEGORY: Dict[str, str] = {
    "retry": "retransmission",
    "upgrade_retry": "retransmission",
    "data_burst": "suppression",
    "lower_page": "suppression",
    "snack_suppressed": "suppression",
    "upgrade": "admission",
}

# Backstop against pathological traces; real chains are a few thousand steps.
_MAX_WALK_STEPS = 200_000


@dataclass
class _TxRecord:
    ts: float                       # on-air time
    node: int                       # sender
    kind: str
    enq: float                      # MAC enqueue time
    unit: Optional[int] = None
    cause: Optional[Dict[str, Any]] = None


@dataclass
class _DecodeRecord:
    ts: float
    node: int
    unit: int
    frame: Optional[FrameId]        # completing packet's frame id
    need: int = 0
    of: int = 0


@dataclass
class CausalDag:
    """The reconstructed provenance graph of one causal-traced run."""

    base: Optional[int] = None
    meta: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    tx: Dict[FrameId, _TxRecord] = field(default_factory=dict)
    #: (frame, node) -> delivery time
    rx: Dict[Tuple[FrameId, int], float] = field(default_factory=dict)
    #: frame -> number of lossy non-deliveries
    losses: Dict[FrameId, int] = field(default_factory=dict)
    #: (node, unit) -> decode record
    decodes: Dict[Tuple[int, int], _DecodeRecord] = field(default_factory=dict)
    #: node -> completion time (first node_complete)
    complete: Dict[int, float] = field(default_factory=dict)

    @property
    def protocol(self) -> str:
        for d in self.meta.values():
            if "protocol" in d:
                return str(d["protocol"])
        return "?"

    @property
    def profile(self) -> str:
        for d in self.meta.values():
            if "profile" in d:
                return str(d["profile"])
        return "?"

    def receivers(self) -> List[int]:
        nodes = sorted(set(self.meta) | set(self.complete))
        return [n for n in nodes if n != self.base]


def build_dag(events: Union[EventLog, Iterable[TraceEvent]]) -> CausalDag:
    """Index a causal-traced event stream into a :class:`CausalDag`."""
    if isinstance(events, EventLog):
        events = events.events
    dag = CausalDag()
    for e in events:
        d = e.detail
        if e.kind == "flight_meta" and e.node is not None:
            dag.meta[e.node] = dict(d)
            if d.get("base"):
                dag.base = e.node
        elif e.kind == "frame" and e.node is not None:
            fid = as_frame_id(d["frame"])
            unit = d.get("unit")
            dag.tx[fid] = _TxRecord(
                ts=e.ts, node=e.node, kind=str(d.get("kind", "?")),
                enq=float(d.get("enq", e.ts)),
                unit=None if unit is None else int(unit),
                cause=d.get("cause"),
            )
            end = float(d.get("end", e.ts))
            for receiver in d.get("rx", ()):
                dag.rx[(fid, int(receiver))] = end
            if d.get("lost"):
                dag.losses[fid] = len(d["lost"])
        elif e.kind == "causal_decode" and e.node is not None:
            unit = int(d["unit"])
            parent = d.get("frame")
            dag.decodes.setdefault((e.node, unit), _DecodeRecord(
                ts=e.ts, node=e.node, unit=unit,
                frame=None if parent is None else as_frame_id(parent),
                need=int(d.get("need", 0)), of=int(d.get("of", 0)),
            ))
        elif e.kind == "node_complete" and e.node is not None:
            dag.complete.setdefault(e.node, e.ts)
    return dag


@dataclass(frozen=True)
class PathEdge:
    """One telescoped interval on a critical path (``t_from <= t_to``)."""

    category: str
    t_from: float
    t_to: float
    node: int                       # where the wait occurred
    unit: Optional[int]             # page whose completion this explains
    note: str = ""

    @property
    def span(self) -> float:
        return self.t_to - self.t_from


@dataclass
class CriticalPath:
    """The attributed chain from the causal root to one node's completion."""

    node: int
    t_end: float
    root_ts: float
    #: forward time order (root first)
    edges: List[PathEdge] = field(default_factory=list)
    #: True when the walk stopped before reaching the base root (e.g. a
    #: retry parented on a MAC-dropped frame that never aired).
    truncated: bool = False

    @property
    def attributed_s(self) -> float:
        return self.t_end - self.root_ts

    @property
    def attribution(self) -> float:
        """Fraction of the completion latency the chain explains."""
        if self.t_end <= 0.0:
            return 1.0
        return max(0.0, 1.0 - self.root_ts / self.t_end)

    def categories(self) -> Dict[str, float]:
        totals = {c: 0.0 for c in WAIT_CATEGORIES}
        for edge in self.edges:
            totals[edge.category] += edge.span
        return totals

    def per_unit(self) -> Dict[int, Dict[str, float]]:
        out: Dict[int, Dict[str, float]] = {}
        for edge in self.edges:
            if edge.unit is None:
                continue
            bucket = out.setdefault(edge.unit, {})
            bucket[edge.category] = bucket.get(edge.category, 0.0) + edge.span
        return out


def critical_path(dag: CausalDag, node: int) -> Optional[CriticalPath]:
    """Walk backward from ``node``'s completion to the causal root.

    Returns ``None`` when the node never completed or the trace holds no
    decode for it.  The walk only ever moves backward in time (enforced at
    every hop, so a malformed trace truncates instead of looping), and the
    emitted edges telescope: each edge starts where the next one ends.
    """
    t_end = dag.complete.get(node)
    if t_end is None:
        return None
    meta = dag.meta.get(node, {})
    total = meta.get("total_units")
    start: Optional[_DecodeRecord] = None
    if total:
        start = dag.decodes.get((node, int(total) - 1))
    if start is None:
        mine = [d for (n, _u), d in dag.decodes.items() if n == node]
        start = max(mine, key=lambda d: d.ts) if mine else None
    if start is None:
        return None

    path = CriticalPath(node=node, t_end=t_end, root_ts=t_end)
    edges: List[PathEdge] = []
    cur = t_end
    unit: Optional[int] = start.unit
    visited: Set[Tuple[str, int, int]] = set()
    steps = 0

    def emit(category: str, lo: float, at: int, note: str = "") -> None:
        nonlocal cur
        if lo < cur:
            edges.append(PathEdge(category, lo, cur, node=at, unit=unit,
                                  note=note))
        cur = min(cur, lo)

    def root(truncated: bool) -> None:
        path.root_ts = cur
        path.truncated = path.truncated or truncated

    # completion -> the decode that finished the image
    emit("decode_verify", start.ts, node, note=f"decode unit {start.unit}")
    item: Optional[Tuple[Any, ...]] = ("decode", start)

    while item is not None:
        steps += 1
        if steps > _MAX_WALK_STEPS:
            root(truncated=True)
            break
        tag = item[0]

        if tag == "decode":
            d: _DecodeRecord = item[1]
            unit = d.unit
            key = ("d", d.node, d.unit)
            if key in visited:
                root(truncated=True)
                break
            visited.add(key)
            if d.frame is None:
                root(truncated=False)
                break
            rx_ts = dag.rx.get((d.frame, d.node))
            if rx_ts is None or rx_ts > cur:
                root(truncated=True)
                break
            emit("decode_verify", rx_ts, d.node,
                 note=f"verify frame {d.frame}")
            item = ("tx", d.frame, True)
            continue

        if tag == "tx":
            fid, arrived_via_rx = item[1], bool(item[2])
            rec = dag.tx.get(fid)
            if rec is None:
                root(truncated=True)
                break
            key = ("t", fid[0], fid[1])
            if key in visited:
                root(truncated=True)
                break
            visited.add(key)
            if arrived_via_rx:
                if rec.ts > cur:
                    root(truncated=True)
                    break
                emit("airtime", rec.ts, rec.node,
                     note=f"{rec.kind} frame {fid}")
            elif rec.enq > cur:
                # A self-parent must at least have been *enqueued* already;
                # its air time may legitimately postdate the re-arm.
                root(truncated=True)
                break
            emit("mac", min(rec.enq, cur), rec.node)
            cause = rec.cause
            if not isinstance(cause, dict):
                root(truncated=False)
                break
            trigger = cause.get("trigger")
            if trigger == "serve":
                armed = cause.get("armed")
                if armed is not None:
                    emit("serve_pacing", min(float(armed), cur), rec.node,
                         note=f"burst for unit {cause.get('unit')}")
                parent = cause.get("parent")
                if parent is None:
                    root(truncated=False)
                    break
                item = ("cause_frame", as_frame_id(parent), rec.node,
                        "serve_pacing")
            elif trigger == "request":
                reason = str(cause.get("reason", "unknown"))
                cat = _REASON_CATEGORY.get(reason, "request_backoff")
                armed = cause.get("armed")
                if armed is not None:
                    emit(cat, min(float(armed), cur), rec.node, note=reason)
                parent = cause.get("parent")
                if parent is None:
                    root(truncated=False)
                    break
                item = ("cause_frame", as_frame_id(parent), rec.node, cat)
            elif trigger == "trickle":
                uc = int(cause.get("uc", 0))
                if dag.base is not None and rec.node == dag.base:
                    emit("trickle", 0.0, rec.node, note="base advertisement")
                    root(truncated=False)
                    break
                enabling = dag.decodes.get((rec.node, uc - 1)) if uc else None
                if enabling is None or enabling.ts > cur:
                    root(truncated=uc != 0)
                    break
                emit("trickle", enabling.ts, rec.node,
                     note=f"adv after unit {uc - 1}")
                item = ("decode", enabling)
            elif trigger == "start":
                emit("trickle", 0.0, rec.node, note="base start push")
                root(truncated=False)
                break
            else:
                root(truncated=False)
                break
            continue

        if tag == "cause_frame":
            # A request/serve parent: either a frame delivered *to* this
            # node, or (retry chains) this node's own previous transmission.
            fid, at, gap_cat = item[1], int(item[2]), str(item[3])
            rx_ts = dag.rx.get((fid, at))
            if rx_ts is not None and rx_ts <= cur:
                emit(gap_cat, rx_ts, at)
                item = ("tx", fid, True)
                continue
            rec = dag.tx.get(fid)
            if rec is not None and rec.node == at and rec.enq <= cur:
                # The node's own earlier transmission (retry chains).  The
                # re-arm happens at *enqueue* time, so the previous attempt
                # may still be in the MAC queue — walk through its enqueue,
                # not its (possibly later) air time.
                emit(gap_cat, min(rec.ts, cur), at, note="previous attempt")
                item = ("tx", fid, False)
                continue
            # MAC-dropped or lost parent: the frame never reached anywhere
            # we can walk from.
            root(truncated=True)
            break

        raise AssertionError(f"unknown walk state {tag!r}")  # pragma: no cover

    edges.reverse()
    path.edges = edges
    return path


def attribute_run(
    events: Union[EventLog, Iterable[TraceEvent], CausalDag],
) -> Dict[str, Any]:
    """Full-run latency attribution: per node, per category, per page."""
    dag = events if isinstance(events, CausalDag) else build_dag(events)
    per_node: List[Dict[str, Any]] = []
    cat_totals = {c: 0.0 for c in WAIT_CATEGORIES}
    per_unit: Dict[int, Dict[str, float]] = {}
    attributions: List[float] = []
    for node in dag.receivers():
        cp = critical_path(dag, node)
        if cp is None:
            per_node.append({"node": node, "completed": False})
            continue
        cats = cp.categories()
        for c, v in cats.items():
            cat_totals[c] += v
        for u, bucket in cp.per_unit().items():
            tgt = per_unit.setdefault(u, {})
            for c, v in bucket.items():
                tgt[c] = tgt.get(c, 0.0) + v
        attributions.append(cp.attribution)
        top = max(cats, key=lambda c: cats[c]) if any(cats.values()) else None
        per_node.append({
            "node": node,
            "completed": True,
            "t_complete": round(cp.t_end, 6),
            "root_ts": round(cp.root_ts, 6),
            "attribution": round(cp.attribution, 6),
            "truncated": cp.truncated,
            "edges": len(cp.edges),
            "top_category": top,
            "categories": {c: round(v, 6) for c, v in cats.items() if v > 0},
        })
    total_wait = sum(cat_totals.values())
    return {
        "type": "causal_analysis",
        "protocol": dag.protocol,
        "profile": dag.profile,
        "base": dag.base,
        "receivers": len(dag.receivers()),
        "completed": sum(1 for n in per_node if n.get("completed")),
        "losses": sum(dag.losses.values()),
        "min_attribution": round(min(attributions), 6) if attributions else 0.0,
        "mean_attribution": round(
            sum(attributions) / len(attributions), 6) if attributions else 0.0,
        "categories": {c: round(v, 6) for c, v in cat_totals.items()},
        "category_share": {
            c: round(v / total_wait, 6) if total_wait else 0.0
            for c, v in cat_totals.items()
        },
        "per_unit": {
            str(u): {c: round(v, 6) for c, v in sorted(bucket.items())}
            for u, bucket in sorted(per_unit.items())
        },
        "nodes": per_node,
    }


def load_causal_dag(path: Union[str, Path]) -> CausalDag:
    """The provenance DAG of an archived causal trace.

    Raises ``ValueError`` when no frame carries a cause stamp: a trace
    recorded without ``--causal-trace`` cannot be walked, and walking it
    would report every receiver as never completed.
    """
    _header, events = load_jsonl(path)
    dag = build_dag(events)
    if not any(rec.cause is not None for rec in dag.tx.values()):
        raise ValueError(f"{path} holds no cause stamps — re-run the "
                         "simulation with --causal-trace")
    return dag


def analyze_causal_jsonl(
    path: Union[str, Path],
    out: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Attribute an archived causal trace; optionally persist the JSON."""
    analysis = attribute_run(load_causal_dag(path))
    analysis["trace_file"] = str(path)
    if out is not None:
        from repro.persist import atomic_write_json

        atomic_write_json(Path(out), analysis, sort_keys=True)
    return analysis


def _fmt_s(value: float) -> str:
    return f"{value:.3f}"


def render_attribution(analysis: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`attribute_run` output."""
    from repro.experiments.reporting import format_table

    lines = [
        f"protocol:   {analysis['protocol']} "
        f"(profile {analysis['profile']}, base={analysis['base']})",
        f"receivers:  {analysis['receivers']} "
        f"({analysis['completed']} completed), "
        f"{analysis['losses']} lossy non-deliveries",
        f"attribution: mean {analysis['mean_attribution']:.1%}, "
        f"min {analysis['min_attribution']:.1%}",
    ]
    cats = analysis.get("categories", {})
    share = analysis.get("category_share", {})
    rows = [
        [c, _fmt_s(cats.get(c, 0.0)), f"{share.get(c, 0.0):.1%}"]
        for c in WAIT_CATEGORIES if cats.get(c, 0.0) > 0
    ]
    if rows:
        lines.append("")
        lines.append(format_table(
            ["category", "total_s", "share"], rows,
            title="critical-path wait attribution (all completed receivers)",
        ))
    node_rows = [
        [n["node"], _fmt_s(n["t_complete"]), f"{n['attribution']:.1%}",
         n["edges"], n.get("top_category") or "-",
         "yes" if n["truncated"] else "no"]
        for n in analysis.get("nodes", []) if n.get("completed")
    ]
    if node_rows:
        lines.append("")
        lines.append(format_table(
            ["node", "t_complete", "attributed", "edges", "top_wait",
             "truncated"], node_rows,
            title="per-node completion attribution",
        ))
    unit_rows = []
    for u, bucket in analysis.get("per_unit", {}).items():
        top = max(bucket, key=lambda c: bucket[c]) if bucket else "-"
        unit_rows.append([u, _fmt_s(sum(bucket.values())),
                          f"{top} ({_fmt_s(bucket.get(top, 0.0))}s)"
                          if bucket else "-"])
    if unit_rows:
        lines.append("")
        lines.append(format_table(
            ["page", "wait_s", "dominant wait"], unit_rows,
            title="per-page wavefront breakdown",
        ))
    incomplete = [n["node"] for n in analysis.get("nodes", [])
                  if not n.get("completed")]
    if incomplete:
        lines.append("")
        lines.append("never completed: "
                     + ", ".join(str(n) for n in incomplete))
    return "\n".join(lines)


# Longest critical-path waits the "why" report lists.
_WHY_TOP = 12


def render_why(dag: CausalDag, path: CriticalPath) -> str:
    """The per-node "why was completion at t?" report."""
    from repro.experiments.reporting import format_table

    lines = [
        f"node {path.node} completed at t={path.t_end:.3f}s; the causal "
        f"chain roots at t={path.root_ts:.3f}s and explains "
        f"{path.attribution:.1%} of that latency"
        + (" (chain truncated before the base root)" if path.truncated
           else ""),
    ]
    cats = path.categories()
    total = sum(cats.values())
    rows = [
        [c, _fmt_s(v), f"{v / total:.1%}" if total else "-"]
        for c, v in sorted(cats.items(), key=lambda kv: -kv[1]) if v > 0
    ]
    if rows:
        lines.append("")
        lines.append(format_table(
            ["category", "wait_s", "share"], rows,
            title=f"where node {path.node}'s completion latency went",
        ))
    longest = sorted(path.edges, key=lambda e: -e.span)[:_WHY_TOP]
    keep = {id(e) for e in longest}
    rows = [
        [f"{e.t_from:.3f}", f"{e.t_to:.3f}", _fmt_s(e.span), e.category,
         e.node, "-" if e.unit is None else e.unit, e.note or "-"]
        for e in path.edges if id(e) in keep
    ]
    if rows:
        lines.append("")
        lines.append(format_table(
            ["from", "to", "span_s", "category", "node", "page", "note"],
            rows, title=f"{len(rows)} longest wait(s) on the critical path "
                        f"({len(path.edges)} edges total)",
        ))
    return "\n".join(lines)


def comparison_report(analyses: List[Dict[str, Any]]) -> str:
    """Protocol-comparison table over several runs' category totals."""
    from repro.experiments.reporting import format_table

    labels = [str(a.get("protocol", "?")) for a in analyses]
    rows = []
    for c in WAIT_CATEGORIES:
        values = [a.get("categories", {}).get(c, 0.0) for a in analyses]
        if not any(values):
            continue
        rows.append([c] + [_fmt_s(v) for v in values])
    rows.append(["(mean completion)"] + [
        _fmt_s(sum(n["t_complete"] for n in a.get("nodes", [])
                   if n.get("completed"))
               / max(1, a.get("completed", 0) or 1))
        for a in analyses
    ])
    return format_table(
        ["category"] + labels, rows,
        title="critical-path wait totals by protocol (seconds)",
    )
