"""Flight-trace reduction: convergence wavefront, stalls, link matrix.

``python -m repro.obs analyze run.trace.jsonl`` reduces a flight-recorded
trace (see :mod:`repro.obs.flight`) into three reports:

* **wavefront** — per-hop completion statistics (first/median/last
  ``node_complete`` time per BFS hop from the base station), the per-hop
  shape behind the paper's completion-time figures;
* **stalls** — abnormally long gaps between a node's consecutive
  ``unit_complete`` events (relative to the run's median page gap), plus
  every node that never completed and where it got stuck;
* **links** — the per-``(src, dst)`` delivery matrix: delivered / lost (by
  cause) / auth-dropped / duplicate counts and the resulting loss rate.

All functions are pure reductions over the event list; the optional JSON
artifact goes through :mod:`repro.persist` atomic writes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.events import EventLog, TraceEvent, load_jsonl

__all__ = ["analyze_events", "analyze_jsonl", "render_analysis"]

# A page gap above this multiple of the run's median gap is a stall.
_STALL_FACTOR = 5.0


def _median(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def analyze_events(
    events: Union[EventLog, Iterable[TraceEvent]],
) -> Dict[str, Any]:
    """Reduce a trace into wavefront / stall / link-matrix reports."""
    if isinstance(events, EventLog):
        events = events.events
    hops: Dict[int, int] = {}
    base: Optional[int] = None
    protocols: Dict[int, str] = {}
    completion: Dict[int, float] = {}
    unit_times: Dict[int, List[Dict[str, float]]] = {}
    links: Dict[str, Dict[str, Any]] = {}
    end_ts = 0.0

    for e in events:
        end_ts = max(end_ts, e.ts + (e.dur or 0.0))
        if e.kind == "flight_topology":
            base = e.detail.get("base")
            hops = {int(k): int(v) for k, v in e.detail.get("hops", {}).items()}
        elif e.kind == "flight_meta" and e.node is not None:
            protocols[e.node] = str(e.detail.get("protocol", "?"))
        elif e.kind == "node_complete" and e.node is not None:
            completion.setdefault(e.node, e.ts)
        elif e.kind == "unit_complete" and e.node is not None:
            unit_times.setdefault(e.node, []).append(
                {"unit": int(e.detail.get("unit", -1)), "ts": e.ts}
            )
        elif e.kind == "flight_link_stats":
            d = e.detail
            links[f"{d.get('src')}->{d.get('dst')}"] = {
                "src": d.get("src"),
                "dst": d.get("dst"),
                "rx": int(d.get("rx", 0)),
                "lost": int(d.get("lost", 0)),
                "auth_drop": int(d.get("auth_drop", 0)),
                "duplicate": int(d.get("duplicate", 0)),
                "causes": dict(d.get("causes", {})),
            }

    # -- wavefront: per-hop completion statistics -----------------------------
    known_nodes = set(protocols) | set(completion) | set(unit_times) | set(hops)
    wavefront: List[Dict[str, Any]] = []
    by_hop: Dict[Optional[int], List[int]] = {}
    for node in sorted(known_nodes):
        if base is not None and node == base:
            continue
        by_hop.setdefault(hops.get(node), []).append(node)
    for hop in sorted(by_hop, key=lambda h: (h is None, h)):
        nodes = by_hop[hop]
        done = sorted(completion[n] for n in nodes if n in completion)
        wavefront.append({
            "hop": hop,
            "nodes": len(nodes),
            "completed": len(done),
            "t_first": done[0] if done else None,
            "t_median": _median(done) if done else None,
            "t_last": done[-1] if done else None,
        })

    # -- stalls: outlier page gaps and stuck nodes ----------------------------
    gaps: List[float] = []
    for node, entries in unit_times.items():
        for prev, cur in zip(entries, entries[1:]):
            gaps.append(cur["ts"] - prev["ts"])
    median_gap = _median(gaps)
    threshold = _STALL_FACTOR * median_gap if median_gap > 0 else None
    stall_events: List[Dict[str, Any]] = []
    if threshold is not None:
        for node in sorted(unit_times):
            entries = unit_times[node]
            for prev, cur in zip(entries, entries[1:]):
                gap = cur["ts"] - prev["ts"]
                if gap > threshold:
                    stall_events.append({
                        "node": node,
                        "before_unit": cur["unit"],
                        "gap_s": round(gap, 6),
                        "from_ts": prev["ts"],
                        "to_ts": cur["ts"],
                    })
    incomplete: List[Dict[str, Any]] = []
    for node in sorted(known_nodes):
        if node in completion or (base is not None and node == base):
            continue
        entries = unit_times.get(node, [])
        incomplete.append({
            "node": node,
            "units_complete": len(entries),
            "last_unit_ts": entries[-1]["ts"] if entries else None,
            "stuck_for_s": round(end_ts - entries[-1]["ts"], 6)
            if entries else None,
        })

    # -- link matrix ----------------------------------------------------------
    link_rows: List[Dict[str, Any]] = []
    for key in sorted(links):
        row = dict(links[key])
        attempts = row["rx"] + row["lost"]
        row["loss_rate"] = round(row["lost"] / attempts, 4) if attempts else 0.0
        link_rows.append(row)

    return {
        "type": "flight_analysis",
        "base": base,
        "nodes": len(known_nodes),
        "completed": len(completion),
        "end_ts": end_ts,
        "median_page_gap_s": round(median_gap, 6),
        "wavefront": wavefront,
        "stalls": {
            "threshold_s": round(threshold, 6) if threshold else None,
            "events": stall_events,
            "incomplete_nodes": incomplete,
        },
        "links": link_rows,
    }


def analyze_jsonl(
    path: Union[str, Path],
    out: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Analyze an archived trace; optionally persist the reduction as JSON."""
    _header, events = load_jsonl(path)
    analysis = analyze_events(events)
    analysis["trace_file"] = str(path)
    if out is not None:
        from repro.persist import atomic_write_text

        atomic_write_text(Path(out), json.dumps(analysis, indent=2,
                                                sort_keys=True) + "\n")
    return analysis


def render_analysis(analysis: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`analyze_events` output."""
    from repro.experiments.reporting import format_table

    lines: List[str] = [
        f"nodes:      {analysis['nodes']} "
        f"({analysis['completed']} completed, base={analysis['base']})",
        f"trace end:  t={analysis['end_ts']:.3f}s, "
        f"median page gap {analysis['median_page_gap_s']:.3f}s",
    ]
    wavefront = analysis.get("wavefront", [])
    if wavefront:
        rows = [
            [("?" if w["hop"] is None else w["hop"]), w["nodes"], w["completed"],
             "-" if w["t_first"] is None else f"{w['t_first']:.3f}",
             "-" if w["t_median"] is None else f"{w['t_median']:.3f}",
             "-" if w["t_last"] is None else f"{w['t_last']:.3f}"]
            for w in wavefront
        ]
        lines.append("")
        lines.append(format_table(
            ["hop", "nodes", "done", "t_first", "t_median", "t_last"], rows,
            title="completion wavefront (per hop from base)",
        ))
    stalls = analysis.get("stalls", {})
    events = stalls.get("events", [])
    if events:
        rows = [
            [s["node"], s["before_unit"], f"{s['gap_s']:.3f}",
             f"{s['from_ts']:.3f}", f"{s['to_ts']:.3f}"]
            for s in events
        ]
        lines.append("")
        lines.append(format_table(
            ["node", "before_unit", "gap_s", "from", "to"], rows,
            title=f"stalls (> {stalls.get('threshold_s')}s between pages)",
        ))
    incomplete = stalls.get("incomplete_nodes", [])
    if incomplete:
        rows = [
            [n["node"], n["units_complete"],
             "-" if n["last_unit_ts"] is None else f"{n['last_unit_ts']:.3f}",
             "-" if n["stuck_for_s"] is None else f"{n['stuck_for_s']:.3f}"]
            for n in incomplete
        ]
        lines.append("")
        lines.append(format_table(
            ["node", "units", "last_unit_at", "stuck_for_s"], rows,
            title="nodes that never completed",
        ))
    links = analysis.get("links", [])
    if links:
        rows = [
            [f"{l['src']}->{l['dst']}", l["rx"], l["lost"],
             f"{l['loss_rate']:.1%}", l["auth_drop"], l["duplicate"],
             ", ".join(f"{c}={n}" for c, n in sorted(l["causes"].items()))
             or "-"]
            for l in links
        ]
        lines.append("")
        lines.append(format_table(
            ["link", "rx", "lost", "loss", "auth_drop", "dup", "causes"], rows,
            title="per-link delivery matrix",
        ))
    return "\n".join(lines)
