"""Human-readable views over manifests and traces, plus the perf-smoke run.

Everything here *returns strings* — printing is the job of the CLI shim in
``repro.obs.__main__`` — so the same renderings are usable from tests and
notebooks without capturing stdout.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.catalog import spec_for
from repro.obs.manifest import RunManifest, diff_manifests

__all__ = [
    "manifest_summary",
    "diff_report",
    "trace_summary",
    "run_perf_smoke",
    "bench_compare",
]


def _fmt_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.4g}"


def manifest_summary(manifest: RunManifest, top: int = 25) -> str:
    """One manifest as header lines plus an annotated counter table."""
    from repro.experiments.reporting import format_table

    lines: List[str] = [
        f"tool:        {manifest.tool}",
        f"created:     {manifest.created_utc}",
        f"git rev:     {manifest.git_rev or 'unknown'}",
        f"seed:        {manifest.seed}",
    ]
    if manifest.config:
        cfg = ", ".join(f"{k}={v}" for k, v in sorted(manifest.config.items()))
        lines.append(f"config:      {cfg}")
    if manifest.metrics:
        metrics = "  ".join(
            f"{name}={_fmt_value(value)}"
            for name, value in sorted(manifest.metrics.items())
        )
        lines.append(f"metrics:     {metrics}")
    if manifest.timings:
        timings = "  ".join(
            f"{name}={_fmt_value(value)}"
            for name, value in sorted(manifest.timings.items())
        )
        lines.append(f"timings:     {timings}")
    if manifest.trace_file:
        lines.append(f"trace:       {manifest.trace_file}")
    if manifest.unregistered_metrics:
        lines.append(
            "unregistered counters: " + ", ".join(manifest.unregistered_metrics)
        )
    if manifest.counters:
        ranked = sorted(manifest.counters.items(), key=lambda kv: (-kv[1], kv[0]))
        rows: List[List[object]] = []
        for name, value in ranked[:top]:
            spec = spec_for(name)
            rows.append([
                name, value,
                spec.unit if spec else "?",
                spec.help if spec else "(not in catalogue)",
            ])
        title = f"top {min(top, len(ranked))} of {len(ranked)} counters"
        lines.append("")
        lines.append(format_table(["counter", "value", "unit", "help"], rows,
                                  title=title))
    if manifest.profile:
        handlers = manifest.profile.get("handlers", [])
        rows = [
            [h.get("name", "?"), h.get("calls", 0), h.get("total_s", 0.0),
             h.get("mean_us", 0.0), h.get("max_us", 0.0)]
            for h in handlers[:10]
        ]
        if rows:
            lines.append("")
            lines.append(format_table(
                ["handler", "calls", "total_s", "mean_us", "max_us"], rows,
                title="event-loop profile (top handlers)",
            ))
    return "\n".join(lines)


def diff_report(a: RunManifest, b: RunManifest,
                a_name: str = "a", b_name: str = "b") -> str:
    """Counter/metric/timing deltas between two manifests as a table."""
    from repro.experiments.reporting import format_table

    rows = diff_manifests(a, b)
    header = (
        f"{a_name}: {a.tool} seed={a.seed} rev={a.git_rev or '?'} "
        f"({a.created_utc})\n"
        f"{b_name}: {b.tool} seed={b.seed} rev={b.git_rev or '?'} "
        f"({b.created_utc})"
    )
    if not rows:
        return header + "\nno differences"
    table_rows: List[List[object]] = [
        [name, _fmt_value(va), _fmt_value(vb), f"{delta:+g}",
         "n/a" if pct is None else f"{pct:+.1f}%"]
        for name, va, vb, delta, pct in rows
    ]
    return header + "\n\n" + format_table(
        ["quantity", a_name, b_name, "delta", "pct"], table_rows,
        title=f"{len(rows)} differing quantities",
    )


def trace_summary(path: Union[str, Path]) -> str:
    """Quick shape of a JSONL trace: per-kind counts and span durations."""
    from repro.experiments.reporting import format_table
    from repro.obs.events import load_jsonl

    header, events = load_jsonl(path)
    kinds: Dict[str, int] = {}
    span_total: Dict[str, float] = {}
    span_count: Dict[str, int] = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        if event.dur is not None:
            span_total[event.kind] = span_total.get(event.kind, 0.0) + event.dur
            span_count[event.kind] = span_count.get(event.kind, 0) + 1
    rows: List[List[object]] = []
    for kind, count in sorted(kinds.items(), key=lambda kv: (-kv[1], kv[0])):
        n_spans = span_count.get(kind, 0)
        mean = span_total[kind] / n_spans if n_spans else 0.0
        rows.append([kind, count, n_spans, round(mean, 3)])
    title = (
        f"{header.get('events', len(events))} events "
        f"({header.get('dropped', 0)} dropped, "
        f"{header.get('open_spans_flushed', 0)} open spans flushed), "
        f"schema v{header.get('schema_version')}"
    )
    return format_table(["kind", "events", "spans", "mean_span_s"], rows,
                        title=title)


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if not ordered:
        return 0.0
    return (
        ordered[mid] if len(ordered) % 2
        else (ordered[mid - 1] + ordered[mid]) / 2.0
    )


def _median_heap(heaps: List[Dict[str, int]]) -> Dict[str, int]:
    keys = sorted({k for heap in heaps for k in heap})
    return {
        k: int(round(_median([float(heap.get(k, 0)) for heap in heaps])))
        for k in keys
    }


def _median_handlers(
    profiles: List[Dict[str, Any]], top: int = 5
) -> List[Dict[str, Any]]:
    """Per-handler stats aggregated across repeats: the median of each field.

    A single repeat's handler table is hostage to scheduler noise (one
    preemption inflates that repeat's max); the median over repeats is the
    number a regression gate can trust.
    """
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for profile in profiles:
        for handler in profile.get("handlers", []):
            by_name.setdefault(str(handler["name"]), []).append(handler)
    merged: List[Dict[str, Any]] = []
    for name, stats in by_name.items():
        calls = int(round(_median([float(s["calls"]) for s in stats])))
        if calls < 1:
            # All of this handler's calls were warmup (first-call lazy init):
            # there is no steady-state stat for a gate to compare against.
            continue
        merged.append({
            "name": name,
            "calls": calls,
            "total_s": round(_median([float(s["total_s"]) for s in stats]), 6),
            "mean_us": round(_median([float(s["mean_us"]) for s in stats]), 3),
            "max_us": round(_median([float(s["max_us"]) for s in stats]), 3),
        })
    merged.sort(key=lambda h: (-float(h["total_s"]), str(h["name"])))
    return merged[:top]


def run_perf_smoke(
    bench_out: Union[str, Path],
    manifest_out: Optional[Union[str, Path]] = None,
    trace_out: Optional[Union[str, Path]] = None,
    chrome_out: Optional[Union[str, Path]] = None,
    seed: int = 1,
    receivers: int = 8,
    image_kib: int = 4,
    repeats: int = 1,
    warmup: int = 0,
    topology: Optional[str] = None,
    history_out: Optional[Union[str, Path]] = None,
) -> Tuple[Dict[str, Any], str]:
    """Run a small profiled dissemination and write a ``BENCH_*.json``.

    This is the CI perf-smoke entry point: a deterministic dissemination with
    the event-loop profiler and structured tracing enabled, summarised into a
    benchmark JSON (events/sec, handler attribution) plus optional manifest
    and trace artifacts.  Returns ``(bench_dict, profile_report_text)``.

    ``repeats > 1`` runs the identical (deterministic) scenario several times
    and reports the *median* events/sec, heap stats, and per-handler stats
    across repeats, damping CI-runner noise; the trace and manifest artifacts
    come from the last repeat.  ``warmup`` runs that many additional repeats
    *first* and discards them entirely, so one-time lazy-init cost (imports,
    GF-table construction) never lands in a measured repeat's wall samples.
    Independently, each handler's *first call within a repeat* is excluded
    from the per-handler stats (the profiler's warmup bucket): per-run lazy
    init — first-page erasure encode, signature checks warming caches —
    recurs every repeat, and a 39 ms first-call outlier against a 280 µs
    steady-state mean says nothing a regression gate should act on.

    ``topology`` switches the workload from the default one-hop star to a
    multi-hop grid (e.g. ``grid:15x15:3``) and names the bench
    ``sim_grid_perf_smoke`` — the second committed baseline that gates
    multi-hop performance.  ``history_out`` appends the bench record to the
    append-only history store (see ``repro.obs.perf``).
    """
    from repro.experiments.reporting import stopwatch
    from repro.experiments.scenarios import (
        MultiHopScenario,
        OneHopScenario,
        run_multihop,
        run_one_hop,
    )
    from repro.obs.events import EventLog
    from repro.obs.profile import LoopProfiler
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceRecorder

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    config: Dict[str, Any]
    if topology is None:
        one_hop = OneHopScenario(
            protocol="lr-seluge", loss_rate=0.1, receivers=receivers,
            image_size=image_kib * 1024, k=8, n=12, seed=seed,
        )
        config = {
            "protocol": one_hop.protocol,
            "receivers": one_hop.receivers,
            "loss_rate": one_hop.loss_rate,
            "image_kib": image_kib,
            "k": one_hop.k,
            "n": one_hop.n,
        }
        bench_name = "sim_core_perf_smoke"

        def run_once(sim: Simulator, trace: TraceRecorder) -> Any:
            return run_one_hop(one_hop, sim=sim, trace=trace)
    else:
        multi_hop = MultiHopScenario(
            protocol="lr-seluge", topology=topology,
            image_size=image_kib * 1024, k=8, n=12, seed=seed,
        )
        config = {
            "protocol": multi_hop.protocol,
            "topology": topology,
            "image_kib": image_kib,
            "k": multi_hop.k,
            "n": multi_hop.n,
        }
        bench_name = "sim_grid_perf_smoke"

        def run_once(sim: Simulator, trace: TraceRecorder) -> Any:
            return run_multihop(multi_hop, sim=sim, trace=trace)

    for _ in range(warmup):
        # Discarded: warms imports and lazily built tables so the first
        # measured repeat pays steady-state cost only.
        warm_sim = Simulator()
        run_once(warm_sim, TraceRecorder(sink=EventLog()))

    wall_samples: List[float] = []
    heap_samples: List[Dict[str, int]] = []
    profile_samples: List[Dict[str, Any]] = []
    for _ in range(repeats):
        sim = Simulator()
        profiler = LoopProfiler(warmup_calls=1)
        sim.set_profiler(profiler)
        log = EventLog()
        trace = TraceRecorder(sink=log)
        with stopwatch() as elapsed:
            result = run_once(sim, trace)
        wall_samples.append(elapsed())
        heap_samples.append(sim.heap_stats())
        profile_samples.append(profiler.summary())
    wall_s = wall_samples[-1]
    median_wall = _median(wall_samples)
    log.flush_open_spans(sim.now)

    trace_file: Optional[str] = None
    if trace_out is not None:
        trace_file = str(log.write_jsonl(trace_out))
    if chrome_out is not None:
        log.write_chrome_trace(chrome_out)

    heap = _median_heap(heap_samples)
    profile = profiler.summary(heap_stats=sim.heap_stats())
    manifest = RunManifest.from_run(
        "repro.obs.perf-smoke", result, config=config, wall_s=wall_s,
        sim=sim, profile=profile, trace_file=trace_file,
        unregistered=trace.registry.unregistered_names(),
    )
    if manifest_out is not None:
        manifest.write(manifest_out)

    bench: Dict[str, Any] = {
        "name": bench_name,
        "git_rev": manifest.git_rev,
        "created_utc": manifest.created_utc,
        "config": config,
        "completed": result.completed,
        "events": sim.processed_events,
        "sim_time_s": sim.now,
        "wall_s": round(wall_s, 6),
        "events_per_s": round(sim.processed_events / median_wall, 1)
        if median_wall else 0.0,
        "repeats": repeats,
        "warmup": warmup,
        "wall_samples_s": [round(w, 6) for w in wall_samples],
        "heap": heap,
        "handler_wall_s": round(
            _median([p["handler_wall_s"] for p in profile_samples]), 6
        ),
        "top_handlers": _median_handlers(profile_samples),
        "trace_events": len(log),
    }
    from repro.persist import PersistError, atomic_write_text

    if history_out is not None:
        from repro.obs.perf import append_history

        try:
            append_history(history_out, bench)
        except (OSError, PersistError) as exc:
            # The history store is trajectory data, not the measurement: a
            # full disk degrades the append (noted in the bench artifact so
            # CI surfaces it) without failing the perf-smoke run itself.
            bench["history_degraded"] = f"{type(exc).__name__}: {exc}"
    atomic_write_text(Path(bench_out), json.dumps(bench, indent=2) + "\n")
    return bench, profiler.report()


def bench_compare(
    current: Union[str, Path, Dict[str, Any]],
    baseline: Union[str, Path, Dict[str, Any]],
    tolerance: float = 0.25,
    handler_warn: float = 0.25,
    handler_fail: float = 0.50,
) -> Tuple[bool, str]:
    """Gate a perf-smoke run against a committed baseline.

    Compares the (median) ``events_per_s`` throughput; returns
    ``(ok, report_text)`` where ``ok`` is False when the current run is more
    than ``tolerance`` (default 25%) *slower* than the baseline.  Speedups
    never fail — the committed baseline is a floor, not a pin.

    When both benches ran the identical workload (matching event counts), the
    per-handler mean wall times are diffed too: a handler more than
    ``handler_warn`` (25%) slower is reported as a warning, more than
    ``handler_fail`` (50%) slower fails the gate — so a regression names its
    handler instead of hiding inside the aggregate.
    """
    from repro.obs.perf import handler_mean_deltas

    def _load(source: Union[str, Path, Dict[str, Any]]) -> Dict[str, Any]:
        if isinstance(source, dict):
            return source
        return json.loads(Path(source).read_text(encoding="utf-8"))

    cur = _load(current)
    base = _load(baseline)
    cur_eps = float(cur.get("events_per_s", 0.0))
    base_eps = float(base.get("events_per_s", 0.0))
    lines = [
        f"baseline: {base_eps:,.0f} events/s "
        f"(rev {base.get('git_rev') or '?'}, {base.get('created_utc', '?')})",
        f"current:  {cur_eps:,.0f} events/s "
        f"(rev {cur.get('git_rev') or '?'}, {cur.get('created_utc', '?')})",
    ]
    same_workload = cur.get("events") == base.get("events")
    if not same_workload:
        lines.append(
            f"note: event counts differ ({base.get('events')} -> "
            f"{cur.get('events')}); the workload changed, throughput is "
            "only loosely comparable"
        )
    if base_eps <= 0:
        lines.append("baseline has no throughput sample; skipping gate")
        return True, "\n".join(lines)
    ratio = cur_eps / base_eps
    lines.append(f"ratio:    {ratio:.3f} (gate: >= {1.0 - tolerance:.2f})")
    ok = ratio >= (1.0 - tolerance)
    if not ok:
        lines.append(f"aggregate regression exceeds {tolerance:.0%} of baseline")

    if same_workload:
        deltas = handler_mean_deltas(
            list(cur.get("top_handlers", [])),
            list(base.get("top_handlers", [])),
        )
        for name, base_us, cur_us, pct in deltas:
            if pct > handler_fail:
                ok = False
                lines.append(
                    f"FAIL handler {name}: mean {base_us:.1f} -> "
                    f"{cur_us:.1f} us ({pct:+.0%}, limit +{handler_fail:.0%})"
                )
            elif pct > handler_warn:
                lines.append(
                    f"WARN handler {name}: mean {base_us:.1f} -> "
                    f"{cur_us:.1f} us ({pct:+.0%}, warn at +{handler_warn:.0%})"
                )
    else:
        lines.append("per-handler gate skipped (workload changed)")
    lines.append("PASS" if ok else "FAIL")
    return ok, "\n".join(lines)
