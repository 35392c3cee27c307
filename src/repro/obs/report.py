"""Human-readable view of a run manifest, plus the perfbench gate.

Everything here *returns strings* — printing is the job of the CLI shim in
``repro.obs.__main__`` — so the same renderings are usable from tests and
notebooks without capturing stdout.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.obs.catalog import spec_for
from repro.obs.manifest import RunManifest

__all__ = [
    "TOLERANCE",
    "manifest_summary",
    "load_perf_baseline",
    "read_perf_output",
    "bench_compare",
]

# Allowed fractional slowdown before the perf gate fails: the ``wall_s`` and
# ``events_per_s`` bounds in BENCHMARK.json.
TOLERANCE = 0.25

# Counters the manifest summary lists, largest first.
_SUMMARY_TOP = 25


def _fmt_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.4g}"


def manifest_summary(manifest: RunManifest) -> str:
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
        for name, value in ranked[:_SUMMARY_TOP]:
            spec = spec_for(name)
            rows.append([
                name, value,
                spec.unit if spec else "?",
                spec.help if spec else "(not in catalogue)",
            ])
        shown = min(_SUMMARY_TOP, len(ranked))
        title = f"top {shown} of {len(ranked)} counters"
        lines.append("")
        lines.append(format_table(["counter", "value", "unit", "help"], rows,
                                  title=title))
    return "\n".join(lines)


def _positive(value: Any) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and value > 0)


def load_perf_baseline(path: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """The committed perf baseline: workload -> digest, wall_s, events_per_s.

    Raises ``FileNotFoundError`` for a missing file and ``ValueError`` for
    anything that is not that shape.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed baseline {path}: {exc}") from exc
    if not isinstance(data, dict) or not data:
        raise ValueError(f"malformed baseline {path}: expected an object "
                         "keyed by workload")
    for workload, entry in data.items():
        if (not isinstance(entry, dict)
                or not isinstance(entry.get("digest"), str)
                or not _positive(entry.get("wall_s"))
                or not _positive(entry.get("events_per_s"))):
            raise ValueError(f"malformed baseline {path}: {workload!r} needs "
                             "a digest and positive wall_s and events_per_s")
    return data


def read_perf_output(path: Union[str, Path]) -> Dict[str, Any]:
    """The gated fields of one ``perfbench/run.py --trace 0`` output.

    A perfbench run ends with two JSON lines: the detail line (``workload``,
    ``digest``) and the result line (``correct``, ``failed``, ``metrics``).
    Raises ``FileNotFoundError`` for a missing file and ``ValueError`` when
    those two lines are absent or malformed.
    """
    lines = [line for line in
             Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]
    try:
        detail, result = (json.loads(line) for line in lines[-2:])
        metrics = result["metrics"]
        return {
            "workload": str(detail["workload"]),
            "digest": str(detail["digest"]),
            "correct": bool(result["correct"]),
            "failed": int(result["failed"]),
            "wall_s": float(metrics["wall_s"]["value"]),
            "events_per_s": float(metrics["events_per_s"]["value"]),
        }
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed perfbench output {path}: expected its "
                         f"detail and result lines ({exc})") from exc


def bench_compare(
    baseline: Dict[str, Dict[str, Any]], runs: List[Dict[str, Any]]
) -> Tuple[bool, str]:
    """Gate perfbench runs against the committed baseline.

    A run fails when it is not ``correct``, has failed disseminations, or is
    more than :data:`TOLERANCE` slower than its workload's baseline in
    ``wall_s`` or ``events_per_s``.  Speed-ups never fail: the baseline is a
    floor, not a pin.  A changed digest only prints a note, since a
    deliberate change to the simulated physics may move it.  Returns
    ``(ok, report_text)``; raises ``ValueError`` when a run names a workload
    the baseline lacks, or a baseline workload has no run.
    """
    unknown = sorted({r["workload"] for r in runs} - set(baseline))
    if unknown:
        raise ValueError(f"workload(s) not in the baseline: {', '.join(unknown)}")
    missing = sorted(set(baseline) - {r["workload"] for r in runs})
    if missing:
        raise ValueError(f"no run for baseline workload(s): {', '.join(missing)}")
    ok = True
    lines: List[str] = []
    for run in runs:
        base = baseline[run["workload"]]
        wall_ratio = run["wall_s"] / base["wall_s"]
        eps_ratio = run["events_per_s"] / base["events_per_s"]
        problems: List[str] = []
        if not run["correct"] or run["failed"] > 0:
            problems.append(f"not correct ({run['failed']} failed)")
        if wall_ratio > 1.0 + TOLERANCE:
            problems.append(f"wall_s above baseline x {1.0 + TOLERANCE:.2f}")
        if eps_ratio < 1.0 - TOLERANCE:
            problems.append(f"events_per_s below baseline x {1.0 - TOLERANCE:.2f}")
        ok = ok and not problems
        lines.append(
            f"{run['workload']}: wall_s {run['wall_s']:.3f} s "
            f"(baseline {base['wall_s']:.3f}, {wall_ratio - 1.0:+.1%}), "
            f"events_per_s {run['events_per_s']:,.0f} "
            f"(baseline {base['events_per_s']:,.0f}, {eps_ratio - 1.0:+.1%})  "
            + ("FAIL: " + "; ".join(problems) if problems else "ok")
        )
        if run["digest"] != base["digest"]:
            lines.append(f"  note: digest {base['digest']} -> {run['digest']}: "
                         "the simulated outputs changed")
    lines.append("PASS" if ok else "FAIL")
    return ok, "\n".join(lines)
