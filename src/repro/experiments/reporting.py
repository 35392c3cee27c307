"""Plain-text report tables for regenerated figures and tables.

This module is also the repository's *only* sanctioned clock call site
(replint REP002): CLI progress timing goes through :func:`stopwatch`, a
campaign cell's CPU time through :func:`cpu_stopwatch` and manifest/status
timestamps through :func:`utc_now_iso`, so simulation logic everywhere else
stays a pure function of (config, seed).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence

__all__ = ["format_table", "format_comparison", "stopwatch", "cpu_stopwatch",
           "utc_now_iso"]


@contextmanager
def stopwatch() -> Iterator[Callable[[], float]]:
    """Measure wall-clock duration for CLI reporting.

    Yields a zero-argument callable returning the seconds elapsed since the
    block was entered (monotonic, via :func:`time.perf_counter`)::

        with stopwatch() as elapsed:
            run_everything()
        print(f"done in {elapsed():.1f}s")

    Any other wall-clock read in this repository is a REP002 violation —
    simulated time lives exclusively on the event engine.
    """
    start = time.perf_counter()
    yield lambda: time.perf_counter() - start


@contextmanager
def cpu_stopwatch() -> Iterator[Callable[[], float]]:
    """Measure this process's CPU seconds (user + system) for reporting.

    Like :func:`stopwatch`, but read from :func:`time.process_time`: a
    campaign cell's own cost, which other processes on the host do not
    inflate the way they inflate a pool's wall time.
    """
    start = time.process_time()
    yield lambda: time.process_time() - start


def utc_now_iso() -> str:
    """Current UTC time, ISO-8601 with seconds precision (manifest stamps)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        return f"{value:.2f}"
    return str(value)


def format_comparison(
    label: str,
    baseline: Dict[str, float],
    candidate: Dict[str, float],
    baseline_name: str = "seluge",
    candidate_name: str = "lr-seluge",
) -> str:
    """One-line relative summary: negative saving means the candidate costs more."""
    parts = [label]
    for key in baseline:
        b, c = baseline[key], candidate.get(key, 0)
        if b:
            parts.append(f"{key}: {100.0 * (1.0 - c / b):+.0f}%")
    return "  ".join(parts)
