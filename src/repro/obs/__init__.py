"""Observability subsystem: metrics, traces, and run manifests.

The paper's entire evaluation is a measurement exercise, so measurement is a
first-class subsystem here rather than an ad-hoc ``Counter``:

* :mod:`repro.obs.catalog` — the central metric-name vocabulary (names,
  units, help text).  replint rule REP011 enforces that every
  ``trace.count``/``trace.record`` kind literal comes from this catalogue.
* :mod:`repro.obs.registry` — the typed metrics registry
  (counters/gauges/histograms) that :class:`repro.sim.trace.TraceRecorder`
  is a façade over.
* :mod:`repro.obs.events` — schema-versioned structured trace events with
  span support, JSONL persistence, and a Chrome ``trace_event`` / Perfetto
  exporter.
* :mod:`repro.obs.manifest` — run manifests (seed, config, git rev,
  counters, timings) and manifest diffing.
* :mod:`repro.obs.report` / ``python -m repro.obs`` — summarise or diff
  manifests and traces, and ``bench-compare``, the CI perf gate over
  ``perfbench/run.py`` outputs (how long a run takes, end to end and per
  layer, is measured by ``perfbench/``, outside the package).

This ``__init__`` deliberately imports nothing: ``repro.sim.trace`` (checked
under ``mypy --strict``) imports :mod:`repro.obs.registry`, and keeping the
package root empty keeps that import surface minimal and cycle-free.
"""

__all__ = [
    "catalog",
    "events",
    "manifest",
    "registry",
    "report",
]
