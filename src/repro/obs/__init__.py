"""Observability subsystem: metrics, traces, and run manifests.

The paper's entire evaluation is a measurement exercise, so measurement is a
first-class subsystem here rather than an ad-hoc ``Counter``:

* :mod:`repro.obs.catalog` — the central metric-name vocabulary (names,
  units, help text) for the counter store that
  :class:`repro.sim.trace.TraceRecorder` owns.  replint rule REP011
  enforces that every ``trace.count``/``trace.record`` kind literal comes
  from this catalogue, and run manifests list the counters a run used
  without a declaration.
* :mod:`repro.obs.flight` — the flight and causal recorders, subscribers
  to the recorder's observation seam.
* :mod:`repro.obs.events` — schema-versioned structured trace events with
  span support and JSONL persistence.
* :mod:`repro.obs.analyze` / :mod:`repro.obs.causal` — offline reductions
  of a flight trace (wavefront, stalls, link matrix) and of a causal trace
  (critical paths and their wait attribution).
* :mod:`repro.obs.manifest` — run manifests (seed, config, git rev,
  counters, timings).
* :mod:`repro.obs.report` / ``python -m repro.obs`` — summarise a
  manifest, run the trace reductions, and ``bench-compare``, the CI perf
  gate over ``perfbench/run.py`` outputs (how long a run takes, end to end
  and per layer, is measured by ``perfbench/``, outside the package).

This ``__init__`` deliberately imports nothing, so importing one submodule
(the event log, say) loads only that submodule and what it imports.
"""

__all__ = [
    "catalog",
    "events",
    "manifest",
    "report",
]
