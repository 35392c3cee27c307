"""Storage chaos engine: deterministic fs-fault injection and crash points.

LR-Seluge's harness persists everything that matters — campaign checkpoint
journals, quarantine records, figure exports — through :mod:`repro.persist`.
This package tests that layer under the failures it claims to survive:

* :class:`FaultyFS` interposes on the persist seam and injects ENOSPC, EIO,
  short writes, torn writes, and simulated process death at schedule-driven
  points (:class:`FaultSchedule`, derived from :mod:`repro.sim.rng` streams,
  so every failure sequence is replayable from a seed);
* the crash-point explorer (:mod:`repro.chaos.explore`) enumerates every
  persist operation a campaign performs, simulates a kill at each one — as
  an in-process :class:`ChaosCrash` or a real SIGKILL — restarts the
  campaign with ``resume=True``, and asserts the recovery invariants:
  byte-identical aggregate output, no torn non-trailing journal lines,
  and monotone checkpoint/quarantine/results stores.

CLI: ``python -m repro.chaos explore`` / ``inject``.  Test helper:
:func:`repro.chaos.testing.faulty_fs`.
"""

from repro.chaos.fs import ChaosCrash, FaultyFS, OpRecord
from repro.chaos.schedule import FaultSchedule, FaultSpec
from repro.chaos.workload import ChaosWorkload
from repro.chaos.explore import explore_crash_points, enumerate_ops

__all__ = [
    "ChaosCrash",
    "FaultyFS",
    "OpRecord",
    "FaultSchedule",
    "FaultSpec",
    "ChaosWorkload",
    "explore_crash_points",
    "enumerate_ops",
]
