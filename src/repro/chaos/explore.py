"""Crash-point exploration: kill the campaign at every persist op, resume,
and prove recovery.

The coverage argument: the durability layer mutates disk only through the
:class:`repro.persist.FileSystem` seam, so the on-disk state between any
two syscalls is exactly "state after op ``k-1``".  Simulating a kill
*before* op ``k`` for every ``k`` therefore visits **every distinct
post-kill disk state** an abrupt death could leave behind.  Partial writes
are the one state family that model misses, so a second sweep ("torn"
mode) replays each write op half-delivered before dying.

Each crash point runs the deterministic :class:`repro.chaos.workload.
ChaosWorkload` in a fresh directory under an armed :class:`FaultyFS`,
catches the :class:`ChaosCrash` (or reaps the SIGKILLed subprocess),
resumes against the real filesystem, and asserts the recovery invariants:

* the aggregate CSV is byte-identical to an uninterrupted baseline run;
* no journal contains a torn *interior* line (a torn tail is the expected
  post-crash state and must be healed, not spread);
* recovery is monotone: every checkpoint/quarantine key and every complete
  results record present before the kill is still present after resume.

A point that violates any invariant keeps its directory on disk for
postmortem; passing points are deleted so full sweeps stay cheap.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.chaos.fs import ChaosCrash, FaultyFS, OpRecord
from repro.chaos.workload import ChaosWorkload
from repro.persist import read_jsonl_report, use_fs

__all__ = [
    "CrashPointResult",
    "ExplorationReport",
    "enumerate_ops",
    "explore_crash_points",
    "run_crash_point_child",
]

EXPLORE_SCHEMA_VERSION = 1

# How a staged death is delivered: an in-process ChaosCrash unwind (fast,
# used for full sweeps) or a real SIGKILL of a child process (full process-
# death fidelity, used as a spot check — it is two orders of magnitude
# slower per point).
CRASH_ACTIONS = ("raise", "sigkill")
CRASH_MODES = ("before", "torn")

_SIGKILL_RC = -9


def enumerate_ops(
    workload: ChaosWorkload, root: Union[str, Path]
) -> Tuple[List[OpRecord], bytes]:
    """Run the workload once under a recording passthrough FaultyFS.

    Returns the full persist-operation stream and the baseline aggregate
    CSV bytes.  Because the workload is deterministic, every later crash-
    point run replays exactly this op stream up to its kill index.
    """
    fs = FaultyFS()
    with use_fs(fs):
        csv = workload.run(root)
    return list(fs.ops), csv


@dataclass
class CrashPointResult:
    """Outcome of one simulated kill + resume."""

    index: int
    mode: str
    op: str
    path: str
    crashed: bool = False
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.crashed and not self.problems

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "mode": self.mode,
            "op": self.op,
            "path": self.path,
            "crashed": self.crashed,
            "ok": self.ok,
            "problems": list(self.problems),
        }


@dataclass
class ExplorationReport:
    """Every crash point visited, and whether recovery held everywhere."""

    total_ops: int
    points: List[CrashPointResult] = field(default_factory=list)
    kept_dirs: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[CrashPointResult]:
        return [p for p in self.points if not p.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "schema_version": EXPLORE_SCHEMA_VERSION,
            "total_ops": self.total_ops,
            "points_checked": len(self.points),
            "failures": len(self.failures),
            "ok": self.ok,
            "kept_dirs": list(self.kept_dirs),
            "points": [p.to_jsonable() for p in self.points],
        }

    def summary(self) -> str:
        lines = [
            f"crash-point exploration: {len(self.points)} points over "
            f"{self.total_ops} persist ops -> "
            + ("all recovered" if self.ok else f"{len(self.failures)} FAILED")
        ]
        for point in self.failures:
            lines.append(
                f"  FAIL [{point.mode} @ {point.index}] {point.op} "
                f"{point.path}: " + "; ".join(point.problems)
            )
        return "\n".join(lines)


def _journal_snapshot(
    workload: ChaosWorkload, root: Path
) -> Dict[str, Any]:
    """Tolerant read of the post-kill disk state (complete records only)."""
    ckpt, quarantine, results = workload.journal_paths(root)
    return {
        "checkpoint_keys": {
            str(r.get("key"))
            for r in read_jsonl_report(ckpt).records
            if isinstance(r, dict)
        },
        "quarantine_keys": {
            str(r.get("key"))
            for r in read_jsonl_report(quarantine).records
            if isinstance(r, dict)
        },
        "results_records": list(read_jsonl_report(results).records),
    }


def _check_recovery(
    workload: ChaosWorkload,
    root: Path,
    baseline_csv: bytes,
    pre: Dict[str, Any],
) -> List[str]:
    """The recovery invariants, evaluated after a resume. Returns problems."""
    problems: List[str] = []

    csv_path = workload.csv_path(root)
    try:
        resumed_csv = csv_path.read_bytes()
    except OSError as exc:
        problems.append(f"aggregate CSV unreadable after resume: {exc}")
        resumed_csv = None
    if resumed_csv is not None and resumed_csv != baseline_csv:
        problems.append(
            "aggregate CSV differs from uninterrupted baseline "
            f"({len(resumed_csv)} vs {len(baseline_csv)} bytes)"
        )

    for journal in workload.journal_paths(root):
        report = read_jsonl_report(journal)
        if report.skipped_interior:
            problems.append(
                f"{journal.name}: {report.skipped_interior} torn/corrupt "
                "interior line(s) after resume"
            )
        if report.torn_tail:
            problems.append(
                f"{journal.name}: torn tail survived resume (appends must "
                "heal it)"
            )

    post = _journal_snapshot(workload, root)
    lost_ckpt = pre["checkpoint_keys"] - post["checkpoint_keys"]
    if lost_ckpt:
        problems.append(
            f"checkpoint lost {len(lost_ckpt)} completed key(s) across "
            "crash+resume"
        )
    lost_quarantine = pre["quarantine_keys"] - post["quarantine_keys"]
    if lost_quarantine:
        problems.append(
            f"quarantine lost {len(lost_quarantine)} key(s) across "
            "crash+resume"
        )
    pre_results = pre["results_records"]
    post_results = post["results_records"]
    if post_results[: len(pre_results)] != pre_results:
        problems.append(
            "results journal is not an append-extension of its pre-kill "
            "complete records"
        )
    return problems


def _crash_in_process(
    workload: ChaosWorkload, root: Path, index: int, mode: str
) -> bool:
    """Run the workload to its staged in-process death; True if it died."""
    fs = FaultyFS(crash_at=index, crash_mode=mode)
    try:
        with use_fs(fs):
            workload.run(root)
    except ChaosCrash:
        return True
    return False


def _crash_subprocess(
    workload: ChaosWorkload, root: Path, index: int, mode: str
) -> Tuple[bool, str]:
    """Run the crash point in a child that SIGKILLs itself at the op.

    Full process-death fidelity: no ``finally`` blocks, no atexit, no
    buffered-write flushing — the kernel reclaims the process mid-syscall,
    exactly like ``kill -9`` on a real campaign.
    """
    spec = {
        "workload": workload.to_jsonable(),
        "root": str(root),
        "crash_at": index,
        "crash_mode": mode,
    }
    proc = subprocess.run(
        [sys.executable, "-m", "repro.chaos", "_point", json.dumps(spec)],
        capture_output=True,
        text=True,
    )
    if proc.returncode == _SIGKILL_RC:
        return True, ""
    return False, (
        f"child exited {proc.returncode} instead of SIGKILL; "
        f"stderr: {proc.stderr.strip()[-400:]}"
    )


def run_crash_point_child(spec: Dict[str, Any]) -> int:
    """Child-process body for SIGKILL crash points (``_point`` CLI verb)."""
    workload = ChaosWorkload.from_jsonable(spec["workload"])
    fs = FaultyFS(
        crash_at=int(spec["crash_at"]),
        crash_mode=str(spec["crash_mode"]),
        crash_action="sigkill",
    )
    with use_fs(fs):
        workload.run(spec["root"])
    # Reaching here means the staged op never happened: index out of range.
    return 3


def explore_crash_points(
    workload: ChaosWorkload,
    work_dir: Union[str, Path],
    modes: Sequence[str] = ("before", "torn"),
    crash_action: str = "raise",
    indices: Optional[Sequence[int]] = None,
    stride: int = 1,
    keep_failures: bool = True,
    keep_passing: bool = False,
) -> ExplorationReport:
    """Kill the workload at every persist op, resume, assert recovery.

    ``modes`` selects the sweeps: ``before`` visits every op index (each a
    distinct post-kill disk state), ``torn`` revisits write ops with the
    payload half-delivered.  ``indices`` restricts the sweep to specific op
    indices and ``stride`` samples every N-th point — both for quick local
    iteration; CI runs the full sweep.  ``crash_action='sigkill'`` delivers
    each death as a real ``SIGKILL`` to a child process instead of an
    in-process unwind.
    """
    if crash_action not in CRASH_ACTIONS:
        raise ValueError(f"crash_action must be one of {CRASH_ACTIONS}")
    for mode in modes:
        if mode not in CRASH_MODES:
            raise ValueError(f"unknown crash mode {mode!r}")
    if stride < 1:
        raise ValueError("stride must be >= 1")

    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    ops, baseline_csv = enumerate_ops(workload, work_dir / "baseline")
    report = ExplorationReport(total_ops=len(ops))

    wanted = set(indices) if indices is not None else None
    for mode in modes:
        for op in ops:
            if wanted is not None and op.index not in wanted:
                continue
            if op.index % stride:
                continue
            if mode == "torn" and op.op != "write":
                continue
            point = CrashPointResult(
                index=op.index, mode=mode, op=op.op, path=op.path
            )
            report.points.append(point)
            root = work_dir / f"{mode}-{op.index:04d}"
            if root.exists():
                shutil.rmtree(root)
            if crash_action == "raise":
                point.crashed = _crash_in_process(
                    workload, root, op.index, mode
                )
                if not point.crashed:
                    point.problems.append(
                        "staged crash never fired (op stream diverged from "
                        "baseline?)"
                    )
            else:
                point.crashed, why = _crash_subprocess(
                    workload, root, op.index, mode
                )
                if not point.crashed:
                    point.problems.append(why)

            pre = _journal_snapshot(workload, root)
            try:
                workload.run(root, resume=True)
            except Exception as exc:  # noqa: BLE001 - any resume crash is a finding
                point.problems.append(
                    f"resume raised {type(exc).__name__}: {exc}"
                )
            else:
                point.problems.extend(
                    _check_recovery(workload, root, baseline_csv, pre)
                )

            keep = keep_passing if point.ok else keep_failures
            if keep:
                report.kept_dirs.append(str(root))
            else:
                shutil.rmtree(root, ignore_errors=True)
    return report
