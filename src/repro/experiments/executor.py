"""Campaign executor: checkpointed sweep cells, each run exactly once.

The paper's evaluation is a large campaign of independent simulations, and
every cell is a deterministic function of its seeded scenario.  This module
runs them:

* each cell is a :class:`Task` with a **stable content-derived key** (hash
  of its kind + parameters), so results are joined by identity, never by
  list position — completion order and resume can never misalign rows;
* a :class:`~repro.experiments.checkpoint.CampaignCheckpoint` journals every
  completed cell atomically, so a killed campaign resumed with
  ``resume=True`` re-runs only the missing cells and — cells being
  deterministic — produces byte-identical aggregate output;
* every cell runs once through :func:`_run_task`, inline or on a
  :class:`concurrent.futures.ProcessPoolExecutor`, with the simulation
  watchdog (:func:`repro.sim.engine.set_default_watchdog`) installed.  A
  cell that raises is quarantined into ``quarantine.jsonl`` with its error
  and traceback; rerunning it would only raise again.  A worker that dies
  (OOM, SIGKILL) breaks the pool: the campaign stops with
  ``BrokenProcessPool``, the cells journalled so far stay, and a resume
  runs the rest.

:func:`_run_task` also times each cell's process CPU seconds, which the
campaign report carries per task (``cpu_s``) and in total; a cell replayed
from the journal was not run, so it has no CPU time.  The journal itself
holds results only.

Every result — fresh or replayed from the journal — passes through the same
JSON encode/decode pair, so the resumed and uninterrupted paths are
transformations of identical data by construction.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.experiments.checkpoint import CampaignCheckpoint
from repro.experiments.metrics import RunResult
from repro.experiments.reporting import cpu_stopwatch
from repro.sim import engine

__all__ = [
    "Task",
    "CampaignConfig",
    "CampaignReport",
    "CampaignOutcome",
    "task_key",
    "run_campaign",
    "execute_scenarios",
    "DEFAULT_WATCHDOG_MAX_EVENTS",
]

# Generous per-task event budget: the biggest paper campaign (15x15 grids,
# 20 KiB images) stays well under ten million events, so a worker crossing
# this line is livelocked, not slow.
DEFAULT_WATCHDOG_MAX_EVENTS = 50_000_000


def _canonical(value: Any) -> Any:
    """Reduce a payload to deterministic JSON-friendly material for hashing."""
    if is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__,
                "fields": _canonical(asdict(value))}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(),
                                                         key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def task_key(kind: str, payload: Any) -> str:
    """Stable content-derived key for one campaign cell.

    The key is a SHA-256 over the cell kind and its canonicalised
    parameters, so the same (scenario, seed, code-relevant config) always
    maps to the same journal entry — across processes, platforms, and
    resumed runs.
    """
    material = json.dumps({"kind": kind, "payload": _canonical(payload)},
                          sort_keys=True)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]


@dataclass(frozen=True)
class Task:
    """One independent campaign cell: a picklable runner and its payload."""

    key: str
    runner: Callable[[Any], Any]
    payload: Any
    label: str = ""

    @classmethod
    def for_scenario(
        cls, kind: str, runner: Callable[[Any], Any], scenario: Any,
        label: str = "",
    ) -> "Task":
        return cls(
            key=task_key(kind, scenario),
            runner=runner,
            payload=scenario,
            label=label or f"{kind}:{getattr(scenario, 'protocol', '?')}"
                           f":seed={getattr(scenario, 'seed', '?')}",
        )


@dataclass
class CampaignConfig:
    """How a campaign executes: parallelism and checkpoints.

    ``processes=None`` (or 0) runs cells inline in the campaign process;
    ``processes>=1`` runs them on a pool of that many worker processes.
    Results are identical either way.

    ``reports`` accumulates one :class:`CampaignReport` per ``run_campaign``
    call that used this config, so a CLI driving several campaigns (e.g.
    ``python -m repro.experiments all``) can merge them into one manifest.

    Every cell, inline or pooled, runs under the simulation watchdog at
    ``DEFAULT_WATCHDOG_MAX_EVENTS`` with no simulated-time limit.
    """

    processes: Optional[int] = None
    checkpoint_dir: Optional[Union[str, Path]] = None
    resume: bool = False
    reports: List["CampaignReport"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.resume and self.checkpoint_dir is None:
            raise ConfigError("resume=True requires a checkpoint_dir")


@dataclass
class CampaignReport:
    """What happened to every task: the campaign's structured final report."""

    total: int = 0
    completed: int = 0
    resumed: int = 0             # completed cells replayed from the checkpoint
    quarantined: int = 0
    measured: int = 0            # cells run here, with their CPU time
    cpu_s: float = 0.0           # summed process CPU seconds of those cells
    tasks: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def note(self, task: Task, status: str,
             error: Optional[Dict[str, str]] = None,
             cpu_s: Optional[float] = None) -> None:
        entry: Dict[str, Any] = {"label": task.label, "status": status,
                                 **(error or {})}
        if cpu_s is not None:
            entry["cpu_s"] = cpu_s
            self.measured += 1
            self.cpu_s += cpu_s
        self.tasks[task.key] = entry

    def to_dict(self) -> Dict[str, Any]:
        """Manifest-embeddable summary: counts plus per-task status."""
        return {
            "total": self.total,
            "completed": self.completed,
            "resumed": self.resumed,
            "quarantined": self.quarantined,
            "measured": self.measured,
            "cpu_s": self.cpu_s,
            "tasks": {k: self.tasks[k] for k in sorted(self.tasks)},
        }

    def summary(self) -> str:
        return (
            f"{self.completed}/{self.total} completed"
            f" ({self.resumed} resumed, {self.quarantined} quarantined)"
        )


@dataclass
class CampaignOutcome:
    """Results keyed by task key, plus the campaign report and the errors
    of quarantined tasks."""

    results: Dict[str, Any]
    report: CampaignReport
    quarantined: Dict[str, Dict[str, str]] = field(default_factory=dict)


def _identity_codec(value: Any) -> Any:
    return value


def _run_task(
    encode: Callable[[Any], Any], task: Task
) -> Tuple[str, bool, Any, float]:
    """Run one cell: ``(key, True, encoded result, cpu_s)`` or ``(key,
    False, error, cpu_s)`` where the error holds the exception's type,
    message and traceback and ``cpu_s`` is the process CPU seconds the
    cell took.  The inline and pool paths both call exactly this."""
    with cpu_stopwatch() as cpu:
        try:
            ok, body = True, encode(task.runner(task.payload))
        except Exception as exc:
            ok, body = False, {
                "error_type": type(exc).__name__,
                "error": str(exc),
                "traceback": traceback.format_exc(),
            }
    return task.key, ok, body, cpu()


def run_campaign(
    tasks: Sequence[Task],
    config: Optional[CampaignConfig] = None,
    encode: Callable[[Any], Any] = _identity_codec,
    decode: Callable[[Any], Any] = _identity_codec,
) -> CampaignOutcome:
    """Execute every task once; results keyed by task.

    ``encode``/``decode`` bridge task results and the JSON journal; both the
    fresh and resumed paths go through them, so a checkpointed result is
    exactly what an uninterrupted run would have produced.  Raises
    ``BrokenProcessPool`` if a pool worker dies.
    """
    config = config if config is not None else CampaignConfig()
    journal: Optional[CampaignCheckpoint] = None
    if config.checkpoint_dir is not None:
        journal = CampaignCheckpoint(config.checkpoint_dir, resume=config.resume)
    report = CampaignReport(total=len(tasks))
    outcome = CampaignOutcome(results={}, report=report)

    # Deduplicate by key (identical cells are the same work) and replay the
    # journal: completed cells are decoded, never re-run.
    unique: Dict[str, Task] = {}
    for task in tasks:
        unique.setdefault(task.key, task)
    completed_records = journal.completed() if journal is not None else {}
    pending: List[Task] = []
    for key, task in unique.items():
        record = completed_records.get(key)
        if record is not None:
            outcome.results[key] = decode(record["result"])
            report.completed += 1
            report.resumed += 1
            report.note(task, "resumed")
        else:
            pending.append(task)

    def finish(key: str, ok: bool, body: Any, cpu_s: float) -> None:
        task = unique[key]
        if ok:
            outcome.results[key] = decode(body)
            report.completed += 1
            report.note(task, "completed", cpu_s=cpu_s)
            if journal is not None:
                journal.record_completed(key, task.label, body)
        else:
            report.quarantined += 1
            report.note(task, "quarantined", body, cpu_s=cpu_s)
            outcome.quarantined[key] = body
            if journal is not None:
                journal.record_quarantined(key, task.label, body)

    if pending and not config.processes:
        watchdog_before = engine.get_default_watchdog()
        engine.set_default_watchdog(DEFAULT_WATCHDOG_MAX_EVENTS)
        try:
            for task in pending:
                finish(*_run_task(encode, task))
        finally:
            engine.set_default_watchdog(*watchdog_before)
    elif pending:
        pool = ProcessPoolExecutor(
            max_workers=config.processes,
            initializer=engine.set_default_watchdog,
            initargs=(DEFAULT_WATCHDOG_MAX_EVENTS,),
        )
        try:
            futures = [pool.submit(_run_task, encode, task) for task in pending]
            for future in as_completed(futures):
                finish(*future.result())
        finally:
            pool.shutdown(cancel_futures=True)
    config.reports.append(report)
    return outcome


# ---------------------------------------------------------------------------
# Scenario campaigns (the bridge figures and tables use)
# ---------------------------------------------------------------------------

def _encode_run_result(result: Any) -> Any:
    return result.to_jsonable()


def _decode_run_result(data: Any) -> RunResult:
    return RunResult.from_jsonable(data)


def execute_scenarios(
    kind: str,
    runner: Callable[[Any], RunResult],
    scenarios: Sequence[Any],
    campaign: Optional[CampaignConfig] = None,
) -> Dict[str, RunResult]:
    """Run scenario cells through the executor; results keyed by task key.

    This is the single execution path for every figure and table
    campaign: callers build their scenario list, execute it here, and join
    results back by ``task_key(kind, scenario)``.
    Quarantined cells are absent from the mapping — the caller degrades its
    aggregate rather than aborting.
    """
    tasks = [Task.for_scenario(kind, runner, scenario) for scenario in scenarios]
    outcome = run_campaign(
        tasks,
        campaign if campaign is not None else CampaignConfig(),
        encode=_encode_run_result,
        decode=_decode_run_result,
    )
    return outcome.results
