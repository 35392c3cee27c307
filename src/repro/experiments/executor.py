"""Fault-tolerant campaign executor: supervised, checkpointed sweep cells.

The paper's evaluation is a large campaign of independent simulations.  A
bare ``multiprocessing.Pool.map`` runs them, but one hung or crashed worker
loses the whole campaign and an interrupted multi-hour run restarts from
zero.  This module gives every sweep cell job-level resilience:

* each cell is a :class:`Task` with a **stable content-derived key** (hash
  of its kind + parameters), so results are joined by identity, never by
  list position — retries and resume can never misalign rows;
* a :class:`~repro.experiments.checkpoint.CampaignCheckpoint` journals every
  completed cell atomically, so a killed campaign resumed with
  ``resume=True`` re-runs only the missing cells and — cells being
  deterministic — produces byte-identical aggregate output;
* workers run in their own ``multiprocessing.Process`` with a wall-clock
  timeout and a simulation watchdog
  (:func:`repro.sim.engine.set_default_watchdog`) always installed, failures
  are classified (exception / timeout / worker death / malformed result),
  retried with decelerating jittered backoff
  (:class:`~repro.experiments.backoff.BackoffPolicy`, deterministic per
  task+attempt), and persistent failures are quarantined into
  ``quarantine.jsonl`` instead of aborting the campaign.

Every result — fresh, retried, or replayed from the journal — passes through
the same JSON encode/decode pair, so the resumed and uninterrupted paths are
transformations of identical data by construction.

Wall-clock time (timeouts, backoff deadlines) is read exclusively through
:func:`repro.experiments.reporting.stopwatch`, the repository's sanctioned
clock shim: timing is measurement *about* the campaign, never an input to
any simulation.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import asdict, dataclass, field, is_dataclass
from multiprocessing import Process, get_context
from multiprocessing.connection import Connection, wait as connection_wait
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.experiments.backoff import BackoffPolicy
from repro.experiments.checkpoint import CampaignCheckpoint
from repro.experiments.metrics import RunResult
from repro.experiments.reporting import stopwatch

__all__ = [
    "Task",
    "TaskAttempt",
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

_SUPERVISOR_TICK_S = 0.05


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
class TaskAttempt:
    """One attempt at one task, as recorded in journals and manifests."""

    attempt: int
    outcome: str                 # "ok" | "exception" | "timeout" | "worker_death" | "malformed"
    error_type: Optional[str] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    backoff_s: Optional[float] = None   # wait applied before the *next* attempt

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"attempt": self.attempt, "outcome": self.outcome}
        for name in ("error_type", "error", "traceback", "backoff_s"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


@dataclass
class CampaignConfig:
    """How a campaign executes: parallelism, timeouts, retries, checkpoints.

    ``processes=None`` (or 0) runs cells inline in the campaign process —
    no per-task preemption, but the simulation watchdog still bounds
    runaway cells and checkpoint/resume work identically.  ``processes>=1``
    supervises that many concurrent worker processes with wall-clock
    timeouts and kill-based preemption.

    ``pace_s`` inserts a minimum wall-clock delay before each inline cell —
    a throttle for shared machines (and the chaos tests' kill window).

    ``reports`` accumulates one :class:`CampaignReport` per ``run_campaign``
    call that used this config, so a CLI driving several campaigns (e.g.
    ``python -m repro.experiments all``) can merge them into one manifest.

    Every cell, inline or supervised, runs under the simulation watchdog
    at ``DEFAULT_WATCHDOG_MAX_EVENTS`` with no simulated-time limit.
    """

    processes: Optional[int] = None
    task_timeout_s: Optional[float] = None
    max_retries: int = 2
    checkpoint_dir: Optional[Union[str, Path]] = None
    resume: bool = False
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    pace_s: float = 0.0
    reports: List["CampaignReport"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ConfigError("task_timeout_s must be positive")
        if self.resume and self.checkpoint_dir is None:
            raise ConfigError("resume=True requires a checkpoint_dir")


@dataclass
class CampaignReport:
    """What happened to every task: the campaign's structured final report."""

    total: int = 0
    completed: int = 0
    resumed: int = 0             # completed cells replayed from the checkpoint
    retried: int = 0             # cells that needed >1 attempt but completed
    quarantined: int = 0
    tasks: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def note(self, task: Task, status: str,
             attempts: Sequence[TaskAttempt]) -> None:
        self.tasks[task.key] = {
            "label": task.label,
            "status": status,
            "attempts": [a.to_dict() for a in attempts],
        }

    def to_dict(self) -> Dict[str, Any]:
        """Manifest-embeddable summary: counts plus per-task attempt history."""
        return {
            "total": self.total,
            "completed": self.completed,
            "resumed": self.resumed,
            "retried": self.retried,
            "quarantined": self.quarantined,
            "tasks": {k: self.tasks[k] for k in sorted(self.tasks)},
        }

    def summary(self) -> str:
        return (
            f"{self.completed}/{self.total} completed"
            f" ({self.resumed} resumed, {self.retried} retried,"
            f" {self.quarantined} quarantined)"
        )


@dataclass
class CampaignOutcome:
    """Results keyed by task key, plus the campaign report and quarantine."""

    results: Dict[str, Any]
    report: CampaignReport
    quarantined: Dict[str, List[TaskAttempt]] = field(default_factory=dict)


def _identity_codec(value: Any) -> Any:
    return value


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _worker_main(
    conn: Connection,
    runner: Callable[[Any], Any],
    payload: Any,
    encode: Callable[[Any], Any],
) -> None:
    """Run one task in a worker process and ship the encoded result back.

    The watchdog default is installed *before* the task constructs its
    simulator, so a livelocked protocol raises SimulationRunawayError (an
    "exception" failure with heap stats in the traceback) instead of hanging
    until the supervisor's timeout kill.  The pipe carries exactly one
    message: ``("ok", result)`` or ``("error", detail)``.
    """
    from repro.sim.engine import set_default_watchdog

    set_default_watchdog(DEFAULT_WATCHDOG_MAX_EVENTS)
    try:
        result = runner(payload)
        conn.send(("ok", encode(result)))
    except Exception as exc:
        conn.send(("error", {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }))
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------

@dataclass
class _TaskState:
    task: Task
    attempts: List[TaskAttempt] = field(default_factory=list)
    not_before: float = 0.0      # campaign-clock instant the next attempt may start

    @property
    def attempt_no(self) -> int:
        return len(self.attempts)


@dataclass
class _WorkerHandle:
    state: _TaskState
    process: Process
    conn: Connection
    deadline: Optional[float]


def _classify_worker_end(
    handle: _WorkerHandle,
) -> Tuple[str, Dict[str, Any], Optional[Any]]:
    """Read a finished worker's one message: ('ok' | failure kind, detail,
    encoded result)."""
    payload: Any = None
    unreadable: Optional[str] = None
    try:
        if handle.conn.poll():
            payload = handle.conn.recv()
    except (EOFError, OSError):
        payload = None
    except Exception as exc:   # unpicklable/corrupt payloads land here
        unreadable = f"unreadable result: {exc!r}"
    handle.process.join()
    if unreadable is not None:
        return "malformed", {"error": unreadable}, None
    if payload is None:
        exitcode = handle.process.exitcode
        return "worker_death", {
            "error": f"worker exited without a result (exitcode={exitcode})",
        }, None
    if (
        not isinstance(payload, tuple) or len(payload) != 2
        or payload[0] not in ("ok", "error")
    ):
        return "malformed", {"error": f"malformed result shape: {payload!r}"}, None
    status, body = payload
    if status == "ok":
        return "ok", {}, body
    return "exception", {
        "error": str(body.get("message", "")),
        "error_type": str(body.get("type", "Exception")),
        "traceback": str(body.get("traceback", "")),
    }, None


def _failure_attempt(state: _TaskState, kind: str,
                     detail: Dict[str, Any]) -> TaskAttempt:
    return TaskAttempt(
        attempt=state.attempt_no,
        outcome=kind,
        error_type=detail.get("error_type"),
        error=detail.get("error"),
        traceback=detail.get("traceback"),
    )


def run_campaign(
    tasks: Sequence[Task],
    config: Optional[CampaignConfig] = None,
    encode: Callable[[Any], Any] = _identity_codec,
    decode: Callable[[Any], Any] = _identity_codec,
) -> CampaignOutcome:
    """Execute every task, surviving worker failures; results keyed by task.

    ``encode``/``decode`` bridge task results and the JSON journal; both the
    fresh and resumed paths go through them, so a checkpointed result is
    exactly what an uninterrupted run would have produced.
    """
    config = config if config is not None else CampaignConfig()
    journal: Optional[CampaignCheckpoint] = None
    if config.checkpoint_dir is not None:
        journal = CampaignCheckpoint(config.checkpoint_dir, resume=config.resume)
    report = CampaignReport(total=len(tasks))
    outcome = CampaignOutcome(results={}, report=report)

    # Deduplicate by key (identical cells are the same work) and replay the
    # journal: completed cells are decoded, never re-run.
    states: Dict[str, _TaskState] = {}
    for task in tasks:
        states.setdefault(task.key, _TaskState(task=task))
    completed_records = journal.completed() if journal is not None else {}
    pending: List[_TaskState] = []
    for key, state in states.items():
        record = completed_records.get(key)
        if record is not None:
            outcome.results[key] = decode(record["result"])
            report.completed += 1
            report.resumed += 1
            report.note(state.task, "resumed", [])
        else:
            pending.append(state)

    def finish_ok(state: _TaskState, encoded: Any) -> None:
        state.attempts.append(TaskAttempt(attempt=state.attempt_no, outcome="ok"))
        outcome.results[state.task.key] = decode(encoded)
        report.completed += 1
        if state.attempt_no > 1:
            report.retried += 1
        report.note(state.task, "completed", state.attempts)
        if journal is not None:
            journal.record_completed(
                state.task.key, state.task.label, encoded,
                [a.to_dict() for a in state.attempts],
            )

    def quarantine(state: _TaskState) -> None:
        report.quarantined += 1
        report.note(state.task, "quarantined", state.attempts)
        outcome.quarantined[state.task.key] = list(state.attempts)
        if journal is not None:
            journal.record_quarantined(
                state.task.key, state.task.label,
                [a.to_dict() for a in state.attempts],
            )

    def fail(state: _TaskState, kind: str, detail: Dict[str, Any],
             now: float) -> Optional[_TaskState]:
        """Record a failed attempt; return the state if it should be retried."""
        attempt = _failure_attempt(state, kind, detail)
        state.attempts.append(attempt)
        if len(state.attempts) <= config.max_retries:
            attempt.backoff_s = round(
                config.backoff.delay(state.task.key, len(state.attempts) - 1), 6
            )
            state.not_before = now + attempt.backoff_s
            return state
        quarantine(state)
        return None

    if pending:
        if not config.processes:
            _run_inline(pending, config, encode, finish_ok, fail)
        else:
            _run_supervised(pending, config, encode, finish_ok, fail)

    config.reports.append(report)
    return outcome


def _run_inline(
    pending: List[_TaskState],
    config: CampaignConfig,
    encode: Callable[[Any], Any],
    finish_ok: Callable[[_TaskState, Any], None],
    fail: Callable[[_TaskState, str, Dict[str, Any], float], Optional[_TaskState]],
) -> None:
    """Single-process execution: no preemption, but full retry/checkpoint.

    The per-task wall-clock timeout cannot interrupt an inline cell (there
    is no process to kill); the simulation watchdog is the runaway bound
    here, and it is *not* installed process-wide so the caller's environment
    stays untouched.
    """
    from repro.sim import engine

    queue = list(pending)
    with stopwatch() as elapsed:
        while queue:
            state = queue.pop(0)
            wait = max(state.not_before - elapsed(), 0.0)
            if config.pace_s > wait:
                wait = config.pace_s
            if wait > 0.0:
                time.sleep(wait)
            watchdog_before = engine.get_default_watchdog()
            engine.set_default_watchdog(DEFAULT_WATCHDOG_MAX_EVENTS)
            try:
                encoded = encode(state.task.runner(state.task.payload))
            except Exception as exc:
                retry = fail(state, "exception", {
                    "error": str(exc),
                    "error_type": type(exc).__name__,
                    "traceback": traceback.format_exc(),
                }, elapsed())
                if retry is not None:
                    queue.append(retry)
                continue
            finally:
                engine.set_default_watchdog(*watchdog_before)
            finish_ok(state, encoded)


def _run_supervised(
    pending: List[_TaskState],
    config: CampaignConfig,
    encode: Callable[[Any], Any],
    finish_ok: Callable[[_TaskState, Any], None],
    fail: Callable[[_TaskState, str, Dict[str, Any], float], Optional[_TaskState]],
) -> None:
    """Multi-process supervision: timeouts, kill-classification, backoff."""
    ctx = get_context()
    slots = max(int(config.processes or 1), 1)
    queue = list(pending)
    running: List[_WorkerHandle] = []

    with stopwatch() as elapsed:
        while queue or running:
            now = elapsed()
            # Launch every runnable task into a free slot.
            launchable = [s for s in queue if s.not_before <= now]
            while launchable and len(running) < slots:
                state = launchable.pop(0)
                queue.remove(state)
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, state.task.runner, state.task.payload,
                          encode),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                deadline = (
                    now + config.task_timeout_s
                    if config.task_timeout_s is not None else None
                )
                running.append(_WorkerHandle(
                    state=state, process=process, conn=parent_conn,
                    deadline=deadline,
                ))

            if not running:
                # Everything left is backing off; sleep to the earliest retry.
                wake = min(s.not_before for s in queue)
                time.sleep(max(min(wake - elapsed(), 1.0), 0.001))
                continue

            # Wait for any worker to finish (or the next deadline/tick).
            timeout = _SUPERVISOR_TICK_S
            for handle in running:
                if handle.deadline is not None:
                    timeout = min(timeout, max(handle.deadline - now, 0.0))
            connection_wait([h.conn for h in running], timeout=timeout)

            now = elapsed()
            still_running: List[_WorkerHandle] = []
            for handle in running:
                state = handle.state
                finished = handle.conn.poll() or not handle.process.is_alive()
                if finished:
                    kind, detail, encoded = _classify_worker_end(handle)
                    handle.conn.close()
                    if kind == "ok":
                        finish_ok(state, encoded)
                    else:
                        retry = fail(state, kind, detail, now)
                        if retry is not None:
                            queue.append(retry)
                elif handle.deadline is not None and now >= handle.deadline:
                    handle.process.kill()
                    handle.process.join()
                    handle.conn.close()
                    retry = fail(state, "timeout", {
                        "error": f"task exceeded {config.task_timeout_s}s "
                                 "wall-clock timeout and was killed",
                    }, now)
                    if retry is not None:
                        queue.append(retry)
                else:
                    still_running.append(handle)
            running = still_running


# ---------------------------------------------------------------------------
# Scenario campaigns (the bridge sweeps/figures/tables use)
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

    This is the single execution path for every sweep, figure, and table
    campaign: callers build their scenario list, execute it here, and join
    results back by ``task_key(kind, scenario)``.  Quarantined cells are
    absent from the mapping — the caller degrades its aggregate rather than
    aborting.
    """
    tasks = [Task.for_scenario(kind, runner, scenario) for scenario in scenarios]
    outcome = run_campaign(
        tasks,
        campaign if campaign is not None else CampaignConfig(),
        encode=_encode_run_result,
        decode=_decode_run_result,
    )
    return outcome.results
