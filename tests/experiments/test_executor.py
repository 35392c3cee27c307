"""Tests for the fault-tolerant campaign executor.

Worker runners live at module level so the supervised (multiprocessing)
mode can pickle them.  Cross-process state (the flaky runner's "fail once"
memory) goes through marker files, never globals.
"""

import os
import signal
import time
from pathlib import Path

import pytest

from repro.errors import ConfigError, PersistError
from repro.experiments.backoff import BackoffPolicy
from repro.experiments.executor import (
    DEFAULT_WATCHDOG_MAX_EVENTS,
    CampaignConfig,
    Task,
    execute_scenarios,
    run_campaign,
    task_key,
)
from repro.experiments.scenarios import OneHopScenario, run_one_hop
from repro.sim.engine import get_default_watchdog

FAST = BackoffPolicy(base_s=0.0)   # retries without waiting


# ---------------------------------------------------------------------------
# Module-level runners (picklable)
# ---------------------------------------------------------------------------

def double(payload):
    return payload["x"] * 2


def always_raises(payload):
    raise ValueError(f"cell {payload['x']} is broken")


def flaky_until_marker(payload):
    """Fail on the first attempt; succeed once the marker file exists."""
    marker = Path(payload["marker"])
    if marker.exists():
        return "recovered"
    marker.write_text("attempted", encoding="utf-8")
    raise RuntimeError("transient failure")


def kills_itself(payload):
    os.kill(os.getpid(), signal.SIGKILL)


def hangs(payload):
    time.sleep(60.0)
    return "never"


def _refuse_unpickling():
    raise RuntimeError("result cannot be rebuilt")


class UnreadableResult:
    """Pickles in the worker; unpickling it in the supervisor raises."""

    def __reduce__(self):
        return (_refuse_unpickling, ())


def returns_unreadable(payload):
    return UnreadableResult()


def reports_watchdog(payload):
    return get_default_watchdog()


def task(key, runner, x=0, **payload):
    payload = {"x": x, **payload}
    return Task(key=key, runner=runner, payload=payload, label=key)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

def test_task_key_is_stable_and_content_derived():
    a = OneHopScenario(protocol="seluge", loss_rate=0.1, receivers=3,
                       image_size=2048, k=8, n=12, seed=1)
    same = OneHopScenario(protocol="seluge", loss_rate=0.1, receivers=3,
                          image_size=2048, k=8, n=12, seed=1)
    other_seed = OneHopScenario(protocol="seluge", loss_rate=0.1, receivers=3,
                                image_size=2048, k=8, n=12, seed=2)
    assert task_key("one_hop", a) == task_key("one_hop", same)
    assert task_key("one_hop", a) != task_key("one_hop", other_seed)
    assert task_key("one_hop", a) != task_key("multihop", a)
    assert len(task_key("one_hop", a)) == 32


def test_config_validation():
    with pytest.raises(ConfigError):
        CampaignConfig(max_retries=-1)
    with pytest.raises(ConfigError):
        CampaignConfig(task_timeout_s=0.0)
    with pytest.raises(ConfigError):
        CampaignConfig(resume=True)   # resume needs a checkpoint_dir


# ---------------------------------------------------------------------------
# Inline mode
# ---------------------------------------------------------------------------

def test_inline_results_are_keyed_not_positional():
    tasks = [task(f"t{i}", double, x=i) for i in (3, 1, 2)]
    outcome = run_campaign(tasks, CampaignConfig())
    assert outcome.results == {"t3": 6, "t1": 2, "t2": 4}
    assert outcome.report.completed == 3
    assert outcome.report.summary() == (
        "3/3 completed (0 resumed, 0 retried, 0 quarantined)"
    )


def test_inline_persistent_failure_quarantines_after_retries():
    config = CampaignConfig(max_retries=2, backoff=FAST)
    outcome = run_campaign([task("bad", always_raises, x=7)], config)
    assert outcome.results == {}
    assert outcome.report.quarantined == 1
    attempts = outcome.quarantined["bad"]
    assert len(attempts) == 3                       # initial + 2 retries
    assert all(a.outcome == "exception" for a in attempts)
    assert attempts[0].error_type == "ValueError"
    assert "cell 7 is broken" in attempts[0].error
    assert attempts[0].backoff_s is not None        # a retry was scheduled
    assert attempts[-1].backoff_s is None           # the last one was final


def test_inline_flaky_task_retries_then_completes(tmp_path):
    config = CampaignConfig(max_retries=2, backoff=FAST)
    outcome = run_campaign(
        [task("flaky", flaky_until_marker, marker=str(tmp_path / "m"))], config
    )
    assert outcome.results == {"flaky": "recovered"}
    assert outcome.report.retried == 1
    assert outcome.report.quarantined == 0
    report_attempts = outcome.report.tasks["flaky"]["attempts"]
    assert [a["outcome"] for a in report_attempts] == ["exception", "ok"]


def test_duplicate_keys_run_once():
    tasks = [task("same", double, x=5), task("same", double, x=5)]
    outcome = run_campaign(tasks, CampaignConfig())
    assert outcome.results == {"same": 10}


# ---------------------------------------------------------------------------
# Supervised mode
# ---------------------------------------------------------------------------

def test_supervised_matches_inline_results():
    tasks = [task(f"t{i}", double, x=i) for i in range(5)]
    inline = run_campaign(tasks, CampaignConfig())
    supervised = run_campaign(tasks, CampaignConfig(processes=2))
    assert inline.results == supervised.results


def test_supervised_worker_death_is_classified_and_quarantined():
    config = CampaignConfig(processes=1, max_retries=1, backoff=FAST)
    outcome = run_campaign([task("dead", kills_itself)], config)
    assert outcome.results == {}
    attempts = outcome.quarantined["dead"]
    assert [a.outcome for a in attempts] == ["worker_death", "worker_death"]
    assert "exitcode" in attempts[0].error


def test_supervised_timeout_kills_and_quarantines():
    config = CampaignConfig(
        processes=1, task_timeout_s=0.5, max_retries=0, backoff=FAST,
    )
    outcome = run_campaign([task("hung", hangs)], config)
    assert outcome.results == {}
    attempts = outcome.quarantined["hung"]
    assert [a.outcome for a in attempts] == ["timeout"]
    assert "wall-clock timeout" in attempts[0].error


def test_supervised_exception_reports_worker_traceback():
    config = CampaignConfig(processes=1, max_retries=0, backoff=FAST)
    outcome = run_campaign([task("bad", always_raises, x=1)], config)
    attempts = outcome.quarantined["bad"]
    assert attempts[0].outcome == "exception"
    assert attempts[0].error_type == "ValueError"
    assert "always_raises" in attempts[0].traceback


def test_supervised_unreadable_result_is_malformed():
    config = CampaignConfig(processes=1, max_retries=0, backoff=FAST)
    outcome = run_campaign([task("odd", returns_unreadable)], config)
    assert outcome.results == {}
    attempts = outcome.quarantined["odd"]
    assert [a.outcome for a in attempts] == ["malformed"]
    assert "unreadable result" in attempts[0].error


def test_watchdog_is_installed_inline_and_supervised():
    before = get_default_watchdog()
    expected = (DEFAULT_WATCHDOG_MAX_EVENTS, None)
    for processes in (None, 1):
        outcome = run_campaign([task("wd", reports_watchdog)],
                               CampaignConfig(processes=processes))
        assert tuple(outcome.results["wd"]) == expected
    # The inline path restores the caller's process-wide default.
    assert get_default_watchdog() == before


def test_failures_do_not_abort_healthy_cells():
    config = CampaignConfig(processes=2, max_retries=0, backoff=FAST)
    tasks = [task("bad", always_raises)] + [
        task(f"ok{i}", double, x=i) for i in range(4)
    ]
    outcome = run_campaign(tasks, config)
    assert outcome.results == {f"ok{i}": i * 2 for i in range(4)}
    assert outcome.report.quarantined == 1
    assert outcome.report.completed == 4


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------

def test_checkpoint_resume_skips_completed_cells(tmp_path):
    tasks = [task(f"t{i}", double, x=i) for i in range(3)]
    first = run_campaign(tasks, CampaignConfig(checkpoint_dir=tmp_path))
    assert first.report.resumed == 0

    resumed = run_campaign(
        tasks, CampaignConfig(checkpoint_dir=tmp_path, resume=True)
    )
    assert resumed.results == first.results
    assert resumed.report.resumed == 3
    assert resumed.report.completed == 3
    statuses = {info["status"] for info in resumed.report.tasks.values()}
    assert statuses == {"resumed"}


def test_journal_write_failure_stops_the_campaign(tmp_path, monkeypatch):
    """A cell failure is retried and quarantined, but a campaign that cannot
    journal its progress cannot promise a byte-identical resume: it dies."""
    def full_disk(path, record):
        raise PersistError(f"write to {path} failed", path=str(path))

    monkeypatch.setattr(
        "repro.experiments.checkpoint.atomic_append_jsonl", full_disk
    )
    config = CampaignConfig(checkpoint_dir=tmp_path, backoff=FAST)
    with pytest.raises(PersistError):
        run_campaign([task("t0", double, x=1)], config)


def test_resume_runs_only_missing_cells(tmp_path):
    first_half = [task(f"t{i}", double, x=i) for i in range(2)]
    run_campaign(first_half, CampaignConfig(checkpoint_dir=tmp_path))

    everything = first_half + [task("t9", double, x=9)]
    resumed = run_campaign(
        everything, CampaignConfig(checkpoint_dir=tmp_path, resume=True)
    )
    assert resumed.results == {"t0": 0, "t1": 2, "t9": 18}
    assert resumed.report.resumed == 2


def test_reports_accumulate_on_shared_config(tmp_path):
    config = CampaignConfig()
    run_campaign([task("a", double, x=1)], config)
    run_campaign([task("b", double, x=2)], config)
    assert len(config.reports) == 2
    assert [r.completed for r in config.reports] == [1, 1]


# ---------------------------------------------------------------------------
# Scenario bridge
# ---------------------------------------------------------------------------

def test_execute_scenarios_round_trips_run_results():
    scenario = OneHopScenario(protocol="lr-seluge", loss_rate=0.2, receivers=3,
                              image_size=2048, k=8, n=12, seed=1)
    direct = run_one_hop(scenario)
    via_executor = execute_scenarios("one_hop", run_one_hop, [scenario])
    assert via_executor[task_key("one_hop", scenario)] == direct
