"""Tests for the campaign executor.

Worker runners live at module level so the process pool can pickle them.
Cross-process state (the dying runner's "die once" memory) goes through
marker files, never globals.
"""

import json
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.attacks import AttackSpec
from repro.errors import ConfigError, PersistError
from repro.experiments.checkpoint import CampaignCheckpoint
from repro.experiments.executor import (
    DEFAULT_WATCHDOG_MAX_EVENTS,
    CampaignConfig,
    Task,
    execute_scenarios,
    run_campaign,
    task_key,
)
from repro.experiments.scenarios import OneHopScenario, run_scenario
from repro.persist import read_jsonl
from repro.sim.engine import get_default_watchdog


# ---------------------------------------------------------------------------
# Module-level runners (picklable)
# ---------------------------------------------------------------------------

def double(payload):
    return payload["x"] * 2


def always_raises(payload):
    raise ValueError(f"cell {payload['x']} is broken")


def dies_once(payload):
    """SIGKILL the worker once the journal holds a cell; succeed next time."""
    marker = Path(payload["marker"])
    if marker.exists():
        return "survived"
    journal = Path(payload["journal"])
    for _ in range(3000):                 # 30 s at most
        if journal.exists() and journal.read_text(encoding="utf-8").strip():
            break
        time.sleep(0.01)
    marker.write_text("died", encoding="utf-8")
    os.kill(os.getpid(), signal.SIGKILL)


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


def test_task_key_covers_attack_specs():
    def cell(**params):
        spec = AttackSpec(kind="bogus-data", start=0.5, params=params)
        return OneHopScenario(receivers=3, attacks=(spec,))

    assert task_key("adversarial", cell(version=2)) == task_key(
        "adversarial", cell(version=2))
    assert task_key("adversarial", cell(version=2)) != task_key(
        "adversarial", cell(version=3))


def test_config_validation():
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
    assert outcome.report.summary() == "3/3 completed (0 resumed, 0 quarantined)"


def test_inline_failure_quarantines_after_one_attempt(tmp_path):
    config = CampaignConfig(checkpoint_dir=tmp_path)
    outcome = run_campaign([task("bad", always_raises, x=7)], config)
    assert outcome.results == {}
    assert outcome.report.quarantined == 1
    error = outcome.quarantined["bad"]
    assert error["error_type"] == "ValueError"
    assert "cell 7 is broken" in error["error"]
    assert outcome.report.tasks["bad"]["status"] == "quarantined"
    assert outcome.report.tasks["bad"]["error_type"] == "ValueError"
    [record] = read_jsonl(tmp_path / "quarantine.jsonl")
    assert (record["key"], record["error"]) == ("bad", "cell 7 is broken")
    assert read_jsonl(tmp_path / "checkpoint.jsonl") == []


def test_duplicate_keys_run_once():
    tasks = [task("same", double, x=5), task("same", double, x=5)]
    outcome = run_campaign(tasks, CampaignConfig())
    assert outcome.results == {"same": 10}


# ---------------------------------------------------------------------------
# Pool mode
# ---------------------------------------------------------------------------

def test_supervised_matches_inline_results():
    tasks = [task(f"t{i}", double, x=i) for i in range(5)]
    inline = run_campaign(tasks, CampaignConfig())
    pooled = run_campaign(tasks, CampaignConfig(processes=2))
    assert inline.results == pooled.results


def test_pool_matches_inline_on_real_scenarios():
    scenarios = [
        OneHopScenario(protocol=protocol, loss_rate=p, receivers=3,
                       image_size=2048, k=8, n=12, seed=1)
        for protocol, p in (("seluge", 0.1), ("lr-seluge", 0.2),
                            ("lr-seluge", 0.3))
    ]
    inline = execute_scenarios("one_hop", run_scenario, scenarios)
    pooled = execute_scenarios("one_hop", run_scenario, scenarios,
                               CampaignConfig(processes=2))
    assert len(inline) == len(scenarios)
    assert {k: r.to_jsonable() for k, r in pooled.items()} == {
        k: r.to_jsonable() for k, r in inline.items()
    }


def test_worker_death_stops_the_campaign_and_resume_finishes(tmp_path):
    payload = {"marker": str(tmp_path / "died"),
               "journal": str(tmp_path / "ckpt" / "checkpoint.jsonl")}
    tasks = [task("first", double, x=4), task("dying", dies_once, **payload)]
    with pytest.raises(BrokenProcessPool):
        run_campaign(tasks, CampaignConfig(processes=1,
                                           checkpoint_dir=tmp_path / "ckpt"))
    # The cell journalled before the death stays; the dead one is not
    # quarantined (it never raised) and is simply missing.
    journal = CampaignCheckpoint(tmp_path / "ckpt", resume=True)
    assert set(journal.completed()) == {"first"}
    assert read_jsonl(tmp_path / "ckpt" / "quarantine.jsonl") == []

    resumed = run_campaign(tasks, CampaignConfig(
        processes=1, checkpoint_dir=tmp_path / "ckpt", resume=True))
    assert resumed.results == {"first": 8, "dying": "survived"}
    assert resumed.report.summary() == "2/2 completed (1 resumed, 0 quarantined)"


def test_supervised_exception_reports_worker_traceback():
    outcome = run_campaign([task("bad", always_raises, x=1)],
                           CampaignConfig(processes=1))
    error = outcome.quarantined["bad"]
    assert error["error_type"] == "ValueError"
    assert "always_raises" in error["traceback"]


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
    tasks = [task("bad", always_raises)] + [
        task(f"ok{i}", double, x=i) for i in range(4)
    ]
    outcome = run_campaign(tasks, CampaignConfig(processes=2))
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
    """A cell failure is quarantined, but a campaign that cannot journal its
    progress cannot promise a byte-identical resume: it dies."""
    def full_disk(path, record):
        raise PersistError(f"write to {path} failed", path=str(path))

    monkeypatch.setattr(
        "repro.experiments.checkpoint.atomic_append_jsonl", full_disk
    )
    config = CampaignConfig(checkpoint_dir=tmp_path)
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


def spins(payload):
    """Burn a little CPU so the cell's process time is measurably > 0."""
    return sum(i * i for i in range(payload["x"]))


@pytest.mark.parametrize("processes", [None, 1])
def test_each_run_cell_carries_its_cpu_seconds(tmp_path, processes):
    tasks = [task("spin", spins, x=300_000), task("bad", always_raises, x=1)]
    config = CampaignConfig(processes=processes, checkpoint_dir=tmp_path)
    report = run_campaign(tasks, config).report
    assert report.measured == 2
    assert report.tasks["spin"]["cpu_s"] > 0
    assert report.tasks["bad"]["cpu_s"] >= 0
    assert report.cpu_s == pytest.approx(
        report.tasks["spin"]["cpu_s"] + report.tasks["bad"]["cpu_s"])
    assert report.to_dict()["cpu_s"] == report.cpu_s
    # The journal holds results only, never a host measurement.
    assert all("cpu_s" not in json.dumps(record)
               for record in read_jsonl(tmp_path / "checkpoint.jsonl"))


def test_resumed_cells_are_not_measured(tmp_path):
    run_campaign([task("t0", double, x=1)], CampaignConfig(checkpoint_dir=tmp_path))
    resumed = run_campaign(
        [task("t0", double, x=1), task("t1", double, x=2)],
        CampaignConfig(checkpoint_dir=tmp_path, resume=True),
    ).report
    assert resumed.measured == 1
    assert "cpu_s" not in resumed.tasks["t0"]
    assert resumed.cpu_s == resumed.tasks["t1"]["cpu_s"]


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
    direct = run_scenario(scenario)
    via_executor = execute_scenarios("one_hop", run_scenario, [scenario])
    assert via_executor[task_key("one_hop", scenario)] == direct
