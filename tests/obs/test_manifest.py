"""Run manifests: construction, (de)serialisation, and the git revision."""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.obs import manifest as manifest_module
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    collect_git_rev,
)


class FakeResult:
    """RunResult-shaped object (manifests are duck-typed on purpose)."""

    def __init__(self, completed=True, completion_rate=None):
        self.completed = completed
        self.latency = 42.5
        self.data_packets = 100
        self.snack_packets = 10
        self.adv_packets = 20
        self.total_bytes = 5000
        self.completion_rate = completion_rate
        self.seed = 7
        self.counters = {"tx_data": 100, "tx_adv": 20}


class FakeSim:
    now = 42.5
    processed_events = 850

    def heap_stats(self):
        return {"pending": 0, "heap_len": 3, "cancelled_garbage": 3,
                "compactions": 1}


def test_from_run_collects_metrics_and_timings():
    manifest = RunManifest.from_run(
        "test.tool", FakeResult(), config={"protocol": "lr-seluge"},
        wall_s=0.5, sim=FakeSim(), unregistered=["oops"],
    )
    assert manifest.tool == "test.tool"
    assert manifest.seed == 7
    assert manifest.metrics["completed"] == 1.0
    assert manifest.metrics["latency_s"] == 42.5
    assert manifest.metrics["data_packets"] == 100.0
    assert "completion_rate" not in manifest.metrics  # None -> omitted
    assert manifest.timings["wall_s"] == 0.5
    assert manifest.timings["sim_time_s"] == 42.5
    assert manifest.timings["events"] == 850.0
    assert manifest.timings["events_per_s"] == 1700.0
    assert manifest.timings["heap_compactions"] == 1.0
    assert manifest.counters == {"tx_data": 100, "tx_adv": 20}
    assert manifest.unregistered_metrics == ["oops"]
    assert manifest.schema_version == MANIFEST_SCHEMA_VERSION
    assert manifest.created_utc  # stamped


def test_from_run_records_completion_rate_when_present():
    manifest = RunManifest.from_run("t", FakeResult(completion_rate=0.75))
    assert manifest.metrics["completion_rate"] == 0.75


def test_write_load_round_trip(tmp_path):
    manifest = RunManifest.from_run(
        "test.tool", FakeResult(), config={"k": 8}, wall_s=1.0, sim=FakeSim(),
        trace_file="run.trace.jsonl", unregistered=["oops"],
    )
    path = tmp_path / "run.manifest.json"
    manifest.write(path)
    loaded = RunManifest.load(path)
    assert loaded.to_dict() == manifest.to_dict()
    # The unregistered count is surfaced under the catalogue's counter name.
    raw = json.loads(path.read_text())
    assert raw["obs_unregistered_metric"] == 1


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(json.dumps({"schema_version": MANIFEST_SCHEMA_VERSION + 1,
                                "tool": "x"}))
    with pytest.raises(ValueError, match="unsupported manifest schema"):
        RunManifest.load(path)


def test_collect_git_rev_inside_and_outside_a_repo(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[2]
    rev = collect_git_rev(cwd=root)
    assert rev is None or isinstance(rev, str)
    if rev is not None:
        assert len(rev.replace("+dirty", "")) >= 7
    # A directory with no repository degrades to None, never raises.
    assert collect_git_rev(cwd=tmp_path) is None


def test_from_run_records_the_source_tree_not_the_working_directory(
        tmp_path, monkeypatch):
    """A run launched from inside another repository records the revision
    of the code that ran, not that repository's."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    other = tmp_path / "other"
    other.mkdir()
    git = ["git", "-C", str(other),
           "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"],
                   check=True)
    other_rev = collect_git_rev(cwd=other)
    assert other_rev is not None
    source = Path(manifest_module.__file__).resolve().parent
    monkeypatch.chdir(other)
    manifest = RunManifest.from_run("t", FakeResult())
    assert manifest.git_rev != other_rev
    assert manifest.git_rev == collect_git_rev(cwd=source)


def test_campaign_field_round_trips_and_stays_optional(tmp_path):
    campaign = {
        "total": 3, "completed": 2, "resumed": 1, "quarantined": 1,
        "tasks": {"abc123": {"label": "cell", "status": "quarantined",
                             "error_type": "ValueError", "error": "bad cell",
                             "traceback": "Traceback ..."}},
    }
    m = RunManifest("repro.experiments", campaign=campaign)
    path = tmp_path / "manifest.json"
    m.write(path)
    loaded = RunManifest.load(path)
    assert loaded.campaign == campaign
    assert loaded.schema_version == m.schema_version  # additive, still v1

    # Absent campaign stays absent: not serialised, loads as None.
    plain = RunManifest("repro.simulate")
    plain.write(path)
    assert "campaign" not in plain.to_dict()
    assert RunManifest.load(path).campaign is None
