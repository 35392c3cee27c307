"""Tests of the repository benchmark, on tiny scenario sizes.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import ledger  # noqa: E402


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


_CACHE: dict = {}


def run_ok(workload: str, trace: int, seed: int = 3):
    """(detail, result) of a successful tiny run, cached per arguments."""
    key = (workload, trace, seed)
    if key not in _CACHE:
        proc = _run(workload, trace, seed)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _CACHE[key] = json.loads(lines[-2]), json.loads(lines[-1])
    return _CACHE[key]


def _check_metrics(result: dict, specs: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_spec(workload):
    detail, result = run_ok(workload, trace=0)
    _check_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["completed_share"]["value"] == 1.0
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0
    assert detail["repeats"] >= 3
    assert detail["host.calib_s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_and_covers_wall(workload):
    detail, result = run_ok(workload, trace=1)
    _check_metrics(result, SPEC["per_layer"])
    assert detail["traced_digest"] == detail["digest"]
    # Traced and untraced runs of the same seed simulate the same thing.
    assert detail["digest"] == run_ok(workload, trace=0)[0]["digest"]
    metrics = result["metrics"]
    unattributed = metrics["trace.unattributed_s"]["value"]
    assert abs(unattributed) < 0.05 * detail["traced_raw_wall_s"]
    assert metrics["sim.events"]["value"] > 0
    assert metrics["protocols.rx_calls"]["value"] > 0
    recorded = metrics["obs.events_logged"]["value"] > 0
    assert recorded == (workload == "grid-recorded")
    assert (metrics["obs.self_s"]["value"] > 0) == recorded


def test_seed_selects_the_scenarios():
    first, _ = run_ok("grid-contention", trace=0, seed=3)
    again, _ = run_ok("grid-contention", trace=1, seed=3)
    other, _ = run_ok("grid-contention", trace=0, seed=4)
    seeds = [row[1] for row in first["paper_metrics"][1:]]
    assert seeds == [row[1] for row in again["paper_metrics"][1:]]
    assert seeds != [row[1] for row in other["paper_metrics"][1:]]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {"onehop-decode", "grid-contention", "grid-recorded"} == set(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert {"wall_s", "setup_s", "events_per_s", "peak_rss_mb"} <= set(names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())


def test_fold_charges_self_time_and_counts_outermost_calls(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(ledger, "time",
                        types.SimpleNamespace(perf_counter=lambda: float(next(ticks))))
    tracer = ledger.Tracer()
    drop = tracer.wrap(lambda: None, "channel.should_drop")
    nested = tracer.wrap(drop, "channel.should_drop")
    rx = tracer.wrap(lambda: nested(), "protocols.on_receive")

    def finish():
        rx()
        drop()

    tracer.clock()                  # dispatch span opens at t=0
    finish()                        # rx 1..6 (nested 2..5, drop 3..4), drop 7..8
    tracer.clock()
    tracer.record(ledger.Simulator.run, (), 0.0, 0)   # closes at t=9
    result = tracer.fold()
    # Dispatch of a repro.sim.engine function maps to no layer.
    assert result.calls["other.handler"] == 1
    assert result.self_s["protocols"] == 5.0 - 3.0
    assert result.self_s["channel"] == 3.0 + 1.0
    assert result.calls["channel.should_drop"] == 2
    assert result.incl_s["channel.should_drop"] == 3.0 + 1.0
    assert result.attributed_s == 6.0
