"""Chaos test: SIGKILL a campaign mid-flight, resume it, compare bytes.

The crash-safe-resume contract is end-to-end: a campaign killed with
SIGKILL (no cleanup, no atexit, mid-whatever-it-was-doing) and restarted
with ``resume=True`` must produce output *byte-identical* to a run that was
never interrupted.  The campaign subprocess lives in
``campaign_script.py``; this test drives it.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.reporting import stopwatch

SCRIPT = Path(__file__).with_name("campaign_script.py")
TOTAL_CELLS = 8          # 2 protocols x 2 loss rates x 2 seeds
KILL_AFTER_CELLS = 2     # SIGKILL once this many cells are journalled
PACE_S = "0.35"          # sleep before each cell: the kill window
DEADLINE_S = 120.0


def _run_script(checkpoint_dir, out, mode, pace="0.0"):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(checkpoint_dir), str(out), mode, pace],
        env=env, capture_output=True, text=True, timeout=DEADLINE_S,
    )


def _journalled_cells(checkpoint_dir) -> int:
    path = Path(checkpoint_dir) / "checkpoint.jsonl"
    if not path.exists():
        return 0
    count = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            json.loads(line)
        except json.JSONDecodeError:
            break
        count += 1
    return count


def test_sigkill_then_resume_is_byte_identical(tmp_path):
    baseline_out = tmp_path / "baseline.json"
    resumed_out = tmp_path / "resumed.json"
    baseline_dir = tmp_path / "ckpt-baseline"
    chaos_dir = tmp_path / "ckpt-chaos"

    # Uninterrupted reference run (no pacing: full speed).
    proc = _run_script(baseline_dir, baseline_out, "fresh")
    assert proc.returncode == 0, proc.stderr
    baseline_bytes = baseline_out.read_bytes()

    # Start the same campaign paced, and SIGKILL it mid-flight.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    victim = subprocess.Popen(
        [sys.executable, str(SCRIPT), str(chaos_dir), str(resumed_out),
         "fresh", PACE_S],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        with stopwatch() as elapsed:
            while elapsed() < DEADLINE_S:
                if _journalled_cells(chaos_dir) >= KILL_AFTER_CELLS:
                    break
                if victim.poll() is not None:
                    pytest.fail("campaign finished before it could be killed; "
                                "raise PACE_S")
                time.sleep(0.02)
            else:
                pytest.fail("campaign never journalled enough cells to kill")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=30)

    cells_at_kill = _journalled_cells(chaos_dir)
    assert KILL_AFTER_CELLS <= cells_at_kill < TOTAL_CELLS
    assert not resumed_out.exists()   # killed before the aggregate was written

    # Resume: only the missing cells re-run, output matches byte for byte.
    proc = _run_script(chaos_dir, resumed_out, "resume")
    assert proc.returncode == 0, proc.stderr
    assert _journalled_cells(chaos_dir) == TOTAL_CELLS
    assert resumed_out.read_bytes() == baseline_bytes
