"""Exit-code and error-path contract of ``python -m repro.obs``.

Convention under test: 0 success, 1 a gate failed (regression, violation),
2 unusable input (missing file, malformed JSON, wrong arguments).
"""

import json

import pytest

from repro.obs.__main__ import main
from repro.obs.manifest import RunManifest

WORKLOADS = ("onehop-decode", "grid-contention", "grid-recorded")


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_baseline(tmp_path):
    return write_json(tmp_path / "BENCH_perf.json", {
        w: {"digest": f"d-{w}", "wall_s": 3.0, "events_per_s": 15000.0}
        for w in WORKLOADS
    })


def write_runs(tmp_path, perf_output, **onehop):
    """One output per workload at the baseline figures; ``onehop``
    overrides the onehop-decode output."""
    paths = []
    for w in WORKLOADS:
        fields = dict(workload=w, wall_s=3.0, events_per_s=15000.0,
                      digest=f"d-{w}")
        if w == "onehop-decode":
            fields.update(onehop)
        paths.append(perf_output(tmp_path / f"{w}.perf.out", **fields))
    return paths


# ---------------------------------------------------------------------------
# Unusable input -> exit 2
# ---------------------------------------------------------------------------

def test_report_missing_and_malformed_manifest(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent.json")]) == 2
    assert "not found" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["report", str(broken)]) == 2
    assert "malformed manifest" in capsys.readouterr().err


def test_report_usage_errors_exit_2(tmp_path, capsys):
    manifest = str(RunManifest(tool="t").write(tmp_path / "m.json"))
    for argv in (["report"], ["report", manifest, manifest]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
    assert main(["report", manifest]) == 0


def test_trace_commands_report_missing_files(tmp_path, capsys):
    missing = str(tmp_path / "absent.trace.jsonl")
    for command in (["analyze"], ["critical-path"], ["why", "--node", "1"]):
        assert main(command + [missing]) == 2
        assert "trace file not found" in capsys.readouterr().err


def test_bench_compare_missing_and_malformed_inputs(tmp_path, capsys,
                                                   perf_output):
    baseline = write_baseline(tmp_path)
    runs = write_runs(tmp_path, perf_output)

    assert main(["bench-compare", str(tmp_path / "absent.json")] + runs) == 2
    assert "file not found" in capsys.readouterr().err
    assert main(["bench-compare", baseline, runs[0], runs[1],
                 str(tmp_path / "absent.perf.out")]) == 2
    assert "file not found" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["bench-compare", str(bad)] + runs) == 2
    assert "malformed baseline" in capsys.readouterr().err
    assert main(["bench-compare", baseline, runs[0], runs[1], str(bad)]) == 2
    assert "malformed perfbench output" in capsys.readouterr().err

    # A baseline workload with no run is unusable input, not a pass.
    assert main(["bench-compare", baseline] + runs[:2]) == 2
    assert "no run for baseline workload(s): grid-recorded" in (
        capsys.readouterr().err)


# ---------------------------------------------------------------------------
# Gate failures -> exit 1
# ---------------------------------------------------------------------------

def test_bench_compare_gate_pass_and_fail(tmp_path, capsys, perf_output):
    baseline = write_baseline(tmp_path)

    assert main(["bench-compare", baseline]
                + write_runs(tmp_path, perf_output)) == 0
    assert "PASS" in capsys.readouterr().out

    assert main(["bench-compare", baseline]
                + write_runs(tmp_path, perf_output, wall_s=3.0 * 1.3)) == 1
    assert "FAIL" in capsys.readouterr().out

    assert main(["bench-compare", baseline]
                + write_runs(tmp_path, perf_output, correct=False)) == 1
