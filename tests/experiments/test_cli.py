"""Tests for the command-line entry points."""

import json

import pytest

from repro.experiments.figures import FigureResult
from repro.simulate import main as simulate_main


def _tiny_figure():
    return FigureResult(
        name="t", headers=["x", "y"], rows=[[1, 2.5], [3, 4.0]], notes="n",
    )


def test_figure_result_csv():
    csv_text = _tiny_figure().to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "x,y"
    assert lines[1] == "1,2.5"


def test_figure_result_json():
    doc = json.loads(_tiny_figure().to_json())
    assert doc["name"] == "t"
    assert doc["rows"] == [[1, 2.5], [3, 4.0]]


def test_figure_result_save(tmp_path):
    fig = _tiny_figure()
    fig.save(tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_text().startswith("x,y")
    fig.save(tmp_path / "out.json")
    assert json.loads((tmp_path / "out.json").read_text())["notes"] == "n"


def test_simulate_one_hop(capsys):
    code = simulate_main([
        "--protocol", "lr-seluge", "--loss", "0.1", "--receivers", "3",
        "--image-kib", "2", "--k", "8", "--n", "12", "--seed", "4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "completed:       True" in out
    assert "images verified: True" in out


@pytest.mark.parametrize("spec, message", [
    pytest.param("grid:3x3", "bad topology 'grid:3x3'; expected star:N", id="grid:3x3"),
    pytest.param("ring:3", "bad topology 'ring:3'; expected star:N", id="ring:3"),
    # Well formed, rejected by the builder: its own reason is reported.
    pytest.param("random:0:10", "random topology needs at least two nodes",
                 id="random:0:10"),
])
def test_simulate_rejects_malformed_topology_as_usage_error(spec, message, capsys):
    with pytest.raises(SystemExit) as exc:
        simulate_main(["--topology", spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


def test_simulate_writes_trace_timeline_and_manifest(tmp_path, capsys):
    from repro.obs.__main__ import main as obs_main
    from repro.obs.events import load_jsonl

    trace_path = tmp_path / "run.trace.jsonl"
    manifest_path = tmp_path / "run.manifest.json"
    code = simulate_main([
        "--protocol", "lr-seluge", "--loss", "0.1", "--receivers", "2",
        "--image-kib", "2", "--k", "8", "--n", "12", "--seed", "1",
        "--trace-out", str(trace_path), "--manifest", str(manifest_path),
    ])
    assert code == 0

    header, events = load_jsonl(trace_path)
    assert header["events"] == len(events) > 0
    assert any(e.ph == "X" for e in events)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["trace_file"] == str(trace_path)
    capsys.readouterr()
    assert obs_main(["report", str(manifest_path)]) == 0
    assert "trace:       " + str(trace_path) in capsys.readouterr().out


def _energy(out):
    """The ``--energy`` breakdown lines as a {name: mJ} dict."""
    lines = out.split("energy (network-wide):\n", 1)[1].splitlines()
    return {key: float(value) for key, value in
            (line.split() for line in lines if line.startswith("  "))}


def test_simulate_multihop_with_energy(capsys):
    code = simulate_main([
        "--protocol", "seluge", "--topology", "grid:3x3:3",
        "--image-kib", "2", "--k", "8", "--seed", "4", "--energy",
    ])
    out = capsys.readouterr().out
    assert code == 0
    energy = _energy(out)
    assert energy["crypto_mj"] > 0
    assert energy["total_mj"] > energy["crypto_mj"]


def test_cli_composes_attack_with_churn(capsys):
    code = simulate_main([
        "--topology", "grid:3x3:3", "--image-kib", "2", "--k", "4",
        "--n", "6", "--attack", "bogus-data", "--mtbf", "30", "--mttr", "10",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "completed:       True" in out
    crashes = int(out.split("crashes:", 1)[1].split()[0])
    assert crashes > 0


@pytest.mark.parametrize("protocol", ["rateless", "gossip"])
def test_simulate_rejects_unknown_protocol_as_usage_error(protocol, capsys):
    """``--protocol`` offers exactly the scenario registry's protocols."""
    with pytest.raises(SystemExit) as exc:
        simulate_main(["--protocol", protocol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and protocol in err
    assert "deluge" in err and "lr-seluge" in err
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["greyhole", "meteor-strike"])
def test_simulate_rejects_unknown_attack_as_usage_error(kind, capsys):
    with pytest.raises(SystemExit) as exc:
        simulate_main(["--attack", kind])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unknown attack kind {kind!r}" in err
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, text, message", [
    ("--attack-plan", '[{"kind": "bogus-data", "params": [1, 2]}]',
     "attack params must be a JSON object"),
    ("--attack-plan", '[{"kind": "bogus-data", "params": {"warp": 9}}]',
     "unknown parameter(s) warp for attack kind 'bogus-data'"),
    ("--attack-plan", '[{"kind": "bogus-data", "params": {"payload_size": "big"}}]',
     "parameter payload_size of attack kind 'bogus-data' must be int, got 'big'"),
    ("--attack-plan", None, "cannot read attack plan"),
    ("--fault-plan", None, "cannot read fault plan"),
    ("--topology-file", None, "cannot read topology file"),
], ids=["attack-params-list", "attack-params-unknown", "attack-params-type",
        "attack-plan-missing",
        "fault-plan-missing", "topology-file-missing"])
def test_simulate_rejects_bad_plan_file_as_usage_error(
        flag, text, message, tmp_path, capsys):
    path = tmp_path / "plan.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        simulate_main([flag, str(path), "--receivers", "2", "--image-kib", "1",
                       "--k", "8", "--n", "12"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "usage:" in err and "Traceback" not in err


def test_simulate_topology_file(tmp_path, capsys):
    from repro.net.topology import mica2_grid_tight
    from repro.net.topology_file import save_topology
    from repro.sim.rng import RngRegistry

    path = tmp_path / "site.txt"
    save_topology(mica2_grid_tight(RngRegistry(5), rows=3, cols=3), path)
    code = simulate_main([
        "--protocol", "lr-seluge", "--topology-file", str(path),
        "--image-kib", "2", "--k", "8", "--n", "12", "--seed", "5",
        "--max-time", "2400", "--energy",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "crypto_mj" in out


def test_experiments_cli_quick_with_export(tmp_path, capsys):
    from repro.experiments.__main__ import main as experiments_main

    code = experiments_main(["fig3a", "--quick", "--export", str(tmp_path)])
    assert code == 0
    exported = list(tmp_path.glob("*.csv"))
    assert len(exported) == 1
    assert exported[0].read_text().startswith("p,")


def test_experiments_cli_campaign_flags_and_manifest(tmp_path, capsys):
    from repro.experiments.__main__ import main as experiments_main
    from repro.obs.manifest import RunManifest, collect_git_rev

    ckpt = tmp_path / "ckpt"
    manifest_path = tmp_path / "campaign.manifest.json"
    args = ["fig3a", "--quick",
            "--checkpoint-dir", str(ckpt),
            "--manifest", str(manifest_path)]
    assert experiments_main(args) == 0
    first_out = capsys.readouterr().out
    assert "campaign:" in first_out
    assert (ckpt / "checkpoint.jsonl").exists()

    manifest = RunManifest.load(manifest_path)
    assert manifest.git_rev == collect_git_rev()
    assert manifest.campaign["quarantined"] == 0
    assert manifest.campaign["completed"] == manifest.campaign["total"] > 0
    assert all(t["status"] == "completed"
               for t in manifest.campaign["tasks"].values())
    # Every cell ran here, so every cell carries its CPU seconds, and the
    # CLI prints their sum next to the target's wall.
    cells = manifest.campaign["total"]
    assert manifest.campaign["measured"] == cells
    cpu = [t["cpu_s"] for t in manifest.campaign["tasks"].values()]
    assert sum(cpu) > 0
    assert manifest.campaign["cpu_s"] == pytest.approx(sum(cpu))
    total_cpu = manifest.campaign["cpu_s"]
    assert f"[fig3a: {cells} cells, {total_cpu:.1f} s cell CPU]" in first_out

    # Resume: every cell replays from the journal, output is identical.
    assert experiments_main(args + ["--resume"]) == 0
    resumed_out = capsys.readouterr().out
    table = lambda text: [l for l in text.splitlines() if l.startswith("0.")]
    assert table(resumed_out) == table(first_out)
    assert "resumed" in resumed_out
    assert "[fig3a: 0 cells, 0.0 s cell CPU]" in resumed_out


def test_experiments_cli_resume_requires_checkpoint_dir():
    from repro.experiments.__main__ import main as experiments_main

    with pytest.raises(SystemExit):
        experiments_main(["fig3a", "--quick", "--resume"])
