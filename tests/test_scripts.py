"""Smoke tests: each experiment script runs end to end on tiny arguments."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rigidda.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, capsys, name, *args):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    module.main()
    return capsys.readouterr().out


def test_recovery_benchmark(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "recovery_benchmark", "--pairs", "1", "--max-steps", "2")
    assert "pair 0: rot err" in out and ", 2 steps," in out
    assert "/1 pairs within 2 deg and 1 voxel" in out


def test_recovery_benchmark_starts_at_first(monkeypatch, capsys):
    args = ("--first", "10", "--pairs", "2", "--grid", "16", "--iso", "6", "--max-steps", "2")
    out = _run(monkeypatch, capsys, "recovery_benchmark", *args)
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("pair ")] == ["pair 10", "pair 11"]
    assert "/2 pairs within 2 deg and 1 voxel" in out


def test_recovery_benchmark_rejects_rotation_bound(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _run(monkeypatch, capsys, "recovery_benchmark", "--pairs", "1", "--max-rot-deg", "120")
    assert exit_info.value.code == 2
    assert "max_rot_deg must be in [0, 90)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("recovery_benchmark", ["--pairs", "0"], "--pairs must be at least 1"),
        ("recovery_benchmark", ["--pairs", "-1"], "--pairs must be at least 1"),
        ("recovery_benchmark", ["--max-steps", "0"], "step counts must be positive"),
        ("recovery_benchmark", ["--max-trans-mm", "nan"], "max_trans_mm must be finite and >= 0"),
        ("recovery_benchmark", ["--max-trans-mm", "inf"], "max_trans_mm must be finite and >= 0"),
        ("recovery_benchmark", ["--max-trans-mm", "-1"], "max_trans_mm must be finite and >= 0"),
        ("recovery_benchmark", ["--grid", "1"], "resampling needs >= 2 voxels per axis"),
        ("compare_modes", ["--seeds", "0"], "--seeds must be at least 1"),
        ("compare_modes", ["--grid", "16", "--max-steps", "0"], "step counts must be positive"),
        ("compare_modes", ["--grid", "16", "--slice-mm", "-1"], "ax spacing must be 3 finite positive values"),
        ("compare_modes", ["--grid", "16", "--slice-mm", "0"], "ax spacing must be 3 finite positive values"),
        ("compare_modes", ["--grid", "16", "--iso", "0"], "iso spacing must be 3 finite positive values"),
        ("run_demo", ["--max-steps", "0"], "step counts must be positive"),
        ("run_demo", ["--grid", "1"], "resampling needs >= 2 voxels per axis"),
        ("run_demo", ["--grid", "16", "--iso", "0"], "spacing must be 3 finite positive values"),
        ("run_demo", ["--seed", "-1"], "optimizer seed must be non-negative"),
        ("recovery_benchmark", ["--first", "-1"], "--first must be at least 0"),
        ("compare_modes", ["--first", "-1"], "--first must be at least 0"),
    ],
)
def test_bad_argument_exits_2(monkeypatch, capsys, tmp_path, name, args, message):
    monkeypatch.chdir(tmp_path)  # run_demo's default output directory
    with pytest.raises(SystemExit) as exit_info:
        _run(monkeypatch, capsys, name, *args)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_compare_modes(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "compare_modes", "--seeds", "1", "--max-steps", "2")
    assert "means over 1 seeds" in out
    for mode in ("baseline", "cycle", "full"):
        assert f"seed 0 {mode:8s} dice LV=" in out


def test_compare_modes_starts_at_first(monkeypatch, capsys):
    args = ("--first", "10", "--seeds", "1", "--grid", "16", "--iso", "6", "--max-steps", "2")
    out = _run(monkeypatch, capsys, "compare_modes", *args)
    assert "means over 1 seeds" in out
    for mode in ("baseline", "cycle", "full"):
        assert f"seed 10 {mode:8s} dice LV=" in out
    assert "seed 0 " not in out


@pytest.mark.parametrize("mode", ["cycle", "full"])
def test_run_demo(monkeypatch, capsys, tmp_path, mode):
    out_dir = tmp_path / "demo"
    out = _run(
        monkeypatch, capsys, "run_demo", "--grid", "16", "--max-steps", "2", "--mode", mode, "--out-dir", str(out_dir)
    )
    assert f"mode {mode}: 2 steps in" in out
    for name in ("trace.csv", "transform.json", "pred_labels.nii", "metrics.json"):
        assert (out_dir / name).exists(), name
    # the demo's output is a pair directory that end2end reads back
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": mode, "optim": {"lr0": 0.02, "epoch_steps": 2, "max_steps": 2}}))
    run = ["end2end", "--pair-dir", str(out_dir), "--config", str(config), "--out-dir", str(tmp_path / "run")]
    assert main(run) == 0
