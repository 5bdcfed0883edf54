"""Command-line interface and pipeline-configuration tests.

Every subcommand is exercised end to end on tiny grids through ``main`` so
argument wiring, file I/O and exit codes are all covered.
"""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidda
from rigidda import engine
from rigidda.cli import _parse_floats, _parse_weights_arg, main
from rigidda.config import PipelineConfig
from rigidda.engine import MODES, OptimConfig
from rigidda.errors import ValidationError
from rigidda.io import read_volume, write_volume
from rigidda.losses import LossWeights
from rigidda.phantom import PhantomSpec, world_rigid
from rigidda.volume import GridGeometry, LabelVolume, Volume
from conftest import gentle_task_spec

GRID = ["16", "16", "16"]
ISO = "3.0"


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(gentle_task_spec().to_json())
    return path


@pytest.fixture
def pair_dir(tmp_path, spec_path):
    rel = world_rigid((0.1, -0.05, 0.08), (2.0, -1.0, 1.5))
    rel_path = tmp_path / "rel.json"
    rel_path.write_text(json.dumps({"m": rel.reshape(16).tolist()}))
    out = tmp_path / "pair"
    code = main(
        [
            "phantom-gen",
            "--spec", str(spec_path),
            "--rel-transform", str(rel_path),
            "--seed", "1",
            "--grid", *GRID,
            "--iso", ISO,
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "seed": 3,
                "mode": "cycle",
                "optim": {"lr0": 0.02, "epoch_steps": 5, "max_steps": 15},
            }
        )
    )
    return path


class TestPhantomGen:
    def test_outputs_complete(self, pair_dir):
        for name in ("I.nii", "J.nii", "labels_I.nii", "labels_J.nii", "gtM.json", "spec.json"):
            assert (pair_dir / name).exists()
        raw = json.loads((pair_dir / "gtM.json").read_text())
        m = np.asarray(raw["m"]).reshape(4, 4)
        m_inv = np.asarray(raw["m_inv"]).reshape(4, 4)
        np.testing.assert_allclose(m @ m_inv, np.eye(4), atol=1e-9)


    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "pair"
        args = ["phantom-gen", "--seed", "-1", "--grid", "8", "8", "8", "--iso", "4.0", "--out-dir", str(out)]
        assert main(args) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("iso", ["nan", "inf"])
    def test_non_finite_iso_names_the_spacing(self, tmp_path, capsys, iso):
        args = ["phantom-gen", "--grid", "8", "8", "8", "--iso", iso, "--out-dir", str(tmp_path / "pair")]
        assert main(args) == 2
        assert "spacing" in capsys.readouterr().err


class TestRegister:
    def test_cycle_mode(self, pair_dir, fast_config, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        dump = tmp_path / "result.json"
        code = main(
            [
                "register",
                "--ax", str(pair_dir / "I.nii"),
                "--sax", str(pair_dir / "J.nii"),
                "--gt-transform", str(pair_dir / "gtM.json"),
                "--mode", "cycle",
                "--config", str(fast_config),
                "--trace", str(trace),
                "--dump-transform", str(dump),
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["params"]) == 9
        assert trace.exists()
        dumped = json.loads(dump.read_text())
        assert set(dumped) == {"params", "m", "m_inv", "m_t", "m_t_inv"}

    def test_focus_mode_requires_spec(self, pair_dir, fast_config):
        code = main(
            [
                "register",
                "--ax", str(pair_dir / "I.nii"),
                "--sax", str(pair_dir / "J.nii"),
                "--gt-transform", str(pair_dir / "gtM.json"),
                "--mode", "full",
                "--config", str(fast_config),
            ]
        )
        assert code == 2

    def test_missing_file_is_io_error(self, pair_dir):
        code = main(
            [
                "register",
                "--ax", str(pair_dir / "missing.nii"),
                "--gt-transform", str(pair_dir / "gtM.json"),
                "--mode", "baseline",
            ]
        )
        assert code == 4


class TestResample:
    def test_intensity_with_params(self, pair_dir, tmp_path):
        out = tmp_path / "res.nii"
        code = main(
            [
                "resample",
                "--input", str(pair_dir / "I.nii"),
                "--transform", "0,0,0,0.1,0,0,0,0,0",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert read_volume(out).geometry.shape == (16, 16, 16)

    def test_labels_with_matrix_file(self, pair_dir, tmp_path):
        out = tmp_path / "lab.nii"
        code = main(
            [
                "resample",
                "--input", str(pair_dir / "labels_I.nii"),
                "--transform", str(pair_dir / "gtM.json"),
                "--target-like", str(pair_dir / "J.nii"),
                "--labels",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert isinstance(read_volume(out), LabelVolume)

    @pytest.mark.parametrize("command", ["resample", "apply"])
    def test_single_voxel_target_axis_exit_2(self, tmp_path, command):
        # a one-slice target grid has no normalized coordinate along z
        flat = tmp_path / "flat.nii"
        write_volume(Volume(GridGeometry.isotropic((8, 8, 1), 1.0), np.ones((8, 8, 1))), flat)
        out = tmp_path / "o.nii"
        if command == "resample":
            args = ["resample", "--input", str(flat), "--transform", "0,0,0,0,0,0,0,0,0"]
        else:
            args = ["apply", "--ax", str(flat), "--params", "0,0,0,0,0,0,0,0,0"]
        assert main(args + ["--output", str(out)]) == 2
        assert not out.exists()

    def test_single_voxel_source_axis(self, tmp_path, rng):
        # the one source slice is a degenerate cell: every target slice copies it
        flat, like, out = tmp_path / "flat.nii", tmp_path / "like.nii", tmp_path / "o.nii"
        write_volume(Volume(GridGeometry.isotropic((8, 8, 1), 1.0), rng.normal(size=(8, 8, 1))), flat)
        write_volume(Volume(GridGeometry.isotropic((8, 8, 3), 1.0), np.zeros((8, 8, 3))), like)
        args = ["resample", "--input", str(flat), "--transform", "0,0,0,0,0,0,0,0,0", "--target-like", str(like)]
        assert main(args + ["--output", str(out)]) == 0
        np.testing.assert_array_equal(read_volume(out).data, np.repeat(read_volume(flat).data, 3, axis=2))

    def test_bad_transform_string(self, pair_dir, tmp_path):
        code = main(
            [
                "resample",
                "--input", str(pair_dir / "I.nii"),
                "--transform", "1,2,3",
                "--output", str(tmp_path / "x.nii"),
            ]
        )
        assert code == 2


class TestEval:
    def test_report_and_csv(self, pair_dir, tmp_path, capsys):
        csv_path = tmp_path / "metrics.csv"
        code = main(
            [
                "eval",
                "--pred", str(pair_dir / "labels_I.nii"),
                "--truth", str(pair_dir / "labels_I.nii"),
                "--post",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"LV", "MYO", "RV"}
        assert csv_path.read_text().startswith("class,")

    def test_intensity_volume_rejected(self, pair_dir):
        code = main(
            [
                "eval",
                "--pred", str(pair_dir / "I.nii"),
                "--truth", str(pair_dir / "labels_I.nii"),
            ]
        )
        assert code == 2


class TestLogLevel:
    """``RIGIDDA_LOG`` takes logging's level names; any other text means warning.

    Run in a subprocess: under pytest's capture handlers ``basicConfig`` does
    nothing, so an in-process call would not show a bad level.
    """

    @pytest.mark.parametrize("value", ["info", "WARN", "basic_format", "root", "20", ""])
    def test_any_value_reaches_the_command(self, tmp_path, value):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
            "RIGIDDA_LOG": value,
        }
        missing = [str(tmp_path / "pred.nii"), "--truth", str(tmp_path / "truth.nii")]
        run = subprocess.run(
            [sys.executable, "-m", "rigidda.cli", "eval", "--pred", *missing],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 4, run.stderr
        assert "Traceback" not in run.stderr


class TestLossesCheck:
    def test_itemized_report(self, pair_dir, spec_path, capsys):
        code = main(
            [
                "losses-check",
                "--ax", str(pair_dir / "I.nii"),
                "--sax", str(pair_dir / "J.nii"),
                "--gt-transform", str(pair_dir / "gtM.json"),
                "--params", "0,0,0,0,0,0,0,0,0",
                "--weights", "alpha1=1.0,alpha2=0.1,tau=0.1",
                "--spec", str(spec_path),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert {"cycle_fwd", "cycle_bwd", "focus_exact", "focus_smooth", "total"} <= set(report)
        assert report["total"] > 0.0

    def test_forks_no_worker(self, tmp_path, monkeypatch, capsys):
        """One evaluation of an objective of three slabs runs the serial loop."""
        spec = tmp_path / "spec.json"
        spec.write_text(PhantomSpec().scaled(40 / 64).to_json())
        gen = ["phantom-gen", "--spec", str(spec), "--grid", "40", "40", "23", "--iso", "1.5", "--out-dir", str(tmp_path)]
        assert main(gen) == 0
        started = []

        class Recorded(engine._SlabWorker):
            def __init__(self, objective):
                started.append(objective)
                super().__init__(objective)

        monkeypatch.setattr(engine, "_SlabWorker", Recorded)
        capsys.readouterr()
        code = main(
            [
                "losses-check",
                "--ax", str(tmp_path / "I.nii"),
                "--sax", str(tmp_path / "J.nii"),
                "--gt-transform", str(tmp_path / "gtM.json"),
                "--params", "0.05,0,0,0,0,0,0,0,0",
                "--spec", str(spec),
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["total"] > 0.0
        assert started == []

    def test_bad_weights_string(self, pair_dir, spec_path):
        code = main(
            [
                "losses-check",
                "--ax", str(pair_dir / "I.nii"),
                "--sax", str(pair_dir / "J.nii"),
                "--gt-transform", str(pair_dir / "gtM.json"),
                "--params", "0,0,0,0,0,0,0,0,0",
                "--weights", "alpha1",
                "--spec", str(spec_path),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("weights", ["alpha1=abc", "beta=1", "tau=nan", "alpha2=0.5,alpha1=0.1"])
    def test_malformed_weights_exit_2(self, pair_dir, spec_path, weights):
        with pytest.raises(ValidationError):
            _parse_weights_arg(weights)
        code = main(
            [
                "losses-check",
                "--ax", str(pair_dir / "I.nii"),
                "--sax", str(pair_dir / "J.nii"),
                "--gt-transform", str(pair_dir / "gtM.json"),
                "--params", "0,0,0,0,0,0,0,0,0",
                "--weights", weights,
                "--spec", str(spec_path),
            ]
        )
        assert code == 2


class TestApply:
    def test_writes_labels(self, pair_dir, spec_path, tmp_path):
        out = tmp_path / "pred.nii"
        code = main(
            [
                "apply",
                "--ax", str(pair_dir / "J.nii"),
                "--params", "0,0,0,0,0,0,0,0,0",
                "--spec", str(spec_path),
                "--output", str(out),
            ]
        )
        assert code == 0
        pred = read_volume(out)
        assert isinstance(pred, LabelVolume)
        assert set(np.unique(pred.data)) <= {0, 1, 2, 3}


class TestEnd2End:
    def test_full_small_run(self, pair_dir, fast_config, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "end2end",
                "--pair-dir", str(pair_dir),
                "--config", str(fast_config),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        for name in ("trace.csv", "transform.json", "pred_labels.nii", "metrics.json"):
            assert (out / name).exists()
        printed = json.loads(capsys.readouterr().out)
        assert set(printed) == {"LV", "MYO", "RV"}

    def test_volume_of_wrong_kind_exit_2(self, pair_dir, tmp_path, capsys):
        (pair_dir / "I.nii").write_bytes((pair_dir / "labels_I.nii").read_bytes())
        out = tmp_path / "run"
        assert main(["end2end", "--pair-dir", str(pair_dir), "--out-dir", str(out)]) == 2
        assert "I.nii must be an intensity volume" in capsys.readouterr().err
        assert not out.exists()


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.mode == "full"
        assert cfg.weights == LossWeights() and cfg.optim == OptimConfig()

    def test_seed_propagates_to_optimizer(self):
        cfg = PipelineConfig.from_json('{"seed": 7}')
        assert cfg.optim.seed == 7

    def test_explicit_optim_seed_wins(self):
        cfg = PipelineConfig.from_json('{"seed": 7, "optim": {"seed": 11}}')
        assert cfg.optim.seed == 11

    def test_nested_sections_parsed(self):
        cfg = PipelineConfig.from_json(
            '{"mode": "cycle", "weights": {"alpha2": 0.05}, "optim": {"lr0": 0.01}}'
        )
        assert cfg.mode == "cycle"
        assert cfg.weights.alpha2 == 0.05
        assert cfg.optim.lr0 == 0.01

    def test_schema_rejects_unknown_and_invalid(self):
        with pytest.raises(ValidationError):
            PipelineConfig.from_json('{"bogus": 1}')
        with pytest.raises(ValidationError):
            PipelineConfig.from_json('{"mode": "fancy"}')
        with pytest.raises(ValidationError):
            PipelineConfig.from_json('{"weights": {"r": 2.0}}')
        with pytest.raises(ValidationError):
            PipelineConfig.from_json("{broken")

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    def test_non_finite_numbers_rejected(self, number):
        with pytest.raises(ValidationError, match="finite float"):
            PipelineConfig.from_json('{"optim": {"min_delta": %s}}' % number)

    def test_integers_stay_integers(self):
        cfg = PipelineConfig.from_json('{"seed": 12345678901234567, "optim": {"max_steps": 7}}')
        assert cfg.optim.seed == 12345678901234567 and cfg.optim.max_steps == 7

    @pytest.mark.parametrize(
        "text",
        [
            '{"optim": {"min_delta": NaN}}',
            '{"weights": {"tau": NaN}}',
            '{"optim": {"lr0": Infinity}}',
            '{"optim": {"lr_min": -Infinity}}',
            '{"weights": {"alpha1": 1e400}}',
            '{"optim": {"lr0": 1%s}}' % ("0" * 400),
            b'{"mode": "\xff"}',
            b'{"seed": 3, "mode": "cycle"}\xfe',
        ],
        ids=[
            "min_delta-nan", "tau-nan", "lr0-inf", "lr_min-neg-inf", "alpha1-overflow", "lr0-huge-int",
            "non-utf8-string", "non-utf8-trailer",
        ],
    )
    @pytest.mark.parametrize("command", ["end2end", "register"])
    def test_non_finite_config_exit_2(self, pair_dir, tmp_path, command, text):
        config = tmp_path / "config.json"
        config.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "out"
        if command == "end2end":
            args = ["end2end", "--pair-dir", str(pair_dir), "--out-dir", str(out)]
        else:
            args = ["register", "--ax", str(pair_dir / "I.nii"), "--sax", str(pair_dir / "J.nii"),
                    "--gt-transform", str(pair_dir / "gtM.json"), "--trace", str(out)]
        assert main(args + ["--config", str(config)]) == 2
        assert not out.exists()

    def test_spec_json_usable_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"mode": "baseline"}')
        assert PipelineConfig.from_file(path).mode == "baseline"


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


class TestConfigHasNoDeadKeys:
    """Every config key is read by the program; a key nothing reads is rejected."""

    @pytest.mark.parametrize(
        "config",
        [
            {"iso_mm": 1.5},
            {"grid": [64, 64, 64]},
            {"quantile": 0.999},
            {"z_shift_mm": -10.0},
            {"weights": {"w_seg": 0.5}},
            {"weights": {"smooth": 1.0}},
        ],
        ids=["iso_mm", "grid", "quantile", "z_shift_mm", "w_seg", "smooth"],
    )
    def test_removed_key_exit_2(self, pair_dir, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = ["end2end", "--pair-dir", str(pair_dir), "--config", str(path)]
        assert main(args + ["--out-dir", str(tmp_path / "run")]) == 2
        assert not (tmp_path / "run").exists()

    def test_removed_weight_flag_exit_2(self, pair_dir):
        args = ["register", "--ax", str(pair_dir / "I.nii"), "--gt-transform", str(pair_dir / "gtM.json")]
        assert main(args + ["--mode", "baseline", "--weights", "w_seg=1"]) == 2

    def test_all_exports_resolve(self):
        for name in rigidda.__all__:
            assert getattr(rigidda, name) is not None


# One row per bound the config file's settings must meet, plus wrong JSON types and unknown
# names: (section, settings), where a section of None is the top level.
_BAD_SETTINGS = {
    "lr0-zero": ("optim", {"lr0": 0}),
    "lr0-negative": ("optim", {"lr0": -0.1}),
    "plateau_factor-zero": ("optim", {"plateau_factor": 0}),
    "plateau_factor-one": ("optim", {"plateau_factor": 1}),
    "plateau_patience-zero": ("optim", {"plateau_patience": 0}),
    "lr_min-negative": ("optim", {"lr_min": -1e-9}),
    "stop_patience-zero": ("optim", {"stop_patience": 0}),
    "epoch_steps-zero": ("optim", {"epoch_steps": 0}),
    "max_steps-zero": ("optim", {"max_steps": 0}),
    "optim-seed-negative": ("optim", {"seed": -1}),
    "min_delta-negative": ("optim", {"min_delta": -1e-9}),
    "alpha1-zero": ("weights", {"alpha1": 0, "alpha2": 0}),
    "alpha2-negative": ("weights", {"alpha2": -0.1}),
    "r-zero": ("weights", {"r": 0}),
    "r-one": ("weights", {"r": 1}),
    "tau-zero": ("weights", {"tau": 0}),
    "seed-negative": (None, {"seed": -1}),
    "seed-negative-under-optim-seed": (None, {"seed": -1, "optim": {"seed": 3}}),
    "mode-unknown": (None, {"mode": "fancy"}),
    "mode-number": (None, {"mode": 3}),
    "max_steps-bool": ("optim", {"max_steps": True}),
    "seed-bool": (None, {"seed": True}),
    "lr0-bool": ("optim", {"lr0": True}),
    "alpha1-bool": ("weights", {"alpha1": True}),
    "max_steps-whole-float": ("optim", {"max_steps": 2.0}),
    "optim-seed-whole-float": ("optim", {"seed": 1.0}),
    "seed-whole-float": (None, {"seed": 1.0}),
    "lr0-string": ("optim", {"lr0": "0.1"}),
    "tau-null": ("weights", {"tau": None}),
    "unknown-top-level": (None, {"bogus": 1}),
    "unknown-weight": ("weights", {"w_seg": 0.5}),
    "unknown-optim": ("optim", {"momentum": 0.9}),
}
_SECTION_CLASS = {None: PipelineConfig, "weights": LossWeights, "optim": OptimConfig}


class TestSettingsCheckThemselves:
    """A setting is rejected alike from a config file and from Python."""

    @pytest.mark.parametrize("section, values", _BAD_SETTINGS.values(), ids=_BAD_SETTINGS)
    def test_bad_setting_rejected(self, section, values):
        with pytest.raises(ValidationError):
            PipelineConfig.from_json(json.dumps({section: values} if section else values))
        cls = _SECTION_CLASS[section]
        if set(values) <= _field_names(cls):
            with pytest.raises(ValidationError):
                cls(**values)

    @pytest.mark.parametrize(
        "text", ["[]", "3", "null", '"full"', '{"weights": []}', '{"optim": 1}', '{"weights": null}', '{"optim": "x"}']
    )
    def test_non_object_rejected(self, text):
        with pytest.raises(ValidationError):
            PipelineConfig.from_json(text)

    @pytest.mark.parametrize("config", [{"optim": {"max_steps": 2.0}}, {"seed": 1.0}], ids=["max_steps", "seed"])
    def test_whole_float_in_integer_setting_exit_2(self, pair_dir, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["end2end", "--pair-dir", str(pair_dir), "--config", str(path), "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "sections",
        [
            {"weights": {"alpha1": 2.0}},
            {"optim": None},
            {"weights": {"alpha1": 2.0}, "optim": None},
            {"optim": {"max_steps": 5}},
            {"weights": OptimConfig()},
            {"optim": LossWeights()},
        ],
        ids=["weights-dict", "optim-none", "both", "optim-dict", "weights-optim", "optim-weights"],
    )
    def test_section_must_be_its_dataclass(self, sections):
        with pytest.raises(ValidationError):
            PipelineConfig(**sections)

    def test_integer_learning_rate_stays_integer(self):
        assert type(PipelineConfig.from_json('{"optim": {"lr0": 1}}').optim.lr0) is int

    def test_cli_imports_without_jsonschema(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        probe = "import sys, rigidda.cli; sys.exit('jsonschema' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


_JUNK_NAMES = ["bogus", "", "Seed", "w_seg"]
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2000),
    st.integers(-2, 50).map(float),
    st.floats(-2.0, 2.0),
    st.sampled_from(["full", "cycle", "fancy", ""]),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=2), st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2))


def _section_of(cls):
    names = sorted(_field_names(cls)) + _JUNK_NAMES
    return st.dictionaries(st.sampled_from(names), _VALUES, max_size=4)


_CONFIGS = st.dictionaries(
    st.sampled_from(["seed", "mode", "weights", "optim", *_JUNK_NAMES]),
    st.one_of(_VALUES, _section_of(LossWeights), _section_of(OptimConfig)),
    max_size=4,
)


def _is_int(value):
    return type(value) is int


def _is_number(value):
    return type(value) in (int, float) and value == value


# each setting's declared type and range, written out independently of the dataclasses
_SETTING_OK = {
    "alpha1": lambda w: _is_number(w.alpha1) and w.alpha1 > w.alpha2,
    "alpha2": lambda w: _is_number(w.alpha2) and 0 <= w.alpha2 < w.alpha1,
    "r": lambda w: _is_number(w.r) and 0 < w.r < 1,
    "tau": lambda w: _is_number(w.tau) and w.tau > 0,
    "lr0": lambda o: _is_number(o.lr0) and o.lr0 > 0,
    "plateau_factor": lambda o: _is_number(o.plateau_factor) and 0 < o.plateau_factor < 1,
    "plateau_patience": lambda o: _is_int(o.plateau_patience) and o.plateau_patience >= 1,
    "lr_min": lambda o: _is_number(o.lr_min) and 0 <= o.lr_min <= o.lr0,
    "stop_patience": lambda o: _is_int(o.stop_patience) and o.stop_patience >= 1,
    "epoch_steps": lambda o: _is_int(o.epoch_steps) and o.epoch_steps >= 1,
    "max_steps": lambda o: _is_int(o.max_steps) and o.max_steps >= 1,
    "seed": lambda o: _is_int(o.seed) and o.seed >= 0,
    "min_delta": lambda o: _is_number(o.min_delta) and o.min_delta >= 0,
}


class TestConfigReaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_CONFIGS)
    def test_valid_config_or_validation_error(self, raw):
        try:
            cfg = PipelineConfig.from_json(json.dumps(raw))
        except ValidationError:
            return
        assert _field_names(PipelineConfig) == {"mode", "weights", "optim"}
        assert cfg.mode in MODES
        assert type(cfg.weights) is LossWeights and type(cfg.optim) is OptimConfig
        for section in (cfg.weights, cfg.optim):
            for name in _field_names(type(section)):
                assert _SETTING_OK[name](section), (name, getattr(section, name))


class TestRegisterHonorsConfig:
    """register takes mode, weights and optimizer settings from --config; --mode and --weights override."""

    @staticmethod
    def _register(pair_dir, tmp_path, capsys, alpha1, *extra):
        path = tmp_path / f"config_{alpha1}.json"
        path.write_text(json.dumps({"mode": "cycle", "weights": {"alpha1": alpha1}, "optim": {"max_steps": 1}}))
        trace = tmp_path / "trace.csv"
        args = ["register", "--ax", str(pair_dir / "I.nii"), "--sax", str(pair_dir / "J.nii")]
        args += ["--gt-transform", str(pair_dir / "gtM.json"), "--config", str(path), "--trace", str(trace)]
        assert main(args + list(extra)) == 0
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return json.loads(capsys.readouterr().out)["final_loss"], rows

    def test_mode_and_weights_from_config(self, pair_dir, tmp_path, capsys):
        # cycle mode needs no --spec, so the run succeeds only if the config's mode is used
        doubled, rows = self._register(pair_dir, tmp_path, capsys, 2.0)
        single, _ = self._register(pair_dir, tmp_path, capsys, 1.0)
        assert len(rows) == 1 and float(rows[0]["loss_cycle_bwd"]) > 0.0
        assert doubled == 2.0 * single

    def test_flags_override_config(self, pair_dir, tmp_path, capsys):
        single, _ = self._register(pair_dir, tmp_path, capsys, 1.0)
        tripled, _ = self._register(pair_dir, tmp_path, capsys, 2.0, "--weights", "alpha1=3")
        assert tripled == 3.0 * single
        # a weight the flag does not name keeps the config's value
        doubled, _ = self._register(pair_dir, tmp_path, capsys, 2.0, "--weights", "alpha2=0.05")
        assert doubled == 2.0 * single
        # baseline mode weighs its one cycle term by the configured alpha1 too
        baseline, rows = self._register(pair_dir, tmp_path, capsys, 2.0, "--mode", "baseline")
        assert float(rows[0]["loss_cycle_bwd"]) == 0.0
        assert baseline == 2.0 * float(rows[0]["loss_cycle_fwd"])


_ROT7 = np.round(world_rigid((0.3, -0.2, 0.5), (4.0, -2.0, 1.0)), 7)
_NOT_RIGID = {
    "scaling": np.diag([2.0, 2.0, 2.0, 1.0]),
    "bottom-row": np.vstack([np.eye(4)[:3], np.ones(4)]),
    "reflection": np.diag([-1.0, 1.0, 1.0, 1.0]),
    "shear": np.array([[1.0, 0.3, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
}


class TestRigidGroundTruth:
    """phantom-gen takes only rigid maps as --rel-transform and as the spec's pose."""

    @pytest.mark.parametrize(
        "matrix, code",
        [(m, 2) for m in _NOT_RIGID.values()] + [(_ROT7, 0)],
        ids=[*_NOT_RIGID, "rotation-7-digits"],
    )
    @pytest.mark.parametrize("source", ["rel-transform", "pose"])
    def test_phantom_gen(self, tmp_path, source, matrix, code):
        args = ["phantom-gen", "--grid", "8", "8", "8", "--iso", "4.0", "--out-dir", str(tmp_path / "pair")]
        entries = matrix.reshape(16).tolist()
        if source == "rel-transform":
            path = tmp_path / "rel.json"
            path.write_text(json.dumps({"m": entries}))
            args += ["--rel-transform", str(path)]
        else:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"pose": entries}))
            args += ["--spec", str(path)]
        assert main(args) == code
        assert (tmp_path / "pair" / "gtM.json").exists() == (code == 0)


class TestSpecRoundTripThroughCli:
    def test_written_spec_parses_back(self, pair_dir):
        spec = PhantomSpec.from_json((pair_dir / "spec.json").read_text())
        assert spec.sigma_mm == gentle_task_spec().sigma_mm


_IDENTITY16 = np.eye(4).reshape(16).tolist()


class TestMalformedNumbers:
    """Bad numbers and transform files end in exit 2, never a traceback."""

    @pytest.mark.parametrize("text", ["1,abc", "1,nan", "inf,2", "1,-inf", "1,,x"])
    def test_parse_floats_rejects(self, text):
        with pytest.raises(ValidationError):
            _parse_floats(text, "entry")

    def test_parse_floats_accepts(self):
        assert _parse_floats("1, -2.5,,3e-3", "entry") == [1.0, -2.5, 3e-3]

    @pytest.mark.parametrize(
        "params",
        ["0,0,abc,0,0,0,0,0,0", "0,0,nan,0,0,0,0,0,0", "0,0,0,inf,0,0,0,0,0", "1,2,3", "x"],
    )
    @pytest.mark.parametrize("command", ["apply", "losses-check"])
    def test_params_exit_2(self, pair_dir, spec_path, tmp_path, command, params):
        args = [command, "--ax", str(pair_dir / "I.nii"), "--params", params, "--spec", str(spec_path)]
        if command == "apply":
            args += ["--output", str(tmp_path / "o.nii")]
        else:
            args += ["--sax", str(pair_dir / "J.nii"), "--gt-transform", str(pair_dir / "gtM.json")]
        assert main(args) == 2

    @pytest.mark.parametrize(
        "transform",
        [
            "0,0,0,abc,0,0,0,0,0",
            "0,0,0,nan,0,0,0,0,0",
            ",".join(["1"] * 15 + ["x"]),
            ",".join(["1"] * 15 + ["inf"]),
        ],
    )
    def test_transform_exit_2(self, pair_dir, tmp_path, transform):
        args = ["resample", "--input", str(pair_dir / "I.nii"), "--transform", transform]
        assert main(args + ["--output", str(tmp_path / "x.nii")]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            json.dumps({"m_inv": _IDENTITY16}),
            json.dumps({"m": [1.0, 2.0, 3.0]}),
            json.dumps({"m": ["a"] * 16}),
            json.dumps({"m": {"a": 1}}),
            json.dumps({"m": _IDENTITY16, "m_inv": [1.0] * 15}),
            json.dumps({"m": _IDENTITY16[:15] + [float("nan")]}),
            json.dumps({"m": [0.0] * 16}),
            json.dumps([0.0] * 16),
            json.dumps([1.0, [2.0]]),
            json.dumps("a string"),
            json.dumps({"m": [10**400] + _IDENTITY16[1:]}),
            json.dumps({"m": _IDENTITY16, "m_inv": _IDENTITY16[:15] + [10**400]}),
            json.dumps({"m": _IDENTITY16[:15] + [True]}),
            json.dumps({"m": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, True]]}),
            json.dumps({"m": _IDENTITY16[:15] + ["1"]}),
            json.dumps(_IDENTITY16[:15] + ["1"]),
            "[" * 100000,
            json.dumps({"m": _IDENTITY16, "m_inv": (2.0 * np.eye(4)).reshape(16).tolist()}),
        ],
        ids=[
            "not-json", "no-m", "short-m", "strings", "object", "short-m_inv",
            "nan", "singular", "singular-list", "ragged", "string",
            "huge-int", "huge-int-m_inv", "true", "true-nested", "string-one", "string-one-list", "deep-nesting",
            "m_inv-not-the-inverse",
        ],
    )
    @pytest.mark.parametrize("command", ["register", "resample"])
    def test_transform_file_exit_2(self, pair_dir, tmp_path, command, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        if command == "register":
            args = ["register", "--ax", str(pair_dir / "I.nii"), "--gt-transform", str(bad), "--mode", "baseline"]
        else:
            args = ["resample", "--input", str(pair_dir / "I.nii"), "--transform", str(bad)]
            args += ["--output", str(tmp_path / "x.nii")]
        assert main(args) == 2

    def test_disagreeing_ground_truth_exit_2_in_cycle_mode(self, pair_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": _IDENTITY16, "m_inv": (2.0 * np.eye(4)).reshape(16).tolist()}))
        args = ["register", "--ax", str(pair_dir / "I.nii"), "--sax", str(pair_dir / "J.nii")]
        assert main(args + ["--gt-transform", str(bad), "--mode", "cycle"]) == 2
        assert "not the inverse" in capsys.readouterr().err

    def test_unreadable_transform_path_exit_4(self, pair_dir, tmp_path):
        args = ["resample", "--input", str(pair_dir / "I.nii"), "--transform", str(tmp_path)]
        assert main(args + ["--output", str(tmp_path / "x.nii")]) == 4

    def test_nested_matrix_still_accepted(self, pair_dir, tmp_path):
        good = tmp_path / "nested.json"
        good.write_text(json.dumps({"m": np.eye(4).tolist()}))
        args = ["resample", "--input", str(pair_dir / "I.nii"), "--transform", str(good)]
        assert main(args + ["--output", str(tmp_path / "x.nii")]) == 0


# spec files that escaped as a traceback or were accepted: a JSON value, or the file's bytes
_BAD_PAIR_SPECS = {
    "huge-int-pose": {"pose": [10**400] + _IDENTITY16[1:]},
    "true-pose": {"pose": _IDENTITY16[:15] + [True]},
    "string-one-pose": {"pose": _IDENTITY16[:15] + ["1"]},
    "non-utf8": b'{"sigma_mm": 1.0, "note": "\xff"}',
    "deep-nesting": b'{"note": ' + b"[" * 100000,
}


class TestMalformedSpec:
    """A malformed phantom spec file ends in exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "spec",
        [
            {"lv": {}},
            {"lv": [1, 2, 3]},
            {"rv": {"center": [0, 0], "semi_axes": [1, 1, 1]}},
            {"myo_outer": {"center": [0, 0, 0], "semi_axes": [1, "a", 1]}},
            {"sigma_mm": "x"},
            {"noise_sigma": None},
            {"logit_scale": True},
            {"levels": {"LV": 1.0}},
            {"levels": {"background": 0, "LV": 1, "MYO": "a", "RV": 1}},
            {"pose": [1.0] * 15},
            {"pose": ["a"] * 16},
            [1, 2],
            {"sigmamm": 5.0},
            {"lv": {"center": [0, 0, 0], "semi_axes": [1, 1, 1], "radius": 1}},
            *_BAD_PAIR_SPECS.values(),
        ],
        ids=[
            "empty-ellipsoid", "list-ellipsoid", "short-center", "string-axis", "string-scalar",
            "null-scalar", "bool-scalar", "partial-levels", "string-level", "short-pose",
            "string-pose", "not-object", "unknown-name", "unknown-ellipsoid-name", *_BAD_PAIR_SPECS,
        ],
    )
    def test_apply_exit_2(self, pair_dir, tmp_path, spec):
        bad = tmp_path / "bad_spec.json"
        bad.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
        args = ["apply", "--ax", str(pair_dir / "I.nii"), "--params", "0,0,0,0,0,0,0,0,0"]
        assert main(args + ["--spec", str(bad), "--output", str(tmp_path / "o.nii")]) == 2

    @pytest.mark.parametrize(
        "value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400], ids=["nan", "inf", "-inf", "huge-int"]
    )
    def test_non_finite_scalar_exit_2(self, pair_dir, tmp_path, value):
        bad = tmp_path / "bad_spec.json"
        bad.write_text('{"sigma_mm": %s}' % value)
        args = ["apply", "--ax", str(pair_dir / "I.nii"), "--params", "0,0,0,0,0,0,0,0,0"]
        assert main(args + ["--spec", str(bad), "--output", str(tmp_path / "o.nii")]) == 2

    @pytest.mark.parametrize("spec", _BAD_PAIR_SPECS.values(), ids=_BAD_PAIR_SPECS)
    def test_pair_dir_spec_exit_2(self, pair_dir, fast_config, tmp_path, spec):
        (pair_dir / "spec.json").write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
        out = tmp_path / "run"
        assert main(["end2end", "--pair-dir", str(pair_dir), "--config", str(fast_config), "--out-dir", str(out)]) == 2
        assert not out.exists()
