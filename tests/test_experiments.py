"""The experiment draws and per-case functions: criterion 4's bounds stay where its
error reading holds, and ``recover`` and ``ablate`` compute what the gate's loops
computed inline with the preset written out."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidda.config import PipelineConfig
from rigidda.engine import OptimConfig, register_pair
from rigidda.errors import ValidationError
from rigidda.experiments import ablate, apex_case, fast_config, recover, recovery_case, recovery_error
from rigidda.losses import LossWeights, focus_exact
from rigidda.pipeline import run_end2end
from rigidda.resampler import transform_volume
from rigidda.rigid import RigidParams, euler_to_affine, rotation_matrix

SMALL = {"grid": 8, "iso": 8.0}  # the draw's transform does not depend on the grid's size
TINY = {"grid": 16, "iso": 6.0}


def _preset(seed, max_steps):
    """The experiments' optimizer preset, written out."""
    return OptimConfig(seed=seed, lr0=0.02, epoch_steps=10, plateau_patience=3, stop_patience=8, max_steps=max_steps)


@given(seed=st.integers(0, 10_000), max_rot_deg=st.floats(0.0, 90.0, exclude_max=True))
@settings(max_examples=30)
def test_exact_parameters_read_zero_error(seed, max_rot_deg):
    pair, _, _ = recovery_case(seed, max_rot_deg=max_rot_deg, **SMALL)
    # recovery_case's own draw of the three Euler angles
    bound = np.radians(max_rot_deg)
    angles = np.random.default_rng(500 + seed).uniform(-bound, bound, 3)
    t = rotation_matrix(*angles).T @ pair.gt_m[:3, 3]
    ang_err, t_err = recovery_error(pair, RigidParams.from_vector(np.concatenate([angles, t, t])))
    assert ang_err.max() < 1e-9 and t_err.max() < 1e-9


@pytest.mark.parametrize("max_rot_deg", [90.0, 120.0, -1.0, math.nan, math.inf])
def test_rotation_bound_outside_euler_range_rejected(max_rot_deg):
    with pytest.raises(ValidationError, match="max_rot_deg"):
        recovery_case(0, max_rot_deg=max_rot_deg, **SMALL)


@pytest.mark.parametrize("max_trans_mm", [-1.0, math.nan, math.inf, -math.inf, 1e308])
def test_translation_bound_not_finite_or_negative_rejected(max_trans_mm):
    with pytest.raises(ValidationError, match="max_trans_mm"):
        recovery_case(0, max_trans_mm=max_trans_mm, **SMALL)


@pytest.mark.parametrize("draw", [{"iso": 0.0}, {"slice_mm": -1.0}, {"slice_mm": 0.0}, {"slice_mm": math.nan}])
def test_apex_spacing_not_finite_or_positive_rejected(draw):
    with pytest.raises(ValidationError, match="spacing must be 3 finite positive values"):
        apex_case(0, **{"grid": 16, **draw})


def test_fast_config_is_the_preset():
    config = fast_config("cycle", 5, 7)
    assert config == PipelineConfig(mode="cycle", weights=LossWeights(tau=0.1), optim=_preset(5, 7))


def test_recover_is_the_inline_registration():
    seed = 3
    run = recover(seed, max_steps=3, **TINY)
    pair, _, task = recovery_case(seed, **TINY)
    params, trace = register_pair(
        pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1), _preset(seed, 3), mode="full"
    )
    ang_err, t_err = recovery_error(pair, params)
    assert run.ang_err.tobytes() == ang_err.tobytes() and run.t_err.tobytes() == t_err.tobytes()
    assert run.steps == len(trace.rows) == 3
    assert run.seconds > 0.0


def test_ablate_is_the_inline_mode_loop():
    seed = 1
    runs = ablate(seed, max_steps=2, **TINY)
    assert tuple(runs) == ("baseline", "cycle", "full")
    pair, _, task = apex_case(seed, **TINY)
    for mode, run in runs.items():
        config = PipelineConfig(mode=mode, weights=LossWeights(tau=0.1), optim=_preset(seed, 2))
        result = run_end2end(pair, task, config)
        dice = [result.report.per_class[c].dice or 0.0 for c in (1, 2, 3)]
        warped = transform_volume(pair.i, euler_to_affine(result.params).m_t, pair.i.geometry)
        assert run.dice.tolist() == dice
        assert run.focus == focus_exact(task.evaluate(warped.image), config.weights.r)
        assert run.steps == len(result.trace.rows) == 2
