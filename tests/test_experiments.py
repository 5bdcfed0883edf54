"""The experiment draws: criterion 4's rotation bound stays where its error reading holds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidda.errors import ValidationError
from rigidda.experiments import recovery_case, recovery_error
from rigidda.rigid import RigidParams, rotation_matrix

SMALL = {"grid": 8, "iso": 8.0}  # the draw's transform does not depend on the grid's size


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
