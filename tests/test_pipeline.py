"""Task application and its metrics against the whole-grid oracle pipeline on the gates' draws."""

import functools

import pytest

from rigidda.experiments import apex_case, recovery_case
from rigidda.metrics import evaluate_labels
from rigidda.pipeline import apply_task
from rigidda.rigid import RigidParams, euler_from_rotation
import oracles

_DRAWS = {"criterion-4 draw 0": recovery_case, "apex draw 0": apex_case}


@functools.cache
def _draw(name):
    return _DRAWS[name](0)


def _exact_params(pair) -> RigidParams:
    """The parameters of the pair's ground-truth M, with t_t = t."""
    r = pair.gt_m[:3, :3]
    t = r.T @ pair.gt_m[:3, 3]
    return RigidParams(*euler_from_rotation(r), t=t, t_t=t)


@pytest.mark.parametrize("name", sorted(_DRAWS))
@pytest.mark.parametrize("transform", ["exact", "identity"])
@pytest.mark.parametrize("post", [True, False])
def test_apply_task_and_metrics_equal_the_whole_grid_pipeline(name, transform, post):
    pair, _, task = _draw(name)
    params = _exact_params(pair) if transform == "exact" else RigidParams()
    got = apply_task(pair.i, params, task, post=post)
    ref = oracles.apply_task(pair.i, params, task, post=post)
    assert got.data.tobytes() == ref.data.tobytes()
    assert evaluate_labels(got, pair.labels_i).to_json() == oracles.evaluate_labels(ref, pair.labels_i).to_json()
