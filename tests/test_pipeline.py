"""Task application and its metrics against the whole-grid oracle pipeline on the gates' draws,
against the one-CPU path on two threads, and the pair directory's round trip."""

import functools
import sys
import threading

import numpy as np
import pytest

from rigidda.errors import NumericalError
from rigidda.experiments import apex_case, recovery_case
from rigidda.metrics import evaluate_labels, postprocess_labels
from rigidda.pipeline import apply_task, load_pair_dir, save_pair_dir
from rigidda.resampler import transform_labels, transform_volume
from rigidda.rigid import RigidParams, euler_from_rotation, euler_to_affine
import oracles
from conftest import FailingTask, force_one_cpu, needs_two_cpus, pair_on

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


def _task_outputs(pair, task, params) -> dict:
    """The bytes of every threaded step of task application, by name."""
    mats = euler_to_affine(params)
    warped = transform_volume(pair.i, mats.m_t, pair.i.geometry)
    raw = apply_task(pair.i, params, task, post=False)
    post = apply_task(pair.i, params, task)
    return {
        "transform_volume": warped.image.data.tobytes() + warped.validity.tobytes(),
        "transform_labels": transform_labels(pair.labels_i, mats.m_t_inv, pair.i.geometry).data.tobytes(),
        "apply_task": raw.data.tobytes(),
        "apply_task post": post.data.tobytes(),
        "postprocess_labels": postprocess_labels(raw).data.tobytes(),
        "evaluate_labels": evaluate_labels(post, pair.labels_i).to_json(),
    }


def _threaded(fn):
    """``fn()`` with the interpreter switching threads as often as it can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return fn()
    finally:
        sys.setswitchinterval(interval)


_PARAMS = RigidParams.from_vector(np.array([0.2, -0.1, 0.15, 0.05, -0.04, 0.03, 0.04, -0.05, 0.02]))


class TestTwoThreadTaskApplication:
    """Every slab walk and per-class loop of task application gives the one-CPU bytes on two threads."""

    # 64^3 makes 16 slabs, 48^3 seven, 40x40x23 three with a short last one, 17x13x11 one
    @pytest.mark.parametrize("grid", ((64, 64, 64), (48, 48, 48), (40, 40, 23), (17, 13, 11)))
    def test_bytes_equal_the_one_cpu_path(self, grid, monkeypatch):
        pair, task = pair_on(grid)
        for params in (_PARAMS, RigidParams()):
            threaded = _threaded(lambda: _task_outputs(pair, task, params))
            with monkeypatch.context() as mp:
                force_one_cpu(mp)
                serial = _task_outputs(pair, task, params)
            for name, ref in serial.items():
                assert threaded[name] == ref, name

    @needs_two_cpus
    def test_error_on_the_helper_thread_is_raised_by_the_caller(self, monkeypatch):
        pair, task = pair_on((40, 40, 23))
        helper_failed = threading.Event()

        def fails_here(z0):
            # the caller's slab waits until the helper has failed on one of its own
            if threading.current_thread() is threading.main_thread():
                assert helper_failed.wait(timeout=30)
                return False
            helper_failed.set()
            return True

        with pytest.raises(NumericalError, match="slab failed"):
            _threaded(lambda: apply_task(pair.i, _PARAMS, FailingTask(task, fails_here)))
        assert helper_failed.is_set()
        threaded = _threaded(lambda: apply_task(pair.i, _PARAMS, task))
        with monkeypatch.context() as mp:
            force_one_cpu(mp)
            serial = apply_task(pair.i, _PARAMS, task)
        assert threaded.data.tobytes() == serial.data.tobytes()


@pytest.mark.parametrize("name", sorted(_DRAWS))
def test_pair_dir_reads_back_what_was_saved(name, tmp_path):
    """``save_pair_dir`` writes a spec and a transform file that ``load_pair_dir`` accepts as they are."""
    pair, spec, _ = _draw(name)
    save_pair_dir(pair, spec, tmp_path)
    back, back_spec = load_pair_dir(tmp_path)
    assert back_spec.to_json() == spec.to_json()
    np.testing.assert_array_equal(back.gt_m, pair.gt_m)
    np.testing.assert_array_equal(back.gt_m_inv, pair.gt_m_inv)
