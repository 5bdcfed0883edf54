"""Task application and its metrics against the whole-grid oracle pipeline on the gates' draws,
against the one-CPU path on two threads, and the pair directory's round trip."""

import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidda.errors import NumericalError, ValidationError
from rigidda.experiments import apex_case, recovery_case
from rigidda.metrics import evaluate_labels, postprocess_labels
from rigidda.phantom import AnalyticSegmenter, PhantomSpec, generate_phantom, make_pair, world_rigid
from rigidda.pipeline import apply_task, load_pair_dir, save_pair_dir
from rigidda.resampler import transform_labels, transform_volume
from rigidda.rigid import RigidParams, euler_from_rotation, euler_to_affine
from rigidda.volume import GridGeometry
import oracles
from conftest import FailingTask, force_one_cpu, gentle_task_spec, needs_two_cpus, pair_on

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


@functools.cache
def _windowed_case(name):
    """A pair on ``pair_on``'s grids, or a gentle-spec pair, and its segmenter."""
    if name == "gentle":
        spec = gentle_task_spec()
        pair = make_pair(spec, world_rigid((0.1, -0.05, 0.08), (2.0, -1.0, 1.5)), grid=(16, 16, 16), iso=3.0, seed=2)
        return pair, AnalyticSegmenter(spec, pair.i.geometry)
    return pair_on(name)


class WholeSlices:
    """A task module that cannot bound its labels, as a per-slice network: its support is every slice whole."""

    def __init__(self, task):
        self.geometry = task.geometry
        self.evaluate, self.gradient, self.restrict = task.evaluate, task.gradient, task.restrict

    def support(self, z0, z1):
        w, h, _ = self.geometry.shape
        return 0, w, 0, h


class TestWindowedTaskApplication:
    """Segmenting inside the task's support windows and warping the labels back
    inside their reach gives the bytes of the whole-grid pipeline."""

    @given(
        name=st.sampled_from([(17, 13, 11), (40, 40, 23), (33, 47, 29), "gentle"]),
        vec=st.lists(st.floats(-0.3, 0.3), min_size=9, max_size=9),
        post=st.booleans(),
    )
    @settings(max_examples=30)
    def test_drawn_parameters_match_the_whole_grid_pipeline(self, name, vec, post):
        pair, task = _windowed_case(name)
        params = RigidParams.from_vector(np.asarray(vec))
        got = apply_task(pair.i, params, task, post=post)
        assert got.data.tobytes() == oracles.apply_task(pair.i, params, task, post=post).data.tobytes()

    @pytest.mark.parametrize("shape", [(16, 16, 20), (14, 16, 12), (18, 16, 12)])
    def test_task_on_another_grid_is_rejected(self, shape):
        """A deeper, narrower or wider grid than the task's; the narrower one once
        ran silently, because the task's windows fit inside it."""
        spec = PhantomSpec(noise_sigma=0.0).scaled(0.3)
        task = AnalyticSegmenter(spec, GridGeometry.isotropic((16, 16, 12), 1.5))
        vol, _ = generate_phantom(spec, GridGeometry.isotropic(shape, 1.5))
        with pytest.raises(ValidationError, match="task module built for grid"):
            apply_task(vol, RigidParams(), task)

    @pytest.mark.parametrize("name", sorted(_DRAWS))
    def test_a_task_without_a_bound_gives_the_same_labels(self, name):
        pair, _, task = _draw(name)
        for params in (_exact_params(pair), _PARAMS):
            whole = apply_task(pair.i, params, WholeSlices(task), post=False)
            assert whole.data.tobytes() == apply_task(pair.i, params, task, post=False).data.tobytes()
            assert whole.data.tobytes() == oracles.apply_task(pair.i, params, task, post=False).data.tobytes()


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
