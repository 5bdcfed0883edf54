"""Optimizer, scheduler, and pair-objective tests."""

import csv
import functools
import json
import importlib.util
import logging
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidda.config import PipelineConfig
from rigidda.engine import (
    FOCUS_MODES,
    MODES,
    AdamState,
    EarlyStopper,
    OptimConfig,
    PairObjective,
    PlateauScheduler,
    TRACE_COLUMNS,
    adam_step,
    register_pair,
    slab_bounds,
)
from rigidda.errors import NumericalError, ValidationError
from rigidda.experiments import ABLATION_MODES, apex_case
from rigidda.losses import (
    LossReport,
    LossWeights,
    ProbabilityVolume,
    focus_exact,
    focus_smooth,
    focus_smooth_upstream,
    in_plane_weight,
)
from rigidda.phantom import AnalyticSegmenter, PhantomSpec, make_pair, world_rigid
from rigidda.pipeline import apply_task, run_end2end
from rigidda.resampler import target_coords, transform_volume, transform_volume_with_tape
from rigidda.rigid import N_PARAMS, RigidParams, affine_jacobian, euler_to_affine
from rigidda import engine, interp, pipeline
from rigidda.volume import FOREGROUND_CLASSES, Volume
import oracles
from conftest import (
    FailingTask,
    central_difference,
    force_one_cpu,
    gentle_task_spec,
    gradient_scale_error,
    needs_two_cpus,
    pair_on,
)


def _small_pair(seed=0):
    spec = gentle_task_spec()
    rel = world_rigid((0.1, -0.05, 0.08), (2.0, -1.0, 1.5))
    return spec, make_pair(spec, rel, grid=(16, 16, 16), iso=3.0, seed=seed)


class WholeGridObjective:
    """Reference objective: every term evaluated over the whole grid at once, the focus
    terms counted and summed inside ``oracles.focus_boxes``, or everywhere with ``whole_slices``."""

    def __init__(self, i_vol, j_vol, gt_m, gt_m_inv, task, weights, mode, whole_slices=False):
        self.mode = mode
        self.i_vol = i_vol
        self.j_vol = j_vol
        self.task = task
        self.weights = weights
        self.target = i_vol.geometry
        self.coords = target_coords(self.target)
        self.use_focus = mode in FOCUS_MODES
        if self.use_focus:
            shape = self.target.shape
            self.inside = np.ones(shape, dtype=bool) if whole_slices else oracles.focus_mask(task, shape, weights.r)
        self.use_cycle_bwd = mode != "baseline"
        w_field = in_plane_weight(self.target) if mode == "full" else None
        self.fixed_fwd = transform_volume(i_vol, gt_m, self.target)
        self.mask_fwd = self.fixed_fwd.validity if w_field is None else self.fixed_fwd.validity * w_field
        if self.use_cycle_bwd:
            self.fixed_bwd = transform_volume(j_vol, gt_m_inv, self.target)
            self.mask_bwd = (
                self.fixed_bwd.validity if w_field is None else self.fixed_bwd.validity * w_field
            )

    def _mse_term(self, tape, fixed, mask, d_m):
        diff = (tape.result.image.data - fixed.image.data) * mask
        n = diff.size
        loss = 0.5 * float(np.sum(diff * diff)) / n
        upstream = diff * mask / n
        grad = tape.vjp(d_m, upstream)
        return loss, grad

    def __call__(self, vec):
        params = RigidParams.from_vector(vec)
        mats = euler_to_affine(params)
        jac = affine_jacobian(params)
        w = self.weights
        a1 = w.alpha1
        a2 = w.alpha2 if self.use_focus else 0.0
        grad = np.zeros(N_PARAMS)

        tape_fwd = transform_volume_with_tape(self.i_vol, mats.m, self.target, self.coords)
        fwd_loss, fwd_grad = self._mse_term(tape_fwd, self.fixed_fwd, self.mask_fwd, jac.d_m)
        grad += a1 * fwd_grad

        bwd_loss = 0.0
        if self.use_cycle_bwd:
            tape_bwd = transform_volume_with_tape(self.j_vol, mats.m_inv, self.target, self.coords)
            bwd_loss, bwd_grad = self._mse_term(
                tape_bwd, self.fixed_bwd, self.mask_bwd, jac.d_m_inv
            )
            grad += a1 * bwd_grad

        f_exact = 0.0
        f_smooth = 0.0
        if self.use_focus:
            tape_t = transform_volume_with_tape(self.i_vol, mats.m_t, self.target, self.coords)
            q = self.task.evaluate(tape_t.result.image)
            f_exact, f_smooth = oracles.focus_terms(q, w.r, w.tau, self.inside)
            up_q = focus_smooth_upstream(q, w.r, w.tau) * self.inside
            up_img = self.task.gradient(tape_t.result.image, up_q)
            grad += a2 * tape_t.vjp(jac.d_m_t, up_img)

        report = LossReport(
            cycle_fwd=fwd_loss,
            cycle_bwd=bwd_loss,
            focus_exact=f_exact,
            focus_smooth=f_smooth,
            alpha1=a1,
            alpha2=a2,
        )
        return report, grad


class SerialSlabObjective:
    """Reference objective: the slabs one after another on the calling thread, every
    cycle term of each, outside the fixed view too, then its focus term on its box of
    ``oracles.focus_boxes``. Its fixed images and masks are its own whole-grid warps,
    as ``WholeGridObjective`` makes them, so it checks the objective's set-up too."""

    def __init__(self, i_vol, j_vol, gt_m, gt_m_inv, task, weights, mode="full"):
        self.i_vol = i_vol
        self.weights = weights
        self.mode = mode
        target = i_vol.geometry
        self.n = target.num_voxels
        w_field = in_plane_weight(target) if mode == "full" else None
        self.cycle = []  # per cycle branch: moving volume, name of its matrix, fixed image, mask
        for vol, gt, name in [(i_vol, gt_m, "m"), (j_vol, gt_m_inv, "m_inv")][: 1 if mode == "baseline" else 2]:
            fixed = transform_volume(vol, gt, target)
            mask = fixed.validity if w_field is None else fixed.validity * w_field
            self.cycle.append((vol, name, fixed.image.data, mask))
        bounds = slab_bounds(target.shape)
        self.slab_parts = [(z0, z1, target.z_slab(z0, z1), target_coords(target, z0, z1)) for z0, z1 in bounds]
        self.focus_parts = [None] * len(bounds)
        if mode in FOCUS_MODES:
            for k, ((z0, z1), box) in enumerate(oracles.focus_boxes(task, target.shape, weights.r)):
                if box is not None:
                    geometry, coords = target.z_slab(z0, z1, box), target_coords(target, z0, z1, box)
                    self.focus_parts[k] = (geometry, coords, task.restrict(z0, z1, box))

    def __call__(self, vec, worker=None):
        params = RigidParams.from_vector(vec)
        mats = euler_to_affine(params)
        jac = affine_jacobian(params)
        w = self.weights
        use_focus = self.mode in FOCUS_MODES
        a2 = w.alpha2 if use_focus else 0.0
        n_fg = len(FOREGROUND_CLASSES)
        grad = np.zeros(N_PARAMS)
        sq = {"m": 0.0, "m_inv": 0.0}
        smooth_mean = 0.0
        above = 0

        def mse_term(tape, fixed, mask, d_m):
            diff = (tape.result.image.data - fixed) * mask
            part = tape.vjp(d_m, diff * mask / self.n)
            return float(np.sum(diff * diff)), part

        for (z0, z1, geometry, coords), focus in zip(self.slab_parts, self.focus_parts):
            for vol, name, fixed, mask in self.cycle:
                tape = transform_volume_with_tape(vol, getattr(mats, name), geometry, coords)
                sq_k, part = mse_term(tape, fixed[..., z0:z1], mask[..., z0:z1], getattr(jac, "d_" + name))
                sq[name] += sq_k
                grad += w.alpha1 * part
            if focus is not None:
                geometry, coords, task = focus
                tape = transform_volume_with_tape(self.i_vol, mats.m_t, geometry, coords)
                image = tape.result.image
                q = task.evaluate(image)
                n = geometry.num_voxels
                share = n / self.n
                above += round((1.0 - focus_exact(q, w.r)) * n_fg * n)
                smooth_mean += share * (1.0 - focus_smooth(q, w.r, w.tau))
                up_q = share * focus_smooth_upstream(q, w.r, w.tau)
                grad += a2 * tape.vjp(jac.d_m_t, task.gradient(image, up_q, q))

        report = LossReport(
            cycle_fwd=0.5 * sq["m"] / self.n,
            cycle_bwd=0.5 * sq["m_inv"] / self.n,
            focus_exact=1.0 - above / (n_fg * self.n) if use_focus else 0.0,
            focus_smooth=1.0 - smooth_mean if use_focus else 0.0,
            alpha1=w.alpha1,
            alpha2=a2,
        )
        return report, grad


REPORT_FIELDS = ("cycle_fwd", "cycle_bwd", "focus_exact", "focus_smooth", "alpha1", "alpha2")


def _assert_same_bits(result, reference):
    (rep, grad), (ref, ref_grad) = result, reference
    for name in REPORT_FIELDS:
        assert getattr(rep, name) == getattr(ref, name), name
    assert np.array_equal(grad, ref_grad)


def _with_worker(obj, vec):
    """``obj(vec)`` stepped with a slab worker where one can run."""
    with engine._worker_for(obj) as worker:
        return obj(vec, worker)


@functools.cache
def _objectives_without_focus():
    spec, pair = _small_pair()
    task = AnalyticSegmenter(spec, pair.i.geometry)
    args = (pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights())
    return [PairObjective(*args, mode=mode) for mode in MODES if mode not in FOCUS_MODES]


# 64^3 makes 16 slabs of 4 slices; 40x40x23 slabs of 10, 10 and 3 slices;
# 17x13x11 and 8x7x6 a single slab each
SLAB_GRIDS = ((64, 64, 64), (40, 40, 23), (17, 13, 11), (8, 7, 6))


class TestAdam:
    def test_matches_reference_formula_over_steps(self, rng):
        lr = 0.1
        p = rng.normal(size=5)
        state = AdamState.zeros(5)
        m = np.zeros(5)
        v = np.zeros(5)
        for t in range(1, 6):
            grad = rng.normal(size=5)
            m = 0.9 * m + (1 - 0.9) * grad
            v = 0.999 * v + (1 - 0.999) * grad**2
            expected = p - lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            p_new = adam_step(p, grad, state, lr)
            np.testing.assert_allclose(p_new, expected, atol=1e-14)
            p = p_new
        assert state.t == 5

    def test_rejects_non_finite_gradient(self):
        state = AdamState.zeros(2)
        with pytest.raises(NumericalError):
            adam_step(np.zeros(2), np.array([1.0, np.nan]), state, 0.1)

    def test_quadratic_converges(self):
        state = AdamState.zeros(1)
        p = np.array([3.0])
        for _ in range(500):
            p = adam_step(p, 2.0 * p, state, 0.1)
        assert abs(p[0]) < 1e-3


class TestPlateauScheduler:
    def test_single_decay_after_patience(self):
        cfg = OptimConfig(lr0=1.0, plateau_factor=0.3, plateau_patience=3)
        sched = PlateauScheduler(cfg)
        assert sched.epoch_end(1.0) == 1.0  # sets the best
        lrs = [sched.epoch_end(1.0) for _ in range(3)]
        assert lrs == [1.0, 1.0, pytest.approx(0.3)]
        # counter was reset: the next flat epochs take another full patience
        assert sched.epoch_end(1.0) == pytest.approx(0.3)
        assert sched.epoch_end(1.0) == pytest.approx(0.3)
        assert sched.epoch_end(1.0) == pytest.approx(0.09)

    def test_improvement_resets_counter(self):
        cfg = OptimConfig(lr0=1.0, plateau_patience=2)
        sched = PlateauScheduler(cfg)
        sched.epoch_end(1.0)
        sched.epoch_end(1.0)
        assert sched.epoch_end(0.5) == 1.0
        assert sched.epoch_end(0.5) == 1.0
        assert sched.epoch_end(0.5) == pytest.approx(0.3)

    def test_floor_respected(self):
        cfg = OptimConfig(lr0=1e-7, lr_min=1e-8, plateau_patience=1, plateau_factor=0.3)
        sched = PlateauScheduler(cfg)
        sched.epoch_end(1.0)
        for _ in range(10):
            lr = sched.epoch_end(1.0)
        assert lr == 1e-8


class TestEarlyStopper:
    def test_stops_after_patience(self):
        cfg = OptimConfig(stop_patience=3)
        stop = EarlyStopper(cfg)
        assert not stop.epoch_end(1.0)
        assert not stop.epoch_end(1.0)
        assert not stop.epoch_end(1.0)
        assert stop.epoch_end(1.0)

    def test_improvement_resets(self):
        cfg = OptimConfig(stop_patience=2)
        stop = EarlyStopper(cfg)
        stop.epoch_end(1.0)
        assert not stop.epoch_end(1.0)
        assert not stop.epoch_end(0.5)
        assert not stop.epoch_end(0.5)
        assert stop.epoch_end(0.5)

    def test_tiny_improvement_counts_as_plateau(self):
        cfg = OptimConfig(stop_patience=1, min_delta=1e-3)
        stop = EarlyStopper(cfg)
        stop.epoch_end(1.0)
        assert stop.epoch_end(1.0 - 1e-6)


class ScriptedObjective:
    """An objective whose losses are given in advance, one per call, and whose gradient is fixed."""

    GRAD = np.linspace(-1.0, 1.0, N_PARAMS)

    def __init__(self, losses):
        self.losses = iter(losses)

    def __call__(self, vec, worker):
        return LossReport(cycle_fwd=next(self.losses), alpha1=1.0, alpha2=0.0), self.GRAD


class TestOptimizeLoop:
    """``_optimize`` wires Adam, the scheduler and the stopper to the trace as fresh ones would run."""

    @settings(max_examples=200, deadline=None)
    @given(
        epoch_steps=st.integers(1, 4),
        max_steps=st.integers(1, 30),
        plateau_patience=st.integers(1, 3),
        stop_patience=st.integers(1, 3),
        min_delta=st.sampled_from([0.0, 0.1]),
        losses=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0), min_size=30, max_size=30),
    )
    def test_trace_follows_fresh_scheduler_and_stopper(
        self, epoch_steps, max_steps, plateau_patience, stop_patience, min_delta, losses
    ):
        cfg = OptimConfig(
            lr0=0.1, epoch_steps=epoch_steps, max_steps=max_steps, plateau_patience=plateau_patience,
            stop_patience=stop_patience, min_delta=min_delta,
        )
        start = np.linspace(0.0, 0.8, N_PARAMS)
        best, trace = engine._optimize(ScriptedObjective(losses), None, cfg, start)

        scheduler, stopper = PlateauScheduler(cfg), EarlyStopper(cfg)
        lrs, stop = [], "max_steps"
        for first in range(0, max_steps, epoch_steps):
            epoch = losses[first : min(first + epoch_steps, max_steps)]
            lrs += [scheduler.lr] * len(epoch)
            if len(epoch) < epoch_steps:
                break
            mean = float(np.mean(epoch))
            scheduler.epoch_end(mean)
            if stopper.epoch_end(mean):
                stop = "early stop"
                break
        assert trace.stop == stop
        assert [row.step for row in trace.rows] == list(range(len(lrs)))
        assert [row.lr for row in trace.rows] == lrs
        totals = [row.report.total for row in trace.rows]
        assert totals == losses[: len(lrs)]
        assert best is trace.rows[totals.index(min(totals))]

        state, vec = AdamState.zeros(N_PARAMS), start
        for row in trace.rows:
            np.testing.assert_array_equal(row.params, vec)
            vec = adam_step(vec, ScriptedObjective.GRAD, state, row.lr)


class TestOptimConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            OptimConfig(plateau_factor=1.5)
        with pytest.raises(ValidationError):
            OptimConfig(lr0=1e-9, lr_min=1e-3)
        with pytest.raises(ValidationError):
            OptimConfig(epoch_steps=0)


class TestPairObjective:
    def test_mode_validation(self):
        spec, pair = _small_pair()
        task = AnalyticSegmenter(spec, pair.i.geometry)
        w = LossWeights()
        with pytest.raises(ValidationError):
            PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, w, mode="bogus")
        with pytest.raises(ValidationError):
            PairObjective(pair.i, None, pair.gt_m, None, task, w, mode="cycle")
        with pytest.raises(ValidationError):
            PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, None, w, mode="full")

    @given(vec=st.lists(st.floats(-0.3, 0.3), min_size=9, max_size=9))
    @settings(max_examples=20)
    def test_no_task_translation_gradient_without_focus(self, vec):
        """Without a focus branch the t_t entries are exactly +0.0, so Adam never moves them."""
        for obj in _objectives_without_focus():
            _, grad = obj(np.asarray(vec))
            assert np.array_equal(grad[6:], np.zeros(3)) and not np.signbit(grad[6:]).any()

    @pytest.mark.parametrize("mode", MODES)
    def test_gradient_matches_finite_differences(self, mode):
        spec, pair = _small_pair()
        task = AnalyticSegmenter(spec, pair.i.geometry)
        w = LossWeights(tau=0.1)
        obj = PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, w, mode=mode)
        rng = np.random.default_rng(3)
        vec = np.concatenate([rng.uniform(-0.25, 0.25, 3), rng.uniform(-0.12, 0.12, 6)])
        _, grad = obj(vec)

        def scalar(v):
            report, _ = obj(v)
            return report.total

        fd = central_difference(scalar, vec, h=1e-6)
        assert gradient_scale_error(grad, fd) < 1e-3

    def test_total_weights_per_mode(self):
        spec, pair = _small_pair()
        task = AnalyticSegmenter(spec, pair.i.geometry)
        w = LossWeights(alpha1=2.0, alpha2=0.5, tau=0.1)
        vec = np.full(9, 0.05)
        rep_base, _ = PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, w, "baseline")(vec)
        assert rep_base.cycle_bwd == 0.0 and rep_base.alpha1 == 2.0 and rep_base.alpha2 == 0.0
        rep_cycle, _ = PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, w, "cycle")(vec)
        assert rep_cycle.cycle_bwd > 0.0 and rep_cycle.alpha2 == 0.0
        rep_full, _ = PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, w, "full")(vec)
        assert rep_full.alpha2 == 0.5 and rep_full.focus_smooth > 0.0


class TestRegisterPair:
    def _run(self, mode, seed=0, max_steps=60):
        spec, pair = _small_pair()
        task = AnalyticSegmenter(spec, pair.i.geometry)
        cfg = OptimConfig(
            lr0=0.02, epoch_steps=10, plateau_patience=2, stop_patience=4, max_steps=max_steps, seed=seed
        )
        return register_pair(
            pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1), cfg, mode=mode
        )

    def test_loss_decreases(self):
        params, trace = self._run("cycle")
        assert len(trace.rows) <= 60
        first = trace.rows[0].report.total
        best = min(r.report.total for r in trace.rows)
        assert best < first
        assert np.all(np.isfinite(params.to_vector()))

    def test_deterministic_given_seed(self):
        p1, t1 = self._run("full", seed=5, max_steps=30)
        p2, t2 = self._run("full", seed=5, max_steps=30)
        np.testing.assert_array_equal(p1.to_vector(), p2.to_vector())
        assert [r.report.total for r in t1.rows] == [r.report.total for r in t2.rows]

    @staticmethod
    def _assert_task_translation_falls_back(params, trace):
        """t_t stays at its draw in every trace row, and the result returns t_t = t."""
        first = trace.rows[0].params[6:]
        for row in trace.rows:
            np.testing.assert_array_equal(row.params[6:], first)
        np.testing.assert_array_equal(params.t_t, params.t)

    def test_baseline_keeps_task_translation_frozen(self):
        spec, pair = _small_pair()
        cfg = OptimConfig(lr0=0.02, epoch_steps=10, max_steps=25, seed=2)
        params, trace = register_pair(pair.i, None, pair.gt_m, None, None, LossWeights(), cfg, mode="baseline")
        self._assert_task_translation_falls_back(params, trace)

    def test_cycle_returns_t_t_equal_to_t(self):
        self._assert_task_translation_falls_back(*self._run("cycle", max_steps=25))

    def test_full_mode_optimizes_t_t(self):
        params, trace = self._run("full", max_steps=25)
        assert not np.array_equal(trace.rows[-1].params[6:], trace.rows[0].params[6:])
        assert not np.array_equal(params.t_t, params.t)

    @pytest.mark.parametrize("mode", ["baseline", "cycle", "full"])
    def test_end2end_segments_through_the_returned_params(self, mode):
        spec, pair = _small_pair()
        task = AnalyticSegmenter(spec, pair.i.geometry)
        optim = OptimConfig(lr0=0.02, epoch_steps=10, max_steps=15, seed=1)
        result = run_end2end(pair, task, PipelineConfig(mode=mode, weights=LossWeights(tau=0.1), optim=optim))
        params, _ = register_pair(
            pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1), optim, mode=mode
        )
        np.testing.assert_array_equal(params.to_vector(), result.params.to_vector())
        np.testing.assert_array_equal(apply_task(pair.i, params, task).data, result.pred_labels.data)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_a_nan_loss_stops_the_run(self):
        """A task that gives NaN probabilities on one of three slabs makes the
        first loss NaN: the run raises and leaves no process behind."""
        pair, seg = pair_on((40, 40, 23))

        class NanOnSlab1:
            geometry = seg.geometry
            support = staticmethod(seg.support)

            def restrict(self, z0, z1, window=None):
                part = seg.restrict(z0, z1, window)
                if z0 == 10:
                    evaluate = part.evaluate
                    part.evaluate = lambda vol: ProbabilityVolume.trusted(vol.geometry, evaluate(vol).q * np.nan)
                return part

        before = _child_pids()
        cfg = OptimConfig(lr0=0.02, epoch_steps=2, max_steps=4)
        with pytest.raises(NumericalError, match="^loss diverged at step 0$"):
            register_pair(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, NanOnSlab1(), LossWeights(tau=0.1), cfg)
        assert _child_pids() == before

    def test_trace_csv_layout(self, tmp_path):
        _, trace = self._run("cycle", max_steps=15)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRACE_COLUMNS
        assert len(rows) == 1 + len(trace.rows)
        assert all(len(r) == len(TRACE_COLUMNS) for r in rows)
        # repr round trip keeps full float precision
        assert float(rows[1][2]) == trace.rows[0].report.total

    def test_end2end_trace_csv_reads_back_as_floats(self, tmp_path):
        """Every cell of an ``end2end`` trace.csv after the header is a number, and the
        parameter columns read back each row's parameters bit for bit."""
        spec, pair = _small_pair()
        optim = OptimConfig(lr0=0.02, epoch_steps=5, max_steps=10)
        result = run_end2end(pair, AnalyticSegmenter(spec, pair.i.geometry), PipelineConfig(optim=optim))
        result.save(tmp_path)
        with open(tmp_path / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(result.trace.rows) == 10
        first = TRACE_COLUMNS.index("phi")
        for row, traced in zip(rows, result.trace.rows):
            values = [float(cell) for cell in row]
            assert np.array_equal(values[first:], traced.params)


class TestSlabObjective:
    def test_slab_bounds_cover_the_depth(self):
        assert slab_bounds((64, 64, 64)) == [(z, z + 4) for z in range(0, 64, 4)]
        assert slab_bounds((40, 40, 23)) == [(0, 10), (10, 20), (20, 23)]
        assert slab_bounds((17, 13, 11)) == [(0, 11)]
        assert slab_bounds((300, 300, 5)) == [(z, z + 1) for z in range(5)]
        assert slab_bounds((48, 48, 48))[-1] == (42, 48)

    @pytest.mark.parametrize("grid", SLAB_GRIDS)
    def test_matches_whole_grid_oracle(self, grid):
        pair, task = pair_on(grid)
        w = LossWeights(tau=0.1)
        rng = np.random.default_rng(9)
        vecs = [np.concatenate([rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.15, 0.15, 6)]) for _ in range(2)]
        vecs.append(np.zeros(9))
        for mode in MODES:
            args = (pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, w, mode)
            slabbed, oracle = PairObjective(*args), WholeGridObjective(*args)
            for vec in vecs:
                rep, grad = slabbed(vec)
                ref, ref_grad = oracle(vec)
                for term in ("cycle_fwd", "cycle_bwd", "focus_smooth", "total"):
                    assert getattr(rep, term) == pytest.approx(getattr(ref, term), rel=1e-12, abs=0.0)
                assert rep.focus_exact == ref.focus_exact
                assert (rep.alpha1, rep.alpha2) == (ref.alpha1, ref.alpha2)
                assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    def test_restricted_segmenter_matches_whole_grid_slices(self, rng):
        pair, task = pair_on((17, 13, 11))
        part = task.restrict(3, 8)
        sub = pair.i.geometry.z_slab(3, 8)
        q = task.evaluate(pair.i).q
        q_part = part.evaluate(Volume(sub, pair.i.data[..., 3:8])).q
        np.testing.assert_array_equal(q_part, q[..., 3:8])
        upstream = rng.normal(size=q.shape)
        g = task.gradient(pair.i, upstream)
        g_part = part.gradient(Volume(sub, pair.i.data[..., 3:8]), upstream[..., 3:8])
        np.testing.assert_array_equal(g_part, g[..., 3:8])
        with pytest.raises(ValidationError):
            task.restrict(5, 12)
        with pytest.raises(ValidationError):
            task.support(5, 12)
        with pytest.raises(ValidationError):
            task.restrict(3, 8, (0, 18, 0, 13))

    def test_set_up_builds_no_whole_grid_coordinate_map(self):
        """Each slab's coordinates come from its own slices: a full-mode set-up
        at 64^3 peaked at 42.1 MiB with the 8 MiB whole-grid map, and at 34.0
        MiB without it (two fixed warps, their masks, the task's slabs)."""
        pair, task = pair_on((64, 64, 64))
        args = (pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1), "full")
        PairObjective(*args)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            PairObjective(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 38 * 2**20

    @pytest.mark.parametrize("mode", MODES)
    def test_step_allocates_no_whole_grid_temporaries(self, mode):
        pair, task = pair_on((64, 64, 64))
        obj = PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1), mode)
        vec = np.full(9, 0.05)
        obj(vec)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            obj(vec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # one float64 array over the 64^3 grid alone is 2 MiB
        assert peak < 8 * 2**20


@functools.cache
def _focus_pair(name):
    """A pair and its segmenter: the gentle pair, or ``pair_on`` a grid; at 64^3 two
    of the 16 slabs have no support."""
    if name == "gentle":
        spec, pair = _small_pair()
        return pair, AnalyticSegmenter(spec, pair.i.geometry)
    return pair_on(name)


FOCUS_PAIRS = st.sampled_from(["gentle", (17, 13, 11), (40, 40, 23), (48, 48, 48), (64, 64, 64)])
VECS = st.tuples(*[st.floats(-0.3, 0.3)] * 3, *[st.floats(-0.15, 0.15)] * 6).map(np.array)


def _whole_grid_q(pair, task, vec):
    """The task's probabilities on the whole grid, warped under M_t as the objective warps."""
    m_t = euler_to_affine(RigidParams.from_vector(vec)).m_t
    return task.evaluate(transform_volume_with_tape(pair.i, m_t, pair.i.geometry).result.image)


class TestFocusOnTheSupport:
    """Each focus term covers only its slab's support box, or whole slices for r < 0.5."""

    @given(name=FOCUS_PAIRS, vec=VECS, r=st.sampled_from([0.5, 0.9]), tau=st.sampled_from([0.02, 0.1]))
    @settings(max_examples=12)
    def test_exact_count_is_the_whole_grids(self, name, vec, r, tau):
        pair, task = _focus_pair(name)
        w = LossWeights(r=r, tau=tau)
        report, _ = PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, w, "full")(vec)
        assert report.focus_exact == focus_exact(_whole_grid_q(pair, task, vec), r)

    @given(name=FOCUS_PAIRS, vec=VECS, r=st.sampled_from([0.5, 0.9]), tau=st.sampled_from([0.02, 0.1]))
    @settings(max_examples=12)
    def test_smooth_mean_leaves_out_at_most_the_outside_bound(self, name, vec, r, tau):
        """Outside the support every foreground probability is at most 0.5, so each
        of the 3 entries of an outside voxel adds at most sigmoid((0.5 - r) / tau)."""
        pair, task = _focus_pair(name)
        w = LossWeights(r=r, tau=tau)
        report, _ = PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, w, "full")(vec)
        whole = focus_smooth(_whole_grid_q(pair, task, vec), r, tau)
        n = pair.i.geometry.num_voxels
        outside = n - np.count_nonzero(oracles.focus_mask(task, pair.i.geometry.shape, r))
        bound = outside * 3 / (1.0 + math.exp((r - 0.5) / tau)) / (3 * n)
        # the sums run in another order: a few ulps of the mean beside the bound
        assert abs(report.focus_smooth - whole) <= bound + 1e-13
        assert report.focus_smooth >= whole - 1e-13

    @given(name=FOCUS_PAIRS, vec=VECS)
    @settings(max_examples=8)
    def test_below_one_half_the_focus_term_takes_whole_slices(self, name, vec):
        pair, task = _focus_pair(name)
        args = (pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(r=0.3, tau=0.1), "full")
        rep, grad = PairObjective(*args)(vec)
        ref, ref_grad = WholeGridObjective(*args, whole_slices=True)(vec)
        for term in ("cycle_fwd", "cycle_bwd", "focus_smooth", "total"):
            assert getattr(rep, term) == pytest.approx(getattr(ref, term), rel=1e-12, abs=0.0)
        assert rep.focus_exact == ref.focus_exact
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    @given(name=FOCUS_PAIRS, r=st.sampled_from([0.3, 0.5, 0.9]))
    @settings(max_examples=10)
    def test_samples_per_step_are_the_boxes_voxels(self, name, r):
        """The focus warp samples each box once per step and nothing else."""
        pair, task = _focus_pair(name)
        vec = np.array([0.1, -0.05, 0.08, 0.02, -0.03, 0.01, -0.04, 0.05, 0.03])
        m_t = euler_to_affine(RigidParams.from_vector(vec)).m_t
        samples = []

        def counted(src, m, target, coords):
            if np.array_equal(m, m_t):
                samples.append(coords.shape[1])
            return transform_volume_with_tape(src, m, target, coords)

        obj = PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(r=r, tau=0.1), "full")
        with pytest.MonkeyPatch.context() as mp:
            force_one_cpu(mp)
            mp.setattr(engine, "transform_volume_with_tape", counted)
            obj(vec)
        expected = []
        for (z0, z1), box in oracles.focus_boxes(task, pair.i.geometry.shape, r):
            if box is not None:
                x0, x1, y0, y1 = box
                expected.append((x1 - x0) * (y1 - y0) * (z1 - z0))
        assert samples == expected
        assert sum(term.geometry.num_voxels for term in obj.terms if term.task is not None) == sum(expected)


class TestTwoThreadObjective:
    """The slabs run on the calling thread plus one forked worker process; the bits are the serial loop's."""

    # 64^3 makes 16 slabs, 48^3 seven, 40x40x23 a short last one, 17x13x11 one
    @pytest.mark.parametrize("grid", ((64, 64, 64), (48, 48, 48), (40, 40, 23), (17, 13, 11)))
    def test_bits_equal_the_serial_loop(self, grid):
        pair, task = pair_on(grid)
        w = LossWeights(tau=0.1)
        rng = np.random.default_rng(11)
        vecs = [np.concatenate([rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.15, 0.15, 6)]) for _ in range(2)]
        vecs.append(np.zeros(9))
        for mode in MODES:
            args = (pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, w, mode)
            threaded, serial = PairObjective(*args), SerialSlabObjective(*args)
            with engine._worker_for(threaded) as worker:
                for vec in vecs:
                    _assert_same_bits(threaded(vec, worker), serial(vec))

    def test_register_pair_trace_equals_the_serial_loop(self):
        pair, task = pair_on((40, 40, 23))
        cfg = OptimConfig(lr0=0.02, epoch_steps=5, plateau_patience=1, max_steps=25, seed=4)
        args = (pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1))
        params, trace = register_pair(*args, cfg, mode="full")
        start = RigidParams.random_init(np.random.default_rng(cfg.seed)).to_vector()
        best, ref_trace = engine._optimize(SerialSlabObjective(*args, "full"), None, cfg, start)
        np.testing.assert_array_equal(params.to_vector(), best.params)
        assert len(trace.rows) == len(ref_trace.rows) == 25
        assert trace.stop == ref_trace.stop
        for row, ref in zip(trace.rows, ref_trace.rows):
            assert (row.step, row.lr) == (ref.step, ref.lr)
            assert row.report == ref.report
            np.testing.assert_array_equal(row.params, ref.params)

    def test_slab_error_is_raised_and_the_helper_recovers(self):
        pair, task = pair_on((40, 40, 23))
        w = LossWeights(tau=0.1)
        vec = np.full(9, 0.05)
        args = (pair.i, pair.j, pair.gt_m, pair.gt_m_inv)
        ok_args = (*args, task, w, "full")
        for bad in (0, 1, 2):
            failing = PairObjective(*args, FailingTask(task, lambda z0, bad=bad: z0 == 10 * bad), w, "full")
            with engine._worker_for(failing) as worker, pytest.raises(NumericalError, match="slab failed"):
                failing(vec, worker)
            _assert_same_bits(_with_worker(PairObjective(*ok_args), vec), SerialSlabObjective(*ok_args)(vec))

    @needs_two_cpus
    def test_error_in_the_worker_is_raised_by_the_caller(self):
        pair, task = pair_on((40, 40, 23))
        caller = os.getpid()
        args = (pair.i, pair.j, pair.gt_m, pair.gt_m_inv)
        w = LossWeights(tau=0.1)
        # the worker computes slab 1 (z0 = 10) of 3; the caller's slabs 0 and 2 do not fail
        failing = PairObjective(*args, FailingTask(task, lambda z0: os.getpid() != caller), w, "full")
        with engine._SlabWorker(failing) as worker:
            for _ in range(2):  # the worker survives its error and fails again
                with pytest.raises(NumericalError) as raised:
                    failing(np.full(9, 0.05), worker)
                assert type(raised.value) is NumericalError
                assert str(raised.value) == "slab failed at z0=10"
                assert worker.process.is_alive()
        vec = np.full(9, -0.03)
        args = (*args, task, w, "full")
        _assert_same_bits(_with_worker(PairObjective(*args), vec), SerialSlabObjective(*args)(vec))

    @needs_two_cpus
    @pytest.mark.parametrize("failing_z0, raised_z0", [((0, 10, 20), 0), ((10, 20), 10), ((20,), 20)])
    def test_the_error_raised_is_the_serial_loops(self, failing_z0, raised_z0):
        """Both processes stop at their first failing slab; the caller raises the
        error of the lowest failing slab, as the serial loop would."""
        pair, task = pair_on((40, 40, 23))
        failing = PairObjective(
            pair.i, pair.j, pair.gt_m, pair.gt_m_inv, FailingTask(task, lambda z0: z0 in failing_z0),
            LossWeights(tau=0.1), "full",
        )
        with engine._SlabWorker(failing) as worker, pytest.raises(NumericalError, match=f"slab failed at z0={raised_z0}$"):
            failing(np.full(9, 0.05), worker)

    @needs_two_cpus
    def test_the_workers_earlier_error_wins_over_the_callers_later_one(self):
        """Terms 0-8 are each slab's forward, backward and focus terms; the worker
        owns the odd ones, among them slab 1's focus term (5), and the caller
        slab 2's (8). Each fails only in the process that owns it."""
        pair, task = pair_on((40, 40, 23))
        caller = os.getpid()

        def fails_here(z0):
            return z0 == 10 and os.getpid() != caller or z0 == 20 and os.getpid() == caller

        failing = PairObjective(
            pair.i, pair.j, pair.gt_m, pair.gt_m_inv, FailingTask(task, fails_here), LossWeights(tau=0.1), "full"
        )
        with engine._SlabWorker(failing) as worker:
            with pytest.raises(NumericalError, match="slab failed at z0=10$"):
                failing(np.full(9, 0.05), worker)
            assert worker.process.is_alive()

    def test_one_cpu_forks_no_process(self, one_cpu):
        pair, task = pair_on((40, 40, 23))
        threads, children = threading.active_count(), _child_pids()
        args = (pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1), "full")
        obj = PairObjective(*args)
        vec = np.full(9, 0.05)
        with engine._worker_for(obj) as worker:
            _assert_same_bits(obj(vec, worker), SerialSlabObjective(*args)(vec))
        assert worker is None
        assert threading.active_count() == threads
        assert _child_pids() == children

    def test_fifty_objectives_leave_no_process(self):
        pair, task = pair_on((40, 40, 23))
        before = _child_pids()
        vec = np.full(9, 0.05)
        for _ in range(50):
            # each worker is reaped when its block is left
            _with_worker(PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, None, LossWeights(), "baseline"), vec)
            assert _child_pids() == before

    def test_concurrent_callers_get_the_serial_bits(self):
        """Four threads call one objective at once; the first steps with a worker."""
        pair, task = pair_on((40, 40, 23))
        args = (pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1), "full")
        obj = PairObjective(*args)
        vecs = [np.full(9, 0.01 * k) for k in range(4)]
        expected = [SerialSlabObjective(*args)(v) for v in vecs]
        results = {}

        def call(k, worker):
            for _ in range(3):
                results.setdefault(k, []).append(obj(vecs[k], worker))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with engine._worker_for(obj) as worker:
                callers = [threading.Thread(target=call, args=(k, worker if k == 0 else None)) for k in range(4)]
                for t in callers:
                    t.start()
                for t in callers:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for k, ref in enumerate(expected):
            assert len(results[k]) == 3
            for result in results[k]:
                _assert_same_bits(result, ref)

    def test_cli_register_exits_cleanly(self, tmp_path):
        """A process that ran a registration with a slab worker exits 0, does not
        hang at exit, and leaves no process of its session behind."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        spec = tmp_path / "spec.json"
        spec.write_text(PhantomSpec().scaled(40 / 64).to_json())
        rigidda = [sys.executable, "-m", "rigidda.cli"]
        common = {"env": env, "capture_output": True, "text": True, "timeout": 300}
        gen = ["phantom-gen", "--spec", str(spec), "--grid", "40", "40", "23", "--iso", "1.5", "--out-dir", str(tmp_path)]
        assert subprocess.run(rigidda + gen, **common).returncode == 0
        config = tmp_path / "config.json"
        config.write_text('{"optim": {"lr0": 0.02, "epoch_steps": 5, "max_steps": 10}}')
        register = [
            "register", "--ax", str(tmp_path / "I.nii"), "--sax", str(tmp_path / "J.nii"), "--gt-transform",
            str(tmp_path / "gtM.json"), "--mode", "full", "--spec", str(spec), "--config", str(config),
        ]
        with subprocess.Popen(
            rigidda + register, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
        ) as run:
            stdout, stderr = run.communicate(timeout=300)
        assert run.returncode == 0, stderr
        assert len(json.loads(stdout)["params"]) == 9
        if Path("/proc").is_dir():
            left = _session_pids(run.pid)
            for pid in left:
                os.kill(pid, signal.SIGKILL)
            assert left == []


@functools.cache
def _apex_pair():
    """Criterion 5's apex draw 0: 48^3 in seven slabs, a first view of 12 mm slices;
    the forward fixed mask is zero on slabs 0-1, the backward one on slabs 5-6."""
    pair, _, task = apex_case(0)
    return pair, task


class TestTermsOutsideTheFixedView:
    """Cycle terms whose slab of the fixed mask is all zero are not computed,
    and the loss and gradient keep every bit of the loop over every term."""

    @pytest.mark.parametrize("worker", [False, pytest.param(True, marks=needs_two_cpus)], ids=["one CPU", "worker"])
    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_bits_equal_the_loop_over_every_term(self, mode, worker, monkeypatch):
        if not worker:
            force_one_cpu(monkeypatch)
        pair, task = _apex_pair()
        args = (pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1), mode)
        obj, serial = PairObjective(*args), SerialSlabObjective(*args)
        assert obj.n_slabs == 7
        assert obj.outside == [2, 2][: 1 if mode == "baseline" else 2]
        rng = np.random.default_rng(3)
        vecs = [np.zeros(9)] + [np.concatenate([rng.uniform(-0.2, 0.2, 3), rng.uniform(-0.1, 0.1, 6)]) for _ in range(2)]
        with engine._worker_for(obj) as slab_worker:
            for vec in vecs:
                _assert_same_bits(obj(vec, slab_worker), serial(vec))
        assert (slab_worker is not None) == worker

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_terms_hold_only_work(self, mode):
        """No cycle term is kept outside the fixed view, and a slab's forward and
        backward terms share one coordinate array, which is not copied per term."""
        pair, task = _apex_pair()
        obj = PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1), mode)
        branches = 1 if mode == "baseline" else 2
        cycle = [term for term in obj.terms if term.task is None]
        assert all(np.any(term.mask) for term in cycle)
        assert len(cycle) == obj.n_slabs * branches - sum(obj.outside)
        # slabs 2-4 have both cycle terms; 0-1 only the backward one, 5-6 only the forward one
        pairs = [(a, b) for a, b in zip(obj.terms, obj.terms[1:]) if (a.matrix, b.matrix) == ("m", "m_inv")]
        assert len(pairs) == (0 if mode == "baseline" else 3)
        assert all(a.coords is b.coords for a, b in pairs)
        assert len({id(term.coords) for term in cycle}) == (5 if mode == "baseline" else 7)

    @pytest.mark.parametrize("mode, warps", [("baseline", 5), ("cycle", 10), ("full", 17)])
    def test_warps_per_step(self, mode, warps, one_cpu, monkeypatch):
        """5 forward and 5 backward warps of 7 slabs, plus 7 focus warps in full mode."""
        pair, task = _apex_pair()
        calls = Counter()

        def counted(src, m, *rest):
            calls[id(m)] += 1  # one key each for M, M^-1 and M_t
            return transform_volume_with_tape(src, m, *rest)

        monkeypatch.setattr(engine, "transform_volume_with_tape", counted)
        obj = PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1), mode)
        for vec in (np.zeros(9), np.full(9, 0.05)):
            calls.clear()
            obj(vec)
            assert sum(calls.values()) == warps
            assert sorted(calls.values()) == sorted([5] * len(obj.outside) + [7] * (mode == "full"))

    @pytest.mark.parametrize(
        "mode, line",
        [
            ("baseline", "baseline objective: forward 2/7 slabs outside the fixed view"),
            (
                "full",
                "full objective: forward 2/7, backward 2/7 slabs outside the fixed view, "
                "focus on 7/7 slabs, 24.1 % of the grid",
            ),
        ],
        ids=["baseline", "full"],
    )
    def test_register_pair_logs_the_skipped_slabs_once(self, mode, line, caplog):
        pair, task = _apex_pair()
        cfg = OptimConfig(lr0=0.02, epoch_steps=2, max_steps=4)
        with caplog.at_level(logging.INFO, logger="rigidda"):
            register_pair(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1), cfg, mode=mode)
        lines = [r.getMessage() for r in caplog.records if r.name == "rigidda.engine"]
        assert [x for x in lines if "outside the fixed view" in x] == [line]


class TestSlabWorker:
    """The objective's worker process never outlives its block or its parent."""

    pytestmark = [needs_two_cpus, pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")]

    @staticmethod
    def _args(task=lambda seg: seg):
        """A pair of three slabs with its segmenter, wrapped by ``task``, and the loss weights."""
        pair, seg = pair_on((40, 40, 23))
        return pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task(seg), LossWeights(tau=0.1)

    def test_no_process_remains_after_register_pair(self, monkeypatch):
        started = []

        class Recorded(engine._SlabWorker):
            def __init__(self, objective):
                super().__init__(objective)
                started.append(self.process.pid)

        monkeypatch.setattr(engine, "_SlabWorker", Recorded)
        before = _child_pids()
        cfg = OptimConfig(lr0=0.02, epoch_steps=2, max_steps=4)
        register_pair(*self._args(), cfg, mode="full")
        assert len(started) == 1
        assert _child_pids() == before
        caller = os.getpid()
        with pytest.raises(NumericalError, match="slab failed at z0=10$"):
            register_pair(*self._args(lambda seg: FailingTask(seg, lambda z0: os.getpid() != caller)), cfg, mode="full")
        assert len(started) == 2
        assert _child_pids() == before

    def test_no_thread_of_the_package_runs_when_register_pair_forks(self, monkeypatch):
        threads_at_fork = []

        class Recorded(engine._SlabWorker):
            def __init__(self, objective):
                threads_at_fork.append([t.name for t in threading.enumerate() if t.name.startswith("rigidda-slab")])
                super().__init__(objective)

        monkeypatch.setattr(engine, "_SlabWorker", Recorded)
        register_pair(*self._args(), OptimConfig(lr0=0.02, epoch_steps=2, max_steps=4), mode="full")
        assert threads_at_fork == [[]]

    def test_a_block_left_by_keyboard_interrupt_reaps_its_worker(self):
        args = (*self._args(), "full")
        obj, serial = PairObjective(*args), SerialSlabObjective(*args)
        before = _child_pids()
        vec = np.full(9, 0.05)
        with pytest.raises(KeyboardInterrupt), engine._SlabWorker(obj) as worker:
            obj(vec, worker)
            assert _child_pids() == before | {worker.process.pid}
            raise KeyboardInterrupt
        assert _child_pids() == before
        _assert_same_bits(obj(vec, worker), serial(vec))  # a closed worker leaves the step to the caller

    def test_an_interrupt_in_the_callers_share_closes_the_worker(self, monkeypatch):
        """A later call with the worker never reads the reply that the interrupted call left unread."""
        args = (*self._args(), "full")
        obj, serial = PairObjective(*args), SerialSlabObjective(*args)
        before = _child_pids()
        share = obj._share

        def interrupted(first, mats, jac):
            if first == 0:
                raise KeyboardInterrupt
            return share(first, mats, jac)

        with engine._SlabWorker(obj) as worker:
            monkeypatch.setattr(obj, "_share", interrupted)
            with pytest.raises(KeyboardInterrupt):
                obj(np.full(9, 0.05), worker)
            assert not worker.process.is_alive()
            monkeypatch.undo()
            vec = np.full(9, -0.02)
            _assert_same_bits(obj(vec, worker), serial(vec))
        assert _child_pids() == before

    def test_a_killed_worker_is_replaced_by_the_caller(self):
        args = (*self._args(), "full")
        obj, serial = PairObjective(*args), SerialSlabObjective(*args)
        before = _child_pids()
        vec = np.full(9, 0.05)
        with engine._SlabWorker(obj) as worker:
            obj(vec, worker)
            os.kill(worker.process.pid, signal.SIGKILL)
            _assert_same_bits(obj(vec, worker), serial(vec))
            assert _child_pids() == before  # reaped, not a zombie
            assert not worker.process.is_alive()
            vec = np.full(9, -0.02)
            _assert_same_bits(obj(vec, worker), serial(vec))  # the caller again: no new worker
            assert _child_pids() == before
        assert _child_pids() == before

    def test_the_worker_exits_when_its_parent_is_killed(self):
        tests = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
        script = (
            "import time, numpy as np\n"
            "from conftest import pair_on\n"
            "from rigidda.engine import PairObjective, _SlabWorker\n"
            "from rigidda.losses import LossWeights\n"
            "pair, _ = pair_on((40, 40, 23))\n"
            "obj = PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, None, LossWeights(), 'baseline')\n"
            "with _SlabWorker(obj) as worker:\n"
            "    obj(np.zeros(9), worker)\n"
            "    print(worker.process.pid, flush=True)\n"
            "    time.sleep(300)\n"
        )
        with subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True) as parent:
            try:
                worker = int(parent.stdout.readline())
            finally:
                parent.kill()
            parent.wait(timeout=30)
        deadline = time.monotonic() + 30
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphaned = _running(worker)
        if orphaned:
            os.kill(worker, signal.SIGKILL)
        assert not orphaned


def _stat_fields(pid) -> list[str] | None:
    """The fields of /proc/<pid>/stat after the command name (state, ppid, pgrp, session, ...), or None."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _child_pids() -> set[int]:
    """This process's children, zombies included."""
    me = str(os.getpid())
    return {int(e) for e in os.listdir("/proc") if e.isdigit() and (_stat_fields(e) or [None, None])[1] == me}


def _session_pids(sid: int) -> list[int]:
    return [int(e) for e in os.listdir("/proc") if e.isdigit() and (_stat_fields(e) or [None] * 4)[3] == str(sid)]


def _running(pid: int) -> bool:
    """The process exists and is not a zombie."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _load_benchmark_tracer():
    """perfbench/tracer.py, imported from its file; the benchmark is only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracedLookupSites:
    """The traced benchmark wraps functions where the program looks them up.

    A site that disappears makes ``Tracer.install`` raise ``KeyError`` and every
    traced unit fail; a site the engine stops calling leaves its per-layer
    figure reading 0.
    """

    def test_every_site_exists_and_install_round_trips(self):
        tracer_mod = _load_benchmark_tracer()
        sites = tracer_mod._sites()
        originals = [owner.__dict__[attr] for owner, attr, _, _ in sites]
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            for owner, attr, _, _ in sites:
                assert getattr(owner.__dict__[attr], "__wrapped__", None) is not None
        finally:
            tracer.remove()
        assert [owner.__dict__[attr] for owner, attr, _, _ in sites] == originals

    def test_full_step_calls_every_objective_layer(self):
        tracer_mod = _load_benchmark_tracer()
        pair, task = pair_on((17, 13, 11))
        obj = PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1), "full")
        n_slabs = obj.n_slabs
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            tracer.unit = ("unit", "probe")
            obj(np.full(9, 0.05))
        finally:
            tracer.unit = None
            tracer.remove()
        calls = Counter(tracer.names)
        assert calls["engine.step.full"] == 1
        for name in (
            "resampler.transform_volume_with_tape",
            "interp.trilinear_with_grad",
            "resampler.SampleTape.vjp",
        ):
            assert calls[name] == 3 * n_slabs, name
        assert calls["phantom.AnalyticSegmenter.evaluate"] == n_slabs
        assert calls["phantom.AnalyticSegmenter.gradient"] == n_slabs
        # focus_exact, focus_smooth and focus_smooth_upstream, once per slab each
        assert calls["losses.focus"] == 3 * n_slabs
        assert calls["rigid.euler_to_affine"] == calls["rigid.affine_jacobian"] == 1

    @staticmethod
    def _traced_apply_task():
        """The tracer after one apply_task at 40 x 40 x 23, and the samples the
        intensity warp draws per slab: the area of the task's window times the
        slab's depth, for the slabs that have a window."""
        tracer = _load_benchmark_tracer().Tracer()
        pair, task = pair_on((40, 40, 23))
        samples = []
        # slices 0:10, 10:20 and 20:23 of 40 x 40
        for z0, z1 in slab_bounds(pair.i.geometry.shape):
            window = task.support(z0, z1)
            if window is not None:
                x0, x1, y0, y1 = window
                samples.append((x1 - x0) * (y1 - y0) * (z1 - z0))
        tracer.install()
        try:
            tracer.unit = ("unit", "probe")
            pipeline.apply_task(pair.i, RigidParams.from_vector(np.full(9, 0.05)), task)
        finally:
            tracer.unit = None
            tracer.remove()
        return tracer, samples

    def test_label_warp_samples_through_the_traced_kernel(self, one_cpu):
        """The intensity warp samples each slab's window through the traced kernel;
        the label warp walks its cells itself, once per slab for all channels."""
        tracer, samples = self._traced_apply_task()
        calls = Counter(tracer.names)
        assert calls["resampler.transform_volume"] == calls["resampler.transform_labels"] == 1
        warp = tracer.names.index("resampler.transform_volume")
        kernel = [k for k, name in enumerate(tracer.names) if name == "interp.trilinear"]
        # one call per slab of slab_bounds that has a window
        assert all(tracer.parents[k] == warp for k in kernel)
        assert [tracer.counts[k][0] for k in kernel] == samples

    def test_two_thread_apply_task_records_every_span(self):
        """On two threads the spans are the same, in any order. The tracer keeps
        one span stack for all threads, so parents and order are not checked."""
        tracer, samples = self._traced_apply_task()
        calls = Counter(tracer.names)
        for name in ("pipeline.apply_task", "resampler.transform_volume", "resampler.transform_labels",
                     "metrics.postprocess_labels", "rigid.euler_to_affine"):
            assert calls[name] == 1, name
        assert calls["phantom.AnalyticSegmenter.evaluate"] == len(samples)
        kernel = [k for k, name in enumerate(tracer.names) if name == "interp.trilinear"]
        assert sorted(tracer.counts[k][0] for k in kernel) == sorted(samples)


class TestProgressLog:
    def test_register_pair_logs_each_epoch_and_the_run(self, caplog):
        spec, pair = _small_pair()
        cfg = OptimConfig(lr0=0.02, epoch_steps=5, max_steps=15, seed=3)
        with caplog.at_level(logging.INFO, logger="rigidda"):
            _, trace = register_pair(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, None, LossWeights(), cfg, mode="cycle")
        lines = [r.getMessage() for r in caplog.records if r.name == "rigidda.engine"]
        assert len(trace.rows) == 15
        assert lines[0] == "cycle objective: forward 0/1, backward 0/1 slabs outside the fixed view"
        assert [line.split(":")[0] for line in lines[1:-1]] == ["epoch 1", "epoch 2", "epoch 3"]
        first = np.mean([r.report.total for r in trace.rows[:5]])
        assert lines[1] == f"epoch 1: mean loss {first:.6g}, lr {0.02:.3g}"
        best = min(r.report.total for r in trace.rows)
        assert lines[-1] == f"cycle registration: 15 steps, stopped by max_steps, best loss {best:.6g}"

    def test_register_pair_names_the_focus_slabs(self, caplog):
        pair, task = pair_on((64, 64, 64))
        cfg = OptimConfig(lr0=0.02, epoch_steps=2, max_steps=2)
        with caplog.at_level(logging.INFO, logger="rigidda"):
            register_pair(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, LossWeights(tau=0.1), cfg, mode="full")
        lines = [r.getMessage() for r in caplog.records if r.name == "rigidda.engine"]
        assert lines[0] == (
            "full objective: forward 0/16, backward 0/16 slabs outside the fixed view, "
            "focus on 14/16 slabs, 22.4 % of the grid"
        )

    def test_early_stop_is_named(self, caplog):
        spec, pair = _small_pair()
        # a gain threshold no epoch can meet stops the run after stop_patience + 1 epochs
        cfg = OptimConfig(lr0=0.02, epoch_steps=2, stop_patience=1, max_steps=50, min_delta=1e9)
        with caplog.at_level(logging.INFO, logger="rigidda"):
            _, trace = register_pair(pair.i, None, pair.gt_m, None, None, LossWeights(), cfg, mode="baseline")
        assert len(trace.rows) < 50
        last = [r.getMessage() for r in caplog.records if r.name == "rigidda.engine"][-1]
        assert f"{len(trace.rows)} steps, stopped by early stop" in last
