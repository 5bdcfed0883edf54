"""Acceptance gate: ten end-to-end quantitative criteria.

Each test prints exactly one PASS/FAIL line with its headline numbers so a
full run doubles as a release report. Tolerances are part of the contract;
do not loosen them to make a failing build green.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from rigidda.config import PipelineConfig
from rigidda.engine import EarlyStopper, OptimConfig, PlateauScheduler
from rigidda.experiments import ABLATION_MODES, ablate, fast_config, recover
from rigidda.losses import (
    ProbabilityVolume,
    _sigmoid,
    bce,
    ce,
    focus_exact,
    sdl,
    seg_loss,
    soft_dice,
)
from rigidda.metrics import dice3d, hausdorff
from rigidda.phantom import (
    AnalyticSegmenter,
    PhantomSpec,
    generate_phantom,
    make_pair,
    world_rigid,
)
from rigidda.pipeline import run_end2end
from rigidda.resampler import (
    _source_samples,
    target_coords,
    transform_labels,
    transform_volume,
    transform_volume_with_tape,
)
from rigidda.rigid import RigidParams, affine_jacobian, euler_to_affine
from rigidda.volume import GridGeometry, LabelVolume
from conftest import central_difference, gentle_task_spec


def _verdict(num: int, name: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# --------------------------------------------------------------------------
# 1. transform-layer validity
# --------------------------------------------------------------------------


def test_criterion_1_rotation_validity():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    draws = np.hstack(
        [rng.uniform(-np.pi, np.pi, (10_000, 3)), rng.uniform(-1.0, 1.0, (10_000, 6))]
    )
    ms = np.empty((10_000, 4, 4))
    m_invs = np.empty((10_000, 4, 4))
    for k, vec in enumerate(draws):
        mats = euler_to_affine(RigidParams.from_vector(vec))
        ms[k] = mats.m
        m_invs[k] = mats.m_inv
    worst_det = float(np.abs(np.linalg.det(ms[:, :3, :3]) - 1.0).max())
    worst_inv = float(np.abs(ms @ m_invs - np.eye(4)).max())
    elapsed = time.perf_counter() - start
    ok = worst_det < 1e-9 and worst_inv < 1e-9 and elapsed < 1.0
    _verdict(
        1,
        "rotation validity",
        ok,
        f"10^4 draws, |det-1| max {worst_det:.2e}, ‖M·M⁻¹-I‖∞ max {worst_inv:.2e}, {elapsed:.2f}s",
    )


# --------------------------------------------------------------------------
# 2. gradient correctness at non-lattice sample points
# --------------------------------------------------------------------------


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    spec = gentle_task_spec()
    rel = world_rigid((0.15, -0.1, 0.2), (3.0, -2.0, 1.5))
    pair = make_pair(spec, rel, grid=(32, 32, 32), iso=1.5, seed=0)
    g = pair.i.geometry
    task = AnalyticSegmenter(spec, g)
    coords = target_coords(g)
    w = fast_config("full", 0, 1).weights  # the experiments' focus sharpness
    rng = np.random.default_rng(11)
    vec = np.concatenate([rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.15, 0.15, 6)])
    mats = euler_to_affine(RigidParams.from_vector(vec))
    jac = affine_jacobian(RigidParams.from_vector(vec))

    # pick 20 target voxels whose mapped source coordinates sit strictly
    # inside their interpolation cells under every branch matrix, so the
    # h=1e-4 central-difference stencil never crosses a lattice plane
    def non_lattice(m, idx_flat):
        idx, valid = _source_samples(g.shape, m, coords[:, idx_flat])
        frac = idx - np.floor(idx)
        return valid & np.all((frac > 0.05) & (frac < 0.95), axis=0)

    cand = rng.choice(g.num_voxels, 4000, replace=False)
    keep = non_lattice(mats.m, cand) & non_lattice(mats.m_inv, cand) & non_lattice(mats.m_t, cand)
    points = cand[keep][:20]
    assert len(points) == 20

    fixed_fwd = transform_volume(pair.i, pair.gt_m, g)
    fixed_bwd = transform_volume(pair.j, pair.gt_m_inv, g)

    def mse_at(v):
        m = euler_to_affine(RigidParams.from_vector(v)).m
        t = transform_volume(pair.i, m, g)
        d = (t.image.data - fixed_fwd.image.data) * fixed_fwd.validity
        return 0.5 * float(np.mean(d.reshape(-1)[points] ** 2))

    def cycle_at(v):
        ms = euler_to_affine(RigidParams.from_vector(v))
        t2 = transform_volume(pair.j, ms.m_inv, g)
        d2 = (t2.image.data - fixed_bwd.image.data) * fixed_bwd.validity
        return mse_at(v) + 0.5 * float(np.mean(d2.reshape(-1)[points] ** 2))

    def focus_at(v):
        ms = euler_to_affine(RigidParams.from_vector(v))
        t = transform_volume(pair.i, ms.m_t, g)
        fg = task.evaluate(t.image).foreground()[:, points]
        return 1.0 - float(np.mean(_sigmoid((fg - w.r) / w.tau)))

    def grad_mse():
        t = transform_volume_with_tape(pair.i, mats.m, g, coords)
        d = (t.result.image.data - fixed_fwd.image.data) * fixed_fwd.validity
        up = np.zeros(g.num_voxels)
        up[points] = d.reshape(-1)[points] * fixed_fwd.validity.reshape(-1)[points] / len(points)
        return t.vjp(jac.d_m, up)

    def grad_cycle():
        t2 = transform_volume_with_tape(pair.j, mats.m_inv, g, coords)
        d2 = (t2.result.image.data - fixed_bwd.image.data) * fixed_bwd.validity
        up = np.zeros(g.num_voxels)
        up[points] = d2.reshape(-1)[points] * fixed_bwd.validity.reshape(-1)[points] / len(points)
        return grad_mse() + t2.vjp(jac.d_m_inv, up)

    def grad_focus():
        t = transform_volume_with_tape(pair.i, mats.m_t, g, coords)
        q = task.evaluate(t.result.image)
        fg = q.foreground()[:, points]
        s = _sigmoid((fg - w.r) / w.tau)
        up_q = np.zeros_like(q.q)
        for row, c in enumerate((1, 2, 3)):
            up_q[c].reshape(-1)[points] = -(s[row] * (1.0 - s[row])) / (w.tau * s.size)
        return t.vjp(jac.d_m_t, task.gradient(t.result.image, up_q))

    errors = {}
    for name, fn, grad_fn in (
        ("mse", mse_at, grad_mse),
        ("cycle", cycle_at, grad_cycle),
        ("focus", focus_at, grad_focus),
    ):
        fd = central_difference(fn, vec, h=1e-4)
        analytic = grad_fn()
        denom = max(np.abs(analytic).max(), np.abs(fd).max())
        errors[name] = float(np.abs(analytic - fd).max() / denom)
    elapsed = time.perf_counter() - start
    ok = all(e < 1e-3 for e in errors.values()) and elapsed < 30.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in errors.items())
    _verdict(2, "gradient correctness", ok, f"rel err {detail} at 20 points, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. cycle reconstruction
# --------------------------------------------------------------------------


def test_criterion_3_cycle_reconstruction():
    g = GridGeometry.isotropic((64, 64, 64), 1.5)
    vol, _ = generate_phantom(PhantomSpec(noise_sigma=0.0), g)
    span = float(vol.data.max() - vol.data.min())
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        vec = np.zeros(9)
        vec[:3] = rng.uniform(-np.pi / 6, np.pi / 6, 3)
        vec[3:6] = rng.uniform(-0.2, 0.2, 3)
        mats = euler_to_affine(RigidParams.from_vector(vec))
        once = transform_volume(vol, mats.m, g)
        back = transform_volume(once.image, mats.m_inv, g)
        joint = (once.validity > 0) & (back.validity > 0)
        # validity of the first warp, carried through the second warp
        vmask = transform_volume(
            type(vol)(g, once.validity), mats.m_inv, g
        ).image.data
        joint &= vmask > 0.999
        diff = back.image.data[joint] - vol.data[joint]
        worst = max(worst, float(np.sqrt(np.mean(diff**2))) / span)
    ok = worst < 0.02
    _verdict(3, "cycle reconstruction", ok, f"worst RMSE {100*worst:.3f}% of range over 50 rigids")


# --------------------------------------------------------------------------
# 4. transform recovery
# --------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_4_transform_recovery():
    # up to 30 degrees and 15 mm (10 voxels at 1.5 mm) on a 64^3 grid
    runs = [recover(seed) for seed in range(10)]
    successes = sum(bool(np.all(r.ang_err < 2.0) and np.all(r.t_err < 1.0)) for r in runs)
    worst_time = max(r.seconds for r in runs)
    details = [f"{r.ang_err.max():.2f}deg/{r.t_err.max():.2f}vox" for r in runs]
    ok = successes >= 9 and worst_time < 120.0
    _verdict(
        4,
        "transform recovery",
        ok,
        f"{successes}/10 within 2 deg and 1 voxel, worst pair {worst_time:.0f}s "
        f"(per-pair max err: {', '.join(details)})",
    )


# --------------------------------------------------------------------------
# 5. extension ordering on the apex-cropping family
# --------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_extension_ordering():
    runs = [ablate(seed) for seed in range(5)]
    mean_dice = {m: sum(run[m].dice for run in runs) / 5.0 for m in ABLATION_MODES}
    mean_focus = {m: sum(run[m].focus for run in runs) / 5.0 for m in ABLATION_MODES}
    dice_ok = bool(
        np.all(mean_dice["full"] >= mean_dice["cycle"])
        and np.all(mean_dice["cycle"] >= mean_dice["baseline"])
    )
    focus_ok = mean_focus["full"] <= mean_focus["baseline"]
    fmt = lambda v: "/".join(f"{x:.3f}" for x in v)
    _verdict(
        5,
        "extension ordering",
        dice_ok and focus_ok,
        f"mean Dice LV/MYO/RV full {fmt(mean_dice['full'])} >= cycle {fmt(mean_dice['cycle'])} "
        f">= baseline {fmt(mean_dice['baseline'])}; "
        f"focus full {mean_focus['full']:.4f} <= baseline {mean_focus['baseline']:.4f}",
    )


# --------------------------------------------------------------------------
# 6. loss-formula oracles
# --------------------------------------------------------------------------


def test_criterion_6_loss_formula_oracles():
    eps = 1e-7

    def brute_bce(q, g):
        total = 0.0
        for qi, gi in zip(np.ravel(q), np.ravel(g)):
            qi = min(max(qi, eps), 1.0 - eps)
            total += -(gi * math.log(qi) + (1.0 - gi) * math.log(1.0 - qi))
        return total / np.size(q)

    def brute_dice(q, g, smooth=1.0):
        num = sq = sg = 0.0
        for qi, gi in zip(np.ravel(q), np.ravel(g)):
            num += qi * gi
            sq += qi
            sg += gi
        return (2.0 * num + smooth) / (sq + sg + smooth)

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        shape = tuple(rng.integers(2, 5, 3))
        q = rng.uniform(0.0, 1.0, size=(3, *shape))
        g = (rng.uniform(size=(3, *shape)) > 0.5).astype(float)
        worst = max(worst, abs(bce(q[0], g[0]) - brute_bce(q[0], g[0])))
        worst = max(worst, abs(ce(q, g) - np.mean([brute_bce(q[c], g[c]) for c in range(3)])))
        worst = max(worst, abs(soft_dice(q[0], g[0]) - brute_dice(q[0], g[0])))
        worst = max(
            worst,
            abs(sdl(q, g) - (1.0 - np.mean([brute_dice(q[c], g[c]) for c in range(3)]))),
        )
        worst = max(
            worst,
            abs(
                seg_loss(q, g)
                - (
                    0.5 * np.mean([brute_bce(q[c], g[c]) for c in range(3)])
                    + 1.0
                    - np.mean([brute_dice(q[c], g[c]) for c in range(3)])
                )
            ),
        )
        raw = rng.uniform(0.01, 1.0, size=(4, *shape))
        prob = ProbabilityVolume(GridGeometry.isotropic(shape, 1.0), raw / raw.sum(axis=0))
        r = float(rng.uniform(0.1, 0.9))
        count = sum(1 for v in np.ravel(prob.foreground()) if v > r)
        worst = max(worst, abs(focus_exact(prob, r) - (1.0 - count / prob.foreground().size)))
    # both-empty guard: empty prediction and truth give Dice 1, zero loss
    z = np.zeros((2, 2, 2))
    guard_ok = soft_dice(z, z) == 1.0 and sdl(np.zeros((3, 2, 2, 2)), np.zeros((3, 2, 2, 2))) == 0.0
    ok = worst < 1e-10 and guard_ok
    _verdict(6, "loss-formula oracles", ok, f"worst |err| {worst:.2e} on 100 tensors, empty guard {guard_ok}")


# --------------------------------------------------------------------------
# 7. metric oracles
# --------------------------------------------------------------------------


def test_criterion_7_metric_oracles():
    def brute_surface(mask):
        padded = np.pad(mask, 1)
        interior = np.ones_like(mask, dtype=bool)
        for axis in range(3):
            for shift in (1, -1):
                interior &= np.roll(padded, shift, axis=axis)[1:-1, 1:-1, 1:-1]
        return mask & ~interior

    rng = np.random.default_rng(123)
    mismatches = 0
    excluded_ok = True
    numeric_checked = 0
    for trial in range(200):
        shape = tuple(rng.integers(4, 17, 3))
        p_pred = rng.uniform(0.0, 0.4) if trial % 10 else 0.0  # force empty predictions
        pred = rng.uniform(size=shape) < p_pred
        truth = rng.uniform(size=shape) < rng.uniform(0.05, 0.4)
        spacing = rng.uniform(0.5, 3.0, 3)
        inter = int(np.logical_and(pred, truth).sum())
        total = int(pred.sum()) + int(truth.sum())
        dice_oracle = None if total == 0 else 2.0 * inter / total
        if dice3d(pred, truth) != dice_oracle:
            mismatches += 1
        got = hausdorff(pred, truth, spacing)
        if not pred.any() or not truth.any():
            excluded_ok &= got is None
            continue
        pts_p = np.argwhere(brute_surface(pred)) * spacing
        pts_t = np.argwhere(brute_surface(truth)) * spacing
        d = cdist(pts_p, pts_t)
        oracle = max(d.min(axis=1).max(), d.min(axis=0).max())
        numeric_checked += 1
        if got != oracle:
            mismatches += 1
    ok = mismatches == 0 and excluded_ok and numeric_checked > 100
    _verdict(
        7,
        "metric oracles",
        ok,
        f"{mismatches} mismatches over 200 pairs ({numeric_checked} numeric), "
        f"empty-prediction exclusion {excluded_ok}",
    )


# --------------------------------------------------------------------------
# 8. label-resampling safety
# --------------------------------------------------------------------------


def test_criterion_8_label_resampling_safety():
    rng = np.random.default_rng(5)
    g = GridGeometry.isotropic((12, 12, 12), 1.0)
    disjoint = True
    scale_invariant = True
    for _ in range(25):
        labels = LabelVolume(g, rng.integers(0, 4, size=g.shape).astype(np.int16))
        vec = np.zeros(9)
        vec[:3] = rng.uniform(-0.5, 0.5, 3)
        vec[3:6] = rng.uniform(-0.4, 0.4, 3)
        m = euler_to_affine(RigidParams.from_vector(vec)).m
        out1 = transform_labels(labels, m, g, scale=1.0)
        out100 = transform_labels(labels, m, g, scale=100.0)
        disjoint &= bool(np.isin(out1.data, [0, 1, 2, 3]).all())
        scale_invariant &= bool(np.array_equal(out1.data, out100.data))
    ok = disjoint and scale_invariant
    _verdict(
        8,
        "label-resampling safety",
        ok,
        f"disjoint labels {disjoint}, one-hot scale invariance (x1 vs x100) {scale_invariant}",
    )


# --------------------------------------------------------------------------
# 9. scheduler contract
# --------------------------------------------------------------------------


def test_criterion_9_scheduler_contract():
    cfg = OptimConfig(lr0=1e-3, plateau_factor=0.3, lr_min=1e-8, plateau_patience=5, stop_patience=10)
    sched = PlateauScheduler(cfg)
    stopper = EarlyStopper(cfg)
    # improving phase, then a hard plateau; feeding ends when the stopper
    # fires, exactly as in the optimization loop
    losses = [1.0 - 0.1 * k for k in range(5)] + [0.6] * 20
    lrs = []
    stop_at = None
    for epoch, loss in enumerate(losses):
        lrs.append(sched.epoch_end(loss))
        if stopper.epoch_end(loss):
            stop_at = epoch
            break
    decay_epochs = [e for e in range(1, len(lrs) - 1) if lrs[e] != lrs[e - 1]]
    # last improvement is epoch 4; one decay exactly patience epochs later
    one_decay = decay_epochs == [9] and lrs[9] == pytest.approx(1e-3 * 0.3)
    stop_ok = stop_at == 14  # stop_patience flat epochs after the last gain
    floor = PlateauScheduler(OptimConfig(lr0=1e-3, plateau_patience=1, lr_min=1e-8))
    for _ in range(60):
        last = floor.epoch_end(1.0)
    floor_ok = last == 1e-8
    ok = one_decay and stop_ok and floor_ok
    _verdict(
        9,
        "scheduler contract",
        ok,
        f"single x0.3 decay at epoch {decay_epochs}, stop at epoch {stop_at}, floor {last:g}",
    )


# --------------------------------------------------------------------------
# 10. determinism
# --------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    spec = gentle_task_spec()
    rel = world_rigid((0.1, -0.05, 0.08), (2.0, -1.0, 1.5))
    pair = make_pair(spec, rel, grid=(16, 16, 16), iso=3.0, seed=1)
    task = AnalyticSegmenter(spec, pair.i.geometry)
    config = PipelineConfig.from_json(
        json.dumps({"seed": 3, "mode": "full", "optim": {"lr0": 0.02, "epoch_steps": 5, "max_steps": 20}})
    )
    blobs = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        run_end2end(pair, task, config).save(out)
        blobs.append(((out / "trace.csv").read_bytes(), (out / "metrics.json").read_bytes()))
    trace_same = blobs[0][0] == blobs[1][0]
    metrics_same = blobs[0][1] == blobs[1][1]
    ok = trace_same and metrics_same
    _verdict(
        10,
        "determinism",
        ok,
        f"trace CSV byte-identical {trace_same}, metrics JSON byte-identical {metrics_same}",
    )
