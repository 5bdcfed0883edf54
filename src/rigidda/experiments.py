"""The experiments of criteria 4 and 5 and of ``rigidda recover``, ``rigidda ablate``
and ``rigidda demo``: the case draws, the preset, and one per-case function per
sweep (``recover``, ``ablate``).

Each draw is seeded by its index alone and defaults to the gate's geometry,
so a sweep run with default flags meets the gate's pairs.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .config import PipelineConfig
from .engine import OptimConfig, register_pair
from .errors import ValidationError
from .losses import LossWeights, focus_exact
from .phantom import AnalyticSegmenter, PhantomPair, PhantomSpec, make_pair, world_rigid
from .pipeline import run_end2end
from .resampler import transform_volume
from .rigid import RigidParams, euler_from_rotation, euler_to_affine
from .volume import FOREGROUND_CLASSES

ABLATION_MODES = ("baseline", "cycle", "full")  # criterion 5's modes, in its ordering


def fast_config(mode: str, seed: int, max_steps: int) -> PipelineConfig:
    """The experiments' preset: a large first step, short epochs and a sharp focus surrogate."""
    optim = OptimConfig(
        seed=seed, lr0=0.02, epoch_steps=10, plateau_patience=3, stop_patience=8, max_steps=max_steps
    )
    return PipelineConfig(mode=mode, weights=LossWeights(tau=0.1), optim=optim)


def recovery_case(
    seed: int, grid: int = 64, iso: float = 1.5, max_rot_deg: float = 30.0, max_trans_mm: float = 15.0
) -> tuple[PhantomPair, PhantomSpec, AnalyticSegmenter]:
    """Criterion-4 draw: two views of the default phantom, offset by up to
    ``max_rot_deg`` per Euler angle and ``max_trans_mm`` per axis.

    ``max_rot_deg`` must lie in [0, 90): a larger theta leaves the range of
    ``euler_from_rotation``, and ``recovery_error`` would misread the exact
    transform as a 180 degree error. ``max_trans_mm`` must be at least 0, and
    the width of its draw range, ``2 * max_trans_mm``, finite.
    """
    if not 0.0 <= max_rot_deg < 90.0:
        raise ValidationError(f"max_rot_deg must be in [0, 90), got {max_rot_deg}")
    if not 0.0 <= 2.0 * max_trans_mm < np.inf:
        raise ValidationError(f"max_trans_mm must be finite and >= 0, and 2 * max_trans_mm finite, got {max_trans_mm}")
    rng = np.random.default_rng(500 + seed)
    bound = np.radians(max_rot_deg)
    angles = rng.uniform(-bound, bound, 3)
    trans = rng.uniform(-max_trans_mm, max_trans_mm, 3)
    spec = PhantomSpec()
    pair = make_pair(spec, world_rigid(tuple(angles), tuple(trans)), grid=(grid,) * 3, iso=iso, seed=seed)
    return pair, spec, AnalyticSegmenter(spec, pair.i.geometry)


def apex_case(
    seed: int, grid: int = 48, iso: float = 2.0, slice_mm: float = 12.0
) -> tuple[PhantomPair, PhantomSpec, AnalyticSegmenter]:
    """Criterion-5 draw: the apex slices pushed off the grid and a first view of
    ``slice_mm`` thick slices, whose forward term carries little through-plane
    information, so each added loss term (backward cycle, then focus) helps.
    """
    rng = np.random.default_rng(1000 + seed)
    angles = rng.uniform(-0.15, 0.15, 3)
    tx, ty = rng.uniform(-4.0, 4.0, 2)
    tz = -(35.0 + rng.uniform(0.0, 5.0))
    spec = PhantomSpec(noise_sigma=0.05)
    rel = world_rigid(tuple(angles), (tx, ty, tz))
    pair = make_pair(spec, rel, grid=(grid,) * 3, iso=iso, seed=seed, ax_spacing=(iso, iso, slice_mm))
    return pair, spec, AnalyticSegmenter(spec, pair.i.geometry)


def demo_offset(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The demo draw's world offset: Euler angles of up to 0.3 rad and a translation of up to 8 mm."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.3, 0.3, 3), rng.uniform(-8.0, 8.0, 3)


def demo_case(seed: int, grid: int, iso: float) -> tuple[PhantomPair, PhantomSpec, AnalyticSegmenter]:
    """``rigidda demo``'s draw: two views of the default phantom offset by ``demo_offset(seed)``."""
    angles, trans = demo_offset(seed)
    spec = PhantomSpec()
    pair = make_pair(spec, world_rigid(tuple(angles), tuple(trans)), grid=(grid,) * 3, iso=iso, seed=seed)
    return pair, spec, AnalyticSegmenter(spec, pair.i.geometry)


def recovery_error(pair: PhantomPair, params: RigidParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis errors of a registration against the pair's ground truth:
    Euler angles in degrees and translation in voxels of the first view's grid."""
    gt_angles = np.asarray(euler_from_rotation(pair.gt_m[:3, :3]))
    ang_err = np.degrees(np.abs(gt_angles - params.angles))
    shape = np.asarray(pair.i.geometry.shape)
    t_err = np.abs(euler_to_affine(params).m[:3, 3] - pair.gt_m[:3, 3]) * (shape - 1) / 2.0
    return ang_err, t_err


class Recovery(NamedTuple):
    """``recovery_error``'s per-axis errors, the steps taken and ``register_pair``'s wall time in s."""
    ang_err: np.ndarray
    t_err: np.ndarray
    steps: int
    seconds: float


def recover(seed: int, max_steps: int = 350, **draw) -> Recovery:
    """Register ``recovery_case(seed, **draw)`` in full mode with the preset."""
    config = fast_config("full", seed, max_steps)
    pair, _, task = recovery_case(seed, **draw)
    start = time.perf_counter()
    params, trace = register_pair(
        pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, config.weights, config.optim, mode=config.mode
    )
    seconds = time.perf_counter() - start
    return Recovery(*recovery_error(pair, params), len(trace.rows), seconds)


class Ablation(NamedTuple):
    """One mode's LV/MYO/RV Dice (0.0 for None), exact focus loss of ``pair.i`` warped by M_t
    at the preset's threshold r, steps."""
    dice: np.ndarray
    focus: float
    steps: int


def ablate(seed: int, max_steps: int = 100, **draw) -> dict[str, Ablation]:
    """Run ``apex_case(seed, **draw)`` end to end in each of ``ABLATION_MODES`` with the preset."""
    pair, _, task = apex_case(seed, **draw)
    out = {}
    for mode in ABLATION_MODES:
        config = fast_config(mode, seed, max_steps)
        result = run_end2end(pair, task, config)
        dice = np.array([result.report.per_class[c].dice or 0.0 for c in FOREGROUND_CLASSES])
        warped = transform_volume(pair.i, euler_to_affine(result.params).m_t, pair.i.geometry)
        out[mode] = Ablation(dice, focus_exact(task.evaluate(warped.image), config.weights.r), len(result.trace.rows))
    return out
