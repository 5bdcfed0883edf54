"""The case draws and optimizer preset of criteria 4 and 5 and of ``scripts/``.

Each draw is seeded by its index alone and defaults to the gate's geometry,
so a script run with default flags meets the gate's pairs.
"""

from __future__ import annotations

import numpy as np

from .engine import OptimConfig
from .errors import ValidationError
from .phantom import AnalyticSegmenter, PhantomPair, PhantomSpec, make_pair, world_rigid
from .rigid import RigidParams, euler_from_rotation, euler_to_affine


def fast_optim(seed: int, max_steps: int) -> OptimConfig:
    """The experiments' optimizer preset: a large first step and short epochs."""
    return OptimConfig(
        seed=seed, lr0=0.02, epoch_steps=10, plateau_patience=3, stop_patience=8, max_steps=max_steps
    )


def recovery_case(
    seed: int, grid: int = 64, iso: float = 1.5, max_rot_deg: float = 30.0, max_trans_mm: float = 15.0
) -> tuple[PhantomPair, PhantomSpec, AnalyticSegmenter]:
    """Criterion-4 draw: two views of the default phantom, offset by up to
    ``max_rot_deg`` per Euler angle and ``max_trans_mm`` per axis.

    ``max_rot_deg`` must lie in [0, 90): a larger theta leaves the range of
    ``euler_from_rotation``, and ``recovery_error`` would misread the exact
    transform as a 180 degree error.
    """
    if not 0.0 <= max_rot_deg < 90.0:
        raise ValidationError(f"max_rot_deg must be in [0, 90), got {max_rot_deg}")
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
    information, so each added loss term (backward cycle, then focus) helps."""
    rng = np.random.default_rng(1000 + seed)
    angles = rng.uniform(-0.15, 0.15, 3)
    tx, ty = rng.uniform(-4.0, 4.0, 2)
    tz = -(35.0 + rng.uniform(0.0, 5.0))
    spec = PhantomSpec(noise_sigma=0.05)
    rel = world_rigid(tuple(angles), (tx, ty, tz))
    pair = make_pair(spec, rel, grid=(grid,) * 3, iso=iso, seed=seed, ax_spacing=(iso, iso, slice_mm))
    return pair, spec, AnalyticSegmenter(spec, pair.i.geometry)


def recovery_error(pair: PhantomPair, params: RigidParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis errors of a registration against the pair's ground truth:
    Euler angles in degrees and translation in voxels of the first view's grid."""
    gt_angles = np.asarray(euler_from_rotation(pair.gt_m[:3, :3]))
    ang_err = np.degrees(np.abs(gt_angles - params.angles))
    shape = np.asarray(pair.i.geometry.shape)
    t_err = np.abs(euler_to_affine(params).m[:3, 3] - pair.gt_m[:3, 3]) * (shape - 1) / 2.0
    return ang_err, t_err
