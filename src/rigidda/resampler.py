"""Differentiable pull-based resampling of volumes and label maps.

Each target voxel's normalized coordinate is mapped through the affine
matrix into the source's normalized frame and the source is sampled with
trilinear interpolation. Samples whose mapped coordinate leaves [-1, 1]
on any axis are zero-filled and flagged invalid.

The target is cut one way only, into the slabs of whole z slices of
``slab_bounds``; ``target_coords`` builds a slab's coordinates from the
grid's axes. The registration objective warps the same slabs on its tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .interp import cell_corners, lerp_corners, slab_bounds, trilinear, trilinear_with_grad
from .volume import GridGeometry, LabelVolume, Volume, argmax_labels

_BOUNDS_EPS = 1e-12


@dataclass(frozen=True)
class SampleResult:
    """Resampled image plus the validity mask V of in-bounds source samples."""

    image: Volume
    validity: np.ndarray

    def __post_init__(self):
        validity = np.ascontiguousarray(np.asarray(self.validity, dtype=np.float64))
        validity.flags.writeable = False
        object.__setattr__(self, "validity", validity)


def target_coords(target: GridGeometry, z0: int = 0, z1: int | None = None) -> np.ndarray:
    """Homogeneous normalized coordinates (4, n) of the target's whole slices z0:z1, by default all.

    The axes broadcast into the slab's C order, so a slab's BLAS product is
    bit-equal to the same columns of the whole grid's.
    """
    ax, ay, az = target.normalized_axes()
    az = az[z0:z1]
    coords = np.empty((4, ax.size, ay.size, az.size))
    coords[0] = ax[:, None, None]
    coords[1] = ay[:, None]
    coords[2] = az
    coords[3] = 1.0
    return coords.reshape(4, -1)


def _index_scale(src_shape) -> np.ndarray:
    """d(index coordinate)/d(normalized coordinate) per axis."""
    return (np.asarray(src_shape, dtype=float) - 1.0) / 2.0


def _source_samples(src_shape, m: np.ndarray, coords: np.ndarray):
    idx = m[:3, :] @ coords
    valid = np.all(np.abs(idx) <= 1.0 + _BOUNDS_EPS, axis=0)
    idx += 1.0
    idx *= _index_scale(src_shape)[:, None]
    # snap float residue at the lattice so the identity transform is exact
    nearest = np.rint(idx)
    off = idx - nearest
    np.abs(off, out=off)
    np.copyto(idx, nearest, where=off < 1e-9)
    return idx, valid


def transform_volume(src: Volume, m: np.ndarray, target: GridGeometry) -> SampleResult:
    """Pull-warp ``src`` onto ``target`` under the normalized-space affine ``m``.

    The target is mapped and sampled slab by slab (``slab_bounds``), so apart
    from the output no temporary is larger than one slab.
    """
    values = np.empty(target.shape)
    valid = np.empty(target.shape, dtype=bool)
    w, h, _ = target.shape
    for z0, z1 in slab_bounds(target.shape):
        idx, in_bounds = _source_samples(src.geometry.shape, m, target_coords(target, z0, z1))
        values[..., z0:z1] = np.where(in_bounds, trilinear(src.data, idx[0], idx[1], idx[2]), 0.0).reshape(w, h, -1)
        valid[..., z0:z1] = in_bounds.reshape(w, h, -1)
    return SampleResult(image=Volume.trusted(target, values), validity=valid.astype(np.float64))


def transform_labels(
    src: LabelVolume,
    m: np.ndarray,
    target: GridGeometry,
    scale: float = 100.0,
) -> LabelVolume:
    """Pull-warp a label map: ``argmax_labels`` over the scaled one-hot channels.

    Each channel is warped with trilinear interpolation. Out-of-bounds samples
    are zero in every channel, so they are background, and ``scale = 0``
    makes every sample background. A negative, non-finite or subnormal
    ``scale`` raises ``ValidationError``. Per slab of whole target slices
    (``slab_bounds``) the cells are found once and the labels at their eight
    corners gathered once. A valid sample whose eight corners share one label
    takes it: that channel lerps to a positive value and every other one to
    exactly 0. Only the mixed cells lerp each channel's corners, the class test of
    their labels, which are the values a whole one-hot channel would give.
    """
    scale = float(scale)
    if not (scale == 0.0 or np.finfo(float).tiny <= scale < np.inf):
        raise ValidationError(f"label scale must be 0 or a positive normal float, got {scale}")
    labels = src.data.reshape(-1)
    out = np.empty(target.shape, dtype=np.int16)
    w, h, _ = target.shape
    for z0, z1 in slab_bounds(target.shape):
        idx, valid = _source_samples(src.geometry.shape, m, target_coords(target, z0, z1))
        index, frac, gfrac = cell_corners(src.geometry.shape, *idx)
        corners = labels.take(index)
        # scale 0 makes every channel 0 and every sample background
        uniform = valid & (corners[1:] == corners[0]).all(axis=0) & (scale > 0.0)
        part = np.where(uniform, corners[0], 0)
        mixed = np.flatnonzero(valid & ~uniform)
        frac, gfrac = frac[:, mixed], gfrac[:, mixed]
        part[mixed] = argmax_labels(corners[:, mixed], lambda channel: lerp_corners(channel, frac, gfrac), scale)
        out[..., z0:z1] = part.reshape(w, h, -1)
    return LabelVolume(target, out)


@dataclass(frozen=True)
class SampleTape:
    """Forward sample plus everything needed for the parameter VJP."""

    result: SampleResult
    coords: np.ndarray
    grad_index: np.ndarray  # (3, N) d(value)/d(source index coordinate), not masked
    scale: np.ndarray  # (3,) d(index coordinate)/d(normalized coordinate)

    def vjp(self, d_m_stack: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Accumulate <upstream, d(output)/d(params)> for a (K,4,4) matrix Jacobian.

        ``upstream`` is d(loss)/d(output voxel), flattened or volume-shaped.
        Invalid samples are zero-filled, so they contribute nothing. The sum
        runs over this tape's voxels only, so the parts of a slabbed
        evaluation add up to the whole-grid vector-Jacobian product.
        """
        u = np.asarray(upstream, dtype=float).reshape(-1) * self.result.validity.reshape(-1)
        # ds_k/dp = d_m_stack[k,:3,:] @ coords; contract voxels first (3x4),
        # scale index to normalized derivatives there, then the cheap
        # (K,3,4) x (3,4) contraction
        accum = (self.grad_index * u) @ self.coords.T
        accum *= self.scale[:, None]
        return np.einsum("kij,ij->k", d_m_stack[:, :3, :], accum)


def transform_volume_with_tape(
    src: Volume,
    m: np.ndarray,
    target: GridGeometry,
    coords: np.ndarray | None = None,
) -> SampleTape:
    """Like transform_volume but records the spatial gradients for backprop.

    ``coords`` may be any part of a grid's coordinate columns, such as a slab
    of whole slices, with ``target`` the geometry of those voxels; the
    registration objective warps one slab at a time this way.
    """
    if coords is None:
        coords = target_coords(target)
    idx, valid = _source_samples(src.geometry.shape, m, coords)
    value, grad = trilinear_with_grad(src.data, idx[0], idx[1], idx[2])
    shape = target.shape
    result = SampleResult(
        image=Volume.trusted(target, np.where(valid, value, 0.0).reshape(shape)),
        validity=valid.astype(np.float64).reshape(shape),
    )
    return SampleTape(result=result, coords=coords, grad_index=grad, scale=_index_scale(src.geometry.shape))
