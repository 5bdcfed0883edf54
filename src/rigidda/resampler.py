"""Differentiable pull-based resampling of volumes and label maps.

Each target voxel's normalized coordinate is mapped through the affine
matrix into the source's normalized frame and the source is sampled with
trilinear interpolation. Samples whose mapped coordinate leaves [-1, 1]
on any axis are zero-filled and flagged invalid.

The target is cut one way only, into the slabs of whole z slices of
``slab_bounds``; ``target_coords`` builds a slab's coordinates, or those of
an in-plane window of it, from the grid's axes. The untaped warps run
their slabs on two threads (``two_thread_map``), each slab writing its own
part of the output, and the registration objective warps the same slabs
on its tape. The label warp samples only the window of each slab whose
cells can reach the source's foreground (``label_windows``); every other
target voxel is class 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .interp import slab_bounds, slab_windows, trilinear, trilinear_labels, trilinear_with_grad, two_thread_map
from .volume import NUM_CLASSES, GridGeometry, LabelVolume, Volume

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


def target_coords(target: GridGeometry, z0: int = 0, z1: int | None = None, window=None) -> np.ndarray:
    """Homogeneous normalized coordinates (4, n) of the target's whole slices z0:z1, by default all,
    or of their in-plane window ``(x0, x1, y0, y1)``.

    The axes broadcast into the box's C order, so a box's BLAS product is
    bit-equal to the same columns of the whole grid's.
    """
    ax, ay, az = target.normalized_axes()
    az = az[z0:z1]
    if window is not None:
        x0, x1, y0, y1 = window
        ax, ay = ax[x0:x1], ay[y0:y1]
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
    if coords.shape[1] == 1:
        # numpy sends a single column to gemv, whose bits differ from gemm's
        idx = (m[:3, :] @ np.repeat(coords, 2, axis=1))[:, :1]
    else:
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


def transform_volume(src: Volume, m: np.ndarray, target: GridGeometry, windows=None) -> SampleResult:
    """Pull-warp ``src`` onto ``target`` under the normalized-space affine ``m``.

    The target is mapped and sampled slab by slab (``slab_bounds``), two slabs
    at a time (``two_thread_map``), so apart from the output no temporary is
    larger than two slabs. ``windows``, one in-plane window ``(x0, x1, y0,
    y1)`` or None per slab, limits the sampling to those boxes: every other
    voxel reads 0 and invalid.
    """
    values = np.zeros(target.shape)
    valid = np.zeros(target.shape, dtype=bool)

    def slab(item):
        (z0, z1), window = item
        x0, x1, y0, y1 = window
        box = (slice(x0, x1), slice(y0, y1), slice(z0, z1))
        idx, in_bounds = _source_samples(src.geometry.shape, m, target_coords(target, z0, z1, window))
        shape = (x1 - x0, y1 - y0, z1 - z0)
        values[box] = np.where(in_bounds, trilinear(src.data, idx[0], idx[1], idx[2]), 0.0).reshape(shape)
        valid[box] = in_bounds.reshape(shape)

    two_thread_map(slab, slab_windows(target.shape, windows))
    return SampleResult(image=Volume.trusted(target, values), validity=valid.astype(np.float64))


# index units added around the grown foreground box and the target window,
# far above the lattice snap of _source_samples (1e-9) and float rounding
_WINDOW_EPS = 1e-6
# the 12 edges of a box whose vertex k has corner (k >> 2 & 1, k >> 1 & 1, k & 1)
_BOX_EDGES = np.array([(k, k | bit) for bit in (4, 2, 1) for k in range(8) if not k & bit])


def label_windows(src: LabelVolume, m: np.ndarray, target: GridGeometry, scale: float = 100.0) -> list:
    """Per slab of ``slab_bounds(target.shape)``, the in-plane window ``(x0, x1, y0, y1)``
    outside which ``transform_labels`` gives class 0, or None for a slab of class 0.

    A sample's cell corners lie within one voxel of the sample, so a sample
    outside the source's foreground bounding box grown by one voxel has the
    label 0 at all eight corners; an invalid sample is class 0 too. The
    targets whose samples land in that box, cut to the valid range, form
    the box's image under ``m^-1``: a parallelepiped whose part between a
    slab's first and last z plane has its vertices among the
    parallelepiped's own vertices in that range and the points where its 12
    edges cross the two planes. The window bounds those points. A map too
    close to singular to invert reliably gets whole slices.
    """
    az = target.normalized_axes()[2]
    bounds = slab_bounds(target.shape)
    w, h, _ = target.shape
    fg = src.data != 0
    if scale == 0.0 or not fg.any():
        return [None] * len(bounds)
    m = np.asarray(m, dtype=float)
    a, b = m[:3, :3], m[:3, 3]
    if not np.all(np.isfinite(m[:3])):
        return [(0, w, 0, h)] * len(bounds)
    singular = np.linalg.svd(a, compute_uv=False)
    if not singular[-1] > 1e-6 * singular[0]:
        return [(0, w, 0, h)] * len(bounds)
    lo, hi = np.empty(3), np.empty(3)
    for axis in range(3):
        hit = np.flatnonzero(fg.any(axis=tuple(k for k in range(3) if k != axis)))
        lo[axis], hi[axis] = hit[0] - 1.0 - _WINDOW_EPS, hit[-1] + 1.0 + _WINDOW_EPS
    # index to normalized coordinates; a one-voxel axis is cut to the valid range whole
    half = np.maximum(np.asarray(src.geometry.shape, dtype=float) - 1.0, 1.0) / 2.0
    reach = 1.0 + _WINDOW_EPS
    lo, hi = np.maximum(lo / half - 1.0, -reach), np.minimum(hi / half - 1.0, reach)
    corners = np.array([np.where([k >> 2 & 1, k >> 1 & 1, k & 1], hi, lo) for k in range(8)]).T
    vert = np.linalg.solve(a, corners - b[:, None])  # (3, 8) in the target's normalized frame
    p, q = vert[:, _BOX_EDGES[:, 0]], vert[:, _BOX_EDGES[:, 1]]
    dz = q[2] - p[2]
    flat = dz == 0.0  # an edge in a z plane adds nothing its two vertices do not
    # each slab's first and last z plane, as a (slabs, 2, 1) column against the edges
    planes = az[np.array(bounds) - [0, 1]][..., None]
    t = np.divide(planes - p[2], dz, out=np.full(planes.shape[:2] + dz.shape, -1.0), where=~flat)
    inside = (vert[2] >= planes[:, 0]) & (vert[2] <= planes[:, 1])
    keep = np.concatenate([inside, ((t >= 0.0) & (t <= 1.0)).reshape(len(bounds), -1)], axis=1)
    extent = []
    for axis, n in ((0, w), (1, h)):
        crossings = (p[axis] + t * (q[axis] - p[axis])).reshape(len(bounds), -1)
        points = np.concatenate([np.broadcast_to(vert[axis], inside.shape), crossings], axis=1)
        # normalized to index coordinates of the target, then the whole voxels in range
        low = (np.where(keep, points, np.inf).min(axis=1) + 1.0) * (n - 1) / 2.0
        high = (np.where(keep, points, -np.inf).max(axis=1) + 1.0) * (n - 1) / 2.0
        extent += [np.maximum(np.ceil(low - _WINDOW_EPS), 0.0), np.minimum(np.floor(high + _WINDOW_EPS) + 1.0, n)]
    return [
        (int(x0), int(x1), int(y0), int(y1)) if x0 < x1 and y0 < y1 else None
        for x0, x1, y0, y1 in zip(*extent)
    ]


def transform_labels(
    src: LabelVolume,
    m: np.ndarray,
    target: GridGeometry,
    scale: float = 100.0,
) -> LabelVolume:
    """Pull-warp a label map: the argmax over the scaled one-hot channels.

    Each channel is warped with trilinear interpolation. Out-of-bounds samples
    are zero in every channel, so they are background, and ``scale = 0``
    makes every sample background. A negative, non-finite or subnormal
    ``scale`` raises ``ValidationError``. Each slab of whole target slices
    (``slab_bounds``, two at a time through ``two_thread_map``) is sampled
    in its ``label_windows`` window only, by ``trilinear_labels``, which
    finds its cells and gathers their corner labels once for all classes;
    the voxels outside the windows are class 0.
    """
    scale = float(scale)
    if not (scale == 0.0 or np.finfo(float).tiny <= scale < np.inf):
        raise ValidationError(f"label scale must be 0 or a positive normal float, got {scale}")
    out = np.zeros(target.shape, dtype=np.int16)
    windows = label_windows(src, m, target, scale)

    def slab(item):
        (z0, z1), window = item
        x0, x1, y0, y1 = window
        idx, valid = _source_samples(src.geometry.shape, m, target_coords(target, z0, z1, window))
        labels = trilinear_labels(src.data, *idx, valid, scale, NUM_CLASSES)
        out[x0:x1, y0:y1, z0:z1] = labels.reshape(x1 - x0, y1 - y0, -1)

    two_thread_map(slab, slab_windows(target.shape, windows))
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
