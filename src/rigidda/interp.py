"""Trilinear interpolation on voxel-index coordinates.

Conventions shared by the resampler and the preprocessing code:

* index coordinate ``i`` along an axis with ``n`` voxels is continuous in
  ``[0, n - 1]``; integer values hit voxel centers exactly,
* the interpolation cell at an exact lattice point is the *left* cell, so
  the derivative there is the left-sided subgradient,
* neighbors requested outside the array are clamped to the edge voxel.
"""

from __future__ import annotations

import numpy as np


def _cell_indices(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Left cell index i0 in [0, n-2] and fractional offset for each sample."""
    i0 = np.clip(np.ceil(idx) - 1.0, 0.0, max(n - 2, 0)).astype(np.intp)
    frac = idx - i0
    return i0, frac


def _gather_corners(data: np.ndarray, ix, iy, iz):
    """Cell corner values and fractional offsets for each sample.

    Corners are fetched from the raveled array with a single flat base
    index; the left-cell convention guarantees i0 + 1 stays in bounds on
    every axis with at least two voxels. Single-voxel axes fall back to
    a degenerate cell whose two corners coincide.
    """
    w, h, d = data.shape
    x0, fx = _cell_indices(np.clip(ix, 0.0, w - 1.0), w)
    y0, fy = _cell_indices(np.clip(iy, 0.0, h - 1.0), h)
    z0, fz = _cell_indices(np.clip(iz, 0.0, d - 1.0), d)
    sx = h * d if w > 1 else 0
    sy = d if h > 1 else 0
    sz = 1 if d > 1 else 0
    flat = (x0 * h + y0) * d + z0
    r = np.ascontiguousarray(data).reshape(-1)
    corners = (
        r.take(flat),
        r.take(flat + sx),
        r.take(flat + sy),
        r.take(flat + sx + sy),
        r.take(flat + sz),
        r.take(flat + sx + sz),
        r.take(flat + sy + sz),
        r.take(flat + sx + sy + sz),
    )
    return corners, fx, fy, fz


def trilinear(data: np.ndarray, ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Sample ``data`` (shape (W, H, D)) at continuous index coordinates.

    Coordinates outside the grid are clamped to the edge; callers decide
    separately which samples count as in-bounds.
    """
    (c000, c100, c010, c110, c001, c101, c011, c111), fx, fy, fz = _gather_corners(
        data, ix, iy, iz
    )
    # two-coefficient lerps stay bit-exact at frac 0 and 1 (lattice points)
    gx = 1.0 - fx
    gy = 1.0 - fy
    c00 = c000 * gx + c100 * fx
    c10 = c010 * gx + c110 * fx
    c01 = c001 * gx + c101 * fx
    c11 = c011 * gx + c111 * fx
    c0 = c00 * gy + c10 * fy
    c1 = c01 * gy + c11 * fy
    return c0 * (1.0 - fz) + c1 * fz


def _corner_block(data: np.ndarray, ix, iy, iz):
    """All eight cell corners as one (8, N) block, plus (3, N) fractions and their complements.

    The block version of ``_gather_corners`` for slab-sized inputs: the cell
    indices and fractions of the three axes come from one (3, N) pass and
    the corners from one ``take`` of an (8, N) index block. Whole-grid
    sampling keeps ``_gather_corners``, since an (8, N) block over a whole
    grid raises the peak memory of the untaped warps. Corners are
    ordered z-face first, then x, then y: rows 0-3 are the z0 face
    (x0y0, x0y1, x1y0, x1y1) and rows 4-7 the z1 face in the same order.
    """
    w, h, d = data.shape
    frac = np.empty((3, ix.size))
    for row, v, n in zip(frac, (ix, iy, iz), data.shape):
        np.clip(v, 0.0, n - 1.0, out=row)
    # the left cell index, as whole floats; as in _cell_indices
    i0 = np.ceil(frac)
    i0 -= 1.0
    np.clip(i0, 0.0, np.maximum(np.asarray(data.shape, dtype=float) - 2.0, 0.0)[:, None], out=i0)
    frac -= i0
    # flat index of the base corner; exact in float64 far beyond any grid size
    flat = ((i0[0] * h + i0[1]) * d + i0[2]).astype(np.intp)
    sx = h * d if w > 1 else 0
    sy = d if h > 1 else 0
    sz = 1 if d > 1 else 0
    offsets = np.array([0, sy, sx, sx + sy, sz, sy + sz, sx + sz, sx + sy + sz], dtype=np.intp)
    corners = np.ascontiguousarray(data).reshape(-1).take(flat + offsets[:, None])
    return corners, frac, 1.0 - frac


def _lerp(lo, hi, g, f, out=None):
    """``lo * g + hi * f`` with g = 1 - f: bit-exact at f = 0 and f = 1 (lattice points)."""
    out = np.multiply(lo, g, out=out)
    out += hi * f
    return out


def trilinear_with_grad(
    data: np.ndarray, ix: np.ndarray, iy: np.ndarray, iz: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Value (N,) and its (3, N) derivatives with respect to the index coordinates.

    Meant for slab-sized inputs: every temporary is a block of up to eight
    rows of N samples.
    """
    corners, (fx, fy, fz), (gx, gy, gz) = _corner_block(data, ix, iy, iz)
    lo, hi = corners[:4], corners[4:]
    # lerp along z first, then x, then y
    e = _lerp(lo, hi, gz, fz)  # e00, e01, e10, e11 (x, y)
    dzc = np.subtract(hi, lo, out=hi)  # the z differences, same order
    a = _lerp(e[:2], e[2:], gx, fx)  # a0, a1 (y)
    b = _lerp(dzc[:2], dzc[2:], gx, fx)  # xy-bilinear of the z differences
    ex = np.subtract(e[2:], e[:2], out=e[2:])  # x differences at y0 and y1
    value = _lerp(a[0], a[1], gy, fy)
    grad = np.empty((3, value.size))
    _lerp(ex[0], ex[1], gy, fy, out=grad[0])
    np.subtract(a[1], a[0], out=grad[1])
    _lerp(b[0], b[1], gy, fy, out=grad[2])
    return value, grad
