"""Trilinear interpolation on voxel-index coordinates.

Conventions shared by the resampler and the preprocessing code:

* index coordinate ``i`` along an axis with ``n`` voxels is continuous in
  ``[0, n - 1]``; integer values hit voxel centers exactly,
* the interpolation cell at an exact lattice point is the *left* cell, so
  the derivative there is the left-sided subgradient,
* neighbors requested outside the array are clamped to the edge voxel.

One routine, ``cell_corners``, finds the cells for every kernel, and
``_corner_block`` adds the gather of their corners. Both work on about
SLAB_VOXELS samples at a time. ``slab_bounds`` cuts a grid into slabs of
whole z slices of that size, the one cut that the warps and the
registration objective share: ``trilinear_with_grad`` is called slab by
slab, and ``trilinear`` walks any set of samples in chunks of SLAB_VOXELS,
so no temporary is larger than eight rows of one slab. ``trilinear_labels``
samples the one-hot channels of a label map, one chunk of samples at a
time: it finds the cells and gathers the labels at their corners once for
all classes, and lerps each class's corners only in the mixed cells. The
label warp and the label preprocessing share it.

``two_thread_map`` runs a list of independent items, such as those slabs,
on the calling thread and one helper thread that lives for the call. The
slab walks and per-class loops of the untaped warps and of task
application go through it, and so do the slab walks of the set-up: the
phantom render with the segmenter's prior, and the isotropic resampling.
Their items write their parts of one output array in place; on one usable
CPU it is the plain loop. The registration objective splits its terms
with a forked worker process instead (``engine.PairObjective``), so that
its numpy calls do not pass the interpreter lock back and forth.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence

import numpy as np

# Samples per slab: 128 KB per float64 array, so a step's temporaries stay
# cache-sized and malloc reuses them, and the slab-sized (3x4)(4xN) and
# (3xN)(Nx4) BLAS products stay below OpenBLAS's threading threshold.
SLAB_VOXELS = 16384


def slab_bounds(shape: tuple[int, int, int]) -> list[tuple[int, int]]:
    """Slice ranges ``(z0, z1)`` of about SLAB_VOXELS voxels covering the grid.

    A slab is never less than one whole slice, so a slice of more than
    SLAB_VOXELS voxels makes a slab of its own.
    """
    w, h, d = shape
    depth = max(1, SLAB_VOXELS // (w * h))
    return [(z0, min(z0 + depth, d)) for z0 in range(0, d, depth)]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def two_thread_map(fn, items: Sequence) -> list:
    """``[fn(x) for x in items]``, run by the calling thread and one helper thread.

    Both threads take the next item from one shared iterator, so an odd item
    count still balances; numpy and scipy release the interpreter lock inside
    their kernels, so the two overlap. Each call starts its own helper, never
    with one item or one usable CPU, and joins it before it returns or
    raises, so no helper outlives its call and a call made from inside an
    item has a helper of its own. An error on either thread stops both from
    taking more items; the caller's is raised before the helper's. Every
    caller has each item write a disjoint part of its output or return its
    own value, so the bytes do not depend on which thread ran which item.
    """
    if len(items) < 2 or _usable_cpus() < 2:
        return [fn(x) for x in items]
    results = [None] * len(items)
    todo = iter(range(len(items)))  # next() on it is one C call, atomic under the GIL
    helper_error = []

    def work():
        try:
            for k in todo:
                results[k] = fn(items[k])
        except BaseException:
            for _ in todo:  # drain it, so the other thread stops after its item
                pass
            raise

    def helper_work():
        try:
            work()
        except BaseException as exc:
            helper_error.append(exc)

    helper = threading.Thread(target=helper_work, name="rigidda-slab")
    helper.start()
    try:
        work()
    finally:
        helper.join()
    if helper_error:
        raise helper_error[0]
    return results


def cell_corners(shape, ix, iy, iz):
    """Flat indices of all eight cell corners as one (8, N) block, plus (3, N) fractions and their complements.

    The cell indices and fractions of the three axes come from one (3, N)
    pass, so N should be at most SLAB_VOXELS. The left-cell convention keeps
    i0 + 1 in bounds on every axis with at least two voxels; a single-voxel
    axis gets a degenerate cell whose two corners coincide. Corners are
    ordered z-face first, then x, then y: rows 0-3 are the z0 face (x0y0,
    x0y1, x1y0, x1y1) and rows 4-7 the z1 face in the same order. The
    indices address the C-order flattening of an array of ``shape``.
    """
    w, h, d = shape
    frac = np.empty((3, ix.size))
    for row, v, n in zip(frac, (ix, iy, iz), shape):
        np.clip(v, 0.0, n - 1.0, out=row)
    # the left cell index, as whole floats
    i0 = np.ceil(frac)
    i0 -= 1.0
    np.clip(i0, 0.0, np.maximum(np.asarray(shape, dtype=float) - 2.0, 0.0)[:, None], out=i0)
    frac -= i0
    # flat index of the base corner; exact in float64 far beyond any grid size
    flat = ((i0[0] * h + i0[1]) * d + i0[2]).astype(np.intp)
    del i0
    sx = h * d if w > 1 else 0
    sy = d if h > 1 else 0
    sz = 1 if d > 1 else 0
    offsets = np.array([0, sy, sx, sx + sy, sz, sy + sz, sx + sz, sx + sy + sz], dtype=np.intp)
    index = flat + offsets[:, None]
    return index, frac, 1.0 - frac


def _corner_block(data: np.ndarray, ix, iy, iz):
    """``cell_corners`` with the corners of ``data`` gathered: one (8, N) ``take``."""
    index, frac, gfrac = cell_corners(data.shape, ix, iy, iz)
    corners = np.ascontiguousarray(data).reshape(-1).take(index)
    del index
    return corners, frac, gfrac


def _lerp(lo, hi, g, f, out=None):
    """``lo * g + hi * f`` with g = 1 - f: bit-exact at f = 0 and f = 1 (lattice points)."""
    out = np.multiply(lo, g, out=out)
    out += hi * f
    return out


def trilinear(data: np.ndarray, ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Sample ``data`` (shape (W, H, D)) at continuous index coordinates.

    The coordinates may have any shape, such as (N,) or a (W', H', D')
    meshgrid; the output has the same shape. Coordinates outside the grid
    are clamped to the edge; callers decide separately which samples count
    as in-bounds. Samples run through ``_corner_block`` in chunks of at most
    SLAB_VOXELS, so a whole-grid warp needs slab-sized temporaries only.
    """
    data = np.ascontiguousarray(data)
    out = np.empty(np.shape(ix))
    flat = out.reshape(-1)
    coords = [np.asarray(c).reshape(-1) for c in (ix, iy, iz)]
    for s0 in range(0, flat.size, SLAB_VOXELS):
        part = slice(s0, s0 + SLAB_VOXELS)
        lerp_corners(*_corner_block(data, *(c[part] for c in coords)), out=flat[part])
    return out


def lerp_corners(corners, frac, gfrac, out=None):
    """Trilinear values from an (8, N) corner block in ``cell_corners``' order.

    Lerps along x first, then y, then z, which is ``trilinear``'s arithmetic
    bit for bit.
    """
    (fx, fy, fz), (gx, gy, gz) = frac, gfrac
    c = corners.reshape(2, 2, 2, -1)  # (z, x, y)
    e = _lerp(c[:, 0], c[:, 1], gx, fx)  # (z, y)
    e = _lerp(e[:, 0], e[:, 1], gy, fy)  # (z)
    return _lerp(e[0], e[1], gz, fz, out=out)


def argmax_channels(channels) -> np.ndarray:
    """Index of the largest of ``channels`` per sample, the lower one on a tie, as int16.

    This is ``np.argmax`` over the stacked channels for any values but NaN,
    with only one channel and the running maximum held at a time.
    """
    for c, value in enumerate(channels):
        if c == 0:
            best, out = np.array(value, dtype=float), np.zeros(np.shape(value), dtype=np.int16)
        else:
            out[value > best] = c
            np.maximum(best, value, out=best)
    return out


def trilinear_labels(labels: np.ndarray, ix, iy, iz, valid, scale: float, classes: int) -> np.ndarray:
    """Class of the largest trilinear sample of the one-hot channels of ``labels``, as int16.

    The channels are ``scale`` where ``labels`` holds the class and 0
    elsewhere, for the classes ``0:classes``; a sample where ``valid`` is
    False, and every sample when ``scale`` is 0, is class 0. Meant for at
    most about SLAB_VOXELS samples: the cells are found and the labels at
    their eight corners gathered once for all classes. A valid sample whose
    eight corners share one label takes it, since that channel lerps to a
    positive value and every other one to exactly 0. Only the mixed cells
    lerp each channel's corners, the class test of their labels, which are
    the values a whole one-hot channel would give, and ``argmax_channels``
    picks the class.
    """
    corners, frac, gfrac = _corner_block(labels, ix, iy, iz)
    uniform = valid & (corners[1:] == corners[0]).all(axis=0) & (scale > 0.0)
    out = np.where(uniform, corners[0], 0).astype(np.int16, copy=False)
    mixed = np.flatnonzero(valid & ~uniform)
    corners, frac, gfrac = corners[:, mixed], frac[:, mixed], gfrac[:, mixed]
    out[mixed] = argmax_channels(lerp_corners((corners == c) * float(scale), frac, gfrac) for c in range(classes))
    return out


def trilinear_with_grad(
    data: np.ndarray, ix: np.ndarray, iy: np.ndarray, iz: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Value (N,) and its (3, N) derivatives with respect to the index coordinates.

    Meant for at most SLAB_VOXELS samples: every temporary is a block of
    up to eight rows of N samples. The value matches ``trilinear``'s to
    rounding only, since it lerps along z first.
    """
    corners, (fx, fy, fz), (gx, gy, gz) = _corner_block(data, ix, iy, iz)
    # every lerp of _lerp's arithmetic, written into buffers that are done with:
    # each hi * f product goes to tmp, each lo * g to lo's own rows
    lo, hi = corners[:4], corners[4:]
    tmp = hi * fz
    dzc = np.subtract(hi, lo, out=hi)  # the z differences, in the order of e
    e = np.multiply(lo, gz, out=lo)
    e += tmp  # lerp along z first: e00, e01, e10, e11 (x, y)
    np.multiply(e[2:], fx, out=tmp[:2])
    np.multiply(dzc[2:], fx, out=tmp[2:])
    ex = np.subtract(e[2:], e[:2], out=e[2:])  # x differences at y0 and y1
    a = np.multiply(e[:2], gx, out=e[:2])
    a += tmp[:2]  # then x: a0, a1 (y)
    b = np.multiply(dzc[:2], gx, out=dzc[:2])
    b += tmp[2:]  # xy-bilinear of the z differences
    # then y
    value = a[0] * gy
    value += np.multiply(a[1], fy, out=tmp[0])
    grad = np.empty((3, value.size))
    np.multiply(ex[0], gy, out=grad[0])
    grad[0] += np.multiply(ex[1], fy, out=tmp[0])
    np.subtract(a[1], a[0], out=grad[1])
    np.multiply(b[0], gy, out=grad[2])
    grad[2] += np.multiply(b[1], fy, out=tmp[0])
    return value, grad
