"""Reference implementations of the set-up path, the warps, the task
application and the metrics.

These are the straightforward forms the program replaced with one slab-by-
slab phantom render, one per-class label argmax, chunked warps, a separable
closing and bounding-box metrics: the phantom rendered twice for the
segmenter from whole-grid point arrays, whole stacks of one-hot channels,
``np.argmax`` over them, a float round trip through the padding, warps that
map the whole grid's coordinates at once, a closing that works slice by
slice, a task applied to the whole grid at once, and morphology, surfaces
and Hausdorff trees over the whole grid. The tests hold the program to the
same bytes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from rigidda.interp import argmax_channels, slab_bounds, trilinear
from rigidda.losses import _sigmoid
from rigidda.metrics import ClassMetrics, MetricReport, dice3d
from rigidda.resampler import SampleResult, _source_samples, target_coords
from rigidda.rigid import euler_to_affine
from rigidda.volume import (
    FOREGROUND_CLASSES,
    NUM_CLASSES,
    GridGeometry,
    LabelVolume,
    Volume,
    pad_to_grid,
)


def argmax_labels(labels: np.ndarray, sample, scale: float) -> np.ndarray:
    """Class map of the interpolated one-hot channels of ``labels``, as int16.

    ``sample`` maps one whole channel, ``scale`` where the class is and 0
    elsewhere, to its values at the target samples; ``argmax_channels``
    picks the class.
    """
    return argmax_channels(sample((labels == c) * float(scale)) for c in range(NUM_CLASSES))


def one_hot(labels: np.ndarray) -> np.ndarray:
    """(NUM_CLASSES, W, H, D) float one-hot encoding."""
    return (labels[None, ...] == np.arange(NUM_CLASSES)[:, None, None, None]).astype(float)


def transform_labels(src, m, target, scale=100.0) -> np.ndarray:
    """Stack every interpolated channel, background out of bounds, then argmax."""
    idx, valid = _source_samples(src.geometry.shape, m, target_coords(target))
    channels = one_hot(src.data) * scale
    interpolated = np.stack([trilinear(channels[c], idx[0], idx[1], idx[2]) for c in range(NUM_CLASSES)])
    interpolated[:, ~valid] = 0.0
    interpolated[0, ~valid] = scale
    return np.argmax(interpolated, axis=0).astype(np.int16).reshape(target.shape)


def whole_grid_transform_volume(src, m, target) -> SampleResult:
    """The intensity warp with the whole grid's coordinate map in one product."""
    idx, valid = _source_samples(src.geometry.shape, m, target_coords(target))
    values = np.where(valid, trilinear(src.data, idx[0], idx[1], idx[2]), 0.0)
    return SampleResult(
        image=Volume(target, values.reshape(target.shape)),
        validity=valid.astype(np.float64).reshape(target.shape),
    )


def whole_grid_transform_labels(src, m, target, scale=100.0) -> LabelVolume:
    """The label warp with one whole-grid one-hot channel warped at a time."""
    idx, valid = _source_samples(src.geometry.shape, m, target_coords(target))
    labels = argmax_labels(src.data, lambda channel: np.where(valid, trilinear(channel, *idx), 0.0), scale)
    return LabelVolume(target, labels.reshape(target.shape))


def closing_2d(mask: np.ndarray, k: int = 5) -> np.ndarray:
    """Binary closing of each zero-padded z slice with a k x k square, one slice at a time."""
    mask = np.asarray(mask, dtype=bool)
    pad = k // 2
    structure = np.ones((k, k), dtype=bool)
    out = np.zeros_like(mask)
    for z in range(mask.shape[2]):
        padded = np.pad(mask[:, :, z], pad)
        closed = ndimage.binary_closing(padded, structure=structure)
        out[:, :, z] = closed[pad:-pad, pad:-pad] if pad else closed
    return out


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels the whole-grid 6-connected erosion removes."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return mask
    structure = ndimage.generate_binary_structure(3, 1)
    return mask & ~ndimage.binary_erosion(mask, structure=structure, border_value=0)


def hausdorff(pred: np.ndarray, truth: np.ndarray, spacing) -> float | None:
    """Both trees queried with every surface point of the other mask."""
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if not pred.any() or not truth.any():
        return None
    spacing = np.asarray(spacing, dtype=float)
    pts_p = np.argwhere(surface_voxels(pred)) * spacing
    pts_t = np.argwhere(surface_voxels(truth)) * spacing
    d_pt = cKDTree(pts_t).query(pts_p)[0].max()
    d_tp = cKDTree(pts_p).query(pts_t)[0].max()
    return float(max(d_pt, d_tp))


def largest_cc_3d(mask: np.ndarray) -> np.ndarray:
    """The largest 26-connected component, labelled over the whole grid."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return mask.copy()
    labeled, n = ndimage.label(mask, structure=np.ones((3, 3, 3), dtype=bool))
    if n <= 1:
        return mask.copy()
    sizes = ndimage.sum_labels(mask, labeled, index=np.arange(1, n + 1))
    return labeled == int(np.argmax(sizes)) + 1


def postprocess_labels(pred: LabelVolume, k: int = 5) -> LabelVolume:
    out = np.zeros(pred.geometry.shape, dtype=np.int16)
    for cls in FOREGROUND_CLASSES:
        mask = closing_2d(largest_cc_3d(pred.data == cls), k)
        out[mask & (out == 0)] = cls
    return LabelVolume(pred.geometry, out)


def evaluate_labels(pred: LabelVolume, truth: LabelVolume) -> MetricReport:
    vox_ml = truth.geometry.voxel_volume_mm3 / 1000.0
    per_class = {}
    for cls in FOREGROUND_CLASSES:
        pm, tm = pred.data == cls, truth.data == cls
        hd = hausdorff(pm, tm, truth.geometry.spacing)
        volumes = (float(pm.sum()) * vox_ml, float(tm.sum()) * vox_ml)
        per_class[cls] = ClassMetrics(dice3d(pm, tm), hd, hd is None, *volumes)
    return MetricReport(per_class)


def apply_task(ax: Volume, params, task, post: bool = True) -> LabelVolume:
    """The task run on the whole warped grid, ``np.argmax`` over its stacked
    probabilities, the stacked-channel label warp back and the whole-grid
    post-processing."""
    mats = euler_to_affine(params)
    i_t = whole_grid_transform_volume(ax, mats.m_t, ax.geometry)
    hard = np.argmax(task.evaluate(i_t.image).q, axis=0).astype(np.int16)
    back = LabelVolume(ax.geometry, transform_labels(LabelVolume(ax.geometry, hard), mats.m_t_inv, ax.geometry))
    return postprocess_labels(back) if post else back


def focus_boxes(task, shape, r: float) -> list:
    """Each slab of ``slab_bounds`` with the in-plane box its focus term covers:
    the task's support for r >= 0.5, None where it has none, and whole slices below."""
    whole = (0, shape[0], 0, shape[1])
    return [((z0, z1), task.support(z0, z1) if r >= 0.5 else whole) for z0, z1 in slab_bounds(shape)]


def focus_mask(task, shape, r: float) -> np.ndarray:
    """The (W, H, D) mask of the voxels that the focus term covers."""
    inside = np.zeros(shape, dtype=bool)
    for (z0, z1), box in focus_boxes(task, shape, r):
        if box is not None:
            x0, x1, y0, y1 = box
            inside[x0:x1, y0:y1, z0:z1] = True
    return inside


def focus_terms(q, r: float, tau: float, inside: np.ndarray) -> tuple[float, float]:
    """``focus_exact`` and ``focus_smooth`` of the whole grid's probabilities with only the
    voxels in ``inside`` counted and summed; both still divide by the whole grid's entries."""
    fg = q.q[1:]
    exact = 1.0 - np.count_nonzero((fg > r) & inside) / fg.size
    smooth = 1.0 - float(np.sum(_sigmoid((fg - r) / tau) * inside)) / fg.size
    return exact, smooth


def resample_isotropic(data: np.ndarray, g: GridGeometry, iso: float) -> tuple[np.ndarray, GridGeometry]:
    old_n = np.asarray(g.shape, dtype=float)
    new_shape = tuple(max(2, int(round((n - 1) * sp / iso)) + 1) for n, sp in zip(old_n, g.spacing))
    idx = [np.arange(n) * iso / sp for n, sp in zip(new_shape, g.spacing)]
    out = trilinear(data, *np.meshgrid(*idx, indexing="ij"))
    return out, GridGeometry(new_shape, np.full(3, float(iso)), g.origin, g.direction)


def preprocess_labels(lv, iso, grid) -> tuple[np.ndarray, GridGeometry]:
    """Resample all four channels, stack, argmax, then pad as floats and round."""
    data, g = lv.data, lv.geometry
    if np.any(g.spacing != iso):
        channels = one_hot(data)
        resampled = [resample_isotropic(channels[c], g, iso) for c in range(NUM_CLASSES)]
        data = np.argmax(np.stack([r[0] for r in resampled]), axis=0).astype(np.int16)
        g = resampled[0][1]
    padded = pad_to_grid(Volume(g, data.astype(float)), grid)
    return np.rint(padded.data).astype(np.int16), padded.geometry


def _phantom_points(g: GridGeometry, pose: np.ndarray) -> np.ndarray:
    w, h, d = g.shape
    ix, iy, iz = np.meshgrid(np.arange(w), np.arange(h), np.arange(d), indexing="ij")
    vox = np.stack([ix, iy, iz], axis=-1).reshape(-1, 3).astype(float)
    inv = np.linalg.inv(pose)
    return g.world_from_voxel(vox) @ inv[:3, :3].T + inv[:3, 3]


def ellipsoid_sdf(e, pts: np.ndarray) -> np.ndarray:
    """The ellipsoid's signed distance through ``np.linalg.norm`` of the scaled offsets."""
    a = np.asarray(e.semi_axes, dtype=float)
    return (np.linalg.norm((pts - np.asarray(e.center, dtype=float)) / a, axis=-1) - 1.0) * float(a.min())


def generate_phantom(spec, g, seed=0, pose=None) -> tuple[np.ndarray, np.ndarray]:
    """Intensity and labels, each tissue region's rule written out inline."""
    pose = spec.pose if pose is None else np.asarray(pose, dtype=float)
    pts = _phantom_points(g, pose)
    levels = spec.levels
    sdf_lv = ellipsoid_sdf(spec.lv, pts)
    sdf_outer = ellipsoid_sdf(spec.myo_outer, pts)
    sdf_rv_region = np.maximum(ellipsoid_sdf(spec.rv, pts), -sdf_outer)
    intensity = np.full(pts.shape[0], float(levels["background"]))
    for sdf, level in ((sdf_outer, levels["MYO"]), (sdf_lv, levels["LV"]), (sdf_rv_region, levels["RV"])):
        w_in = _sigmoid(-sdf / spec.sigma_mm)
        intensity = intensity * (1.0 - w_in) + level * w_in
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        span = max(levels.values()) - min(levels.values())
        intensity = intensity + rng.normal(0.0, spec.noise_sigma * span, size=intensity.shape)
    labels = np.zeros(pts.shape[0], dtype=np.int16)
    labels[sdf_rv_region <= 0] = 3
    labels[np.maximum(sdf_outer, -sdf_lv) <= 0] = 2
    labels[sdf_lv <= 0] = 1
    return intensity.reshape(g.shape), labels.reshape(g.shape)


def segmenter_fields(spec, g) -> tuple[np.ndarray, np.ndarray]:
    """The segmenter's prior and template from two separate renders at the spec's pose."""
    pts = _phantom_points(g, spec.pose)
    sdf_lv = ellipsoid_sdf(spec.lv, pts)
    sdf_outer = ellipsoid_sdf(spec.myo_outer, pts)
    sdfs = (sdf_lv, np.maximum(sdf_outer, -sdf_lv), np.maximum(ellipsoid_sdf(spec.rv, pts), -sdf_outer))
    prior = np.stack([_sigmoid((spec.prior_bias_mm - s) / spec.prior_sigma_mm).reshape(g.shape) for s in sdfs])
    template, _ = generate_phantom(dataclasses.replace(spec, noise_sigma=0.0), g)
    return prior, template
