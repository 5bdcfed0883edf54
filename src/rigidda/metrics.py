"""Evaluation metrics and mask post-processing.

Hard Dice, symmetric surface Hausdorff distance and volumes in ml per
class, plus 3D largest connected component filtering and per-slice 2D
morphological closing. The post-processing and the evaluation handle their
classes on two threads (``interp.two_thread_map``); each class returns its
own mask or metrics, which are combined in class order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import ValidationError
from .interp import two_thread_map
from .volume import CLASS_NAMES, FOREGROUND_CLASSES, LabelVolume


@dataclass
class ClassMetrics:
    dice: float | None
    hausdorff_mm: float | None
    hausdorff_excluded: bool
    volume_pred_ml: float
    volume_truth_ml: float

    @property
    def volume_diff_ml(self) -> float:
        return self.volume_pred_ml - self.volume_truth_ml


@dataclass
class MetricReport:
    per_class: dict[int, ClassMetrics]

    def to_dict(self) -> dict:
        out = {}
        for cls, m in self.per_class.items():
            out[CLASS_NAMES[cls]] = {
                "dice": m.dice,
                "hausdorff_mm": m.hausdorff_mm,
                "hausdorff_excluded": m.hausdorff_excluded,
                "volume_pred_ml": m.volume_pred_ml,
                "volume_truth_ml": m.volume_truth_ml,
                "volume_diff_ml": m.volume_diff_ml,
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def dice3d(pred: np.ndarray, truth: np.ndarray) -> float | None:
    """Hard-set Dice of two binary masks; None when both are empty."""
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if pred.shape != truth.shape:
        raise ValidationError("dice3d masks must share a grid")
    total = int(pred.sum()) + int(truth.sum())
    if total == 0:
        return None
    inter = int(np.logical_and(pred, truth).sum())
    return 2.0 * inter / total


def _box(mask: np.ndarray, margins) -> tuple[slice, ...] | None:
    """Slices of the bounding box of ``mask``'s voxels grown by ``margins`` per
    axis and clamped to the grid; None for an empty mask. The box comes from
    the mask's projections onto the xy plane and the z axis."""
    xy = mask.any(axis=2)
    hits = (xy.any(axis=1), xy.any(axis=0), mask.any(axis=(0, 1)))
    if not hits[2].any():
        return None
    box = []
    for hit, margin, n in zip(hits, margins, mask.shape):
        where = np.flatnonzero(hit)
        box.append(slice(max(int(where[0]) - margin, 0), min(int(where[-1]) + 1 + margin, n)))
    return tuple(box)


def _surface(mask: np.ndarray) -> np.ndarray:
    """``surface_voxels`` of a mask whose voxels all lie inside the array."""
    structure = ndimage.generate_binary_structure(3, 1)  # 6-connectivity
    return mask & ~ndimage.binary_erosion(mask, structure=structure, border_value=0)


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Boundary voxels: foreground with a 6-neighbor background (or grid edge).

    The erosion runs on the mask's bounding box grown by one voxel.
    """
    mask = np.asarray(mask, dtype=bool)
    out = np.zeros_like(mask)
    box = _box(mask, (1, 1, 1))
    if box is not None:
        out[box] = _surface(mask[box])
    return out


def _farthest(tree: cKDTree, points: np.ndarray) -> float:
    """Largest distance from ``points`` to their nearest tree point; 0 for no points."""
    return float(tree.query(points)[0].max()) if len(points) else 0.0


def hausdorff(pred: np.ndarray, truth: np.ndarray, spacing) -> float | None:
    """Symmetric surface Hausdorff distance in mm; None when a mask is empty.

    Both surfaces are found on the bounding box of the two masks grown by one
    voxel. Each mask's surface points are looked up in the other's tree only
    where they are not on the other surface too; those are at distance 0.
    """
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if pred.shape != truth.shape:
        raise ValidationError("hausdorff masks must share a grid")
    if not pred.any() or not truth.any():
        return None
    spacing = np.asarray(spacing, dtype=float)
    box = _box(pred | truth, (1, 1, 1))
    corner = [s.start for s in box]
    surf_p, surf_t = _surface(pred[box]), _surface(truth[box])
    idx_p, idx_t = np.argwhere(surf_p), np.argwhere(surf_t)
    off_p = ~surf_t[tuple(idx_p.T)]
    off_t = ~surf_p[tuple(idx_t.T)]
    pts_p, pts_t = (idx_p + corner) * spacing, (idx_t + corner) * spacing
    d_pt = _farthest(cKDTree(pts_t), pts_p[off_p])
    d_tp = _farthest(cKDTree(pts_p), pts_t[off_t])
    return max(d_pt, d_tp)


def largest_cc_3d(mask: np.ndarray) -> np.ndarray:
    """Keep only the largest 26-connected 3D component, labelled on the mask's bounding box."""
    mask = np.asarray(mask, dtype=bool)
    box = _box(mask, (0, 0, 0))
    if box is None:
        return mask.copy()
    structure = np.ones((3, 3, 3), dtype=bool)
    part = mask[box]
    labeled, n = ndimage.label(part, structure=structure)
    if n <= 1:
        return mask.copy()
    sizes = ndimage.sum_labels(part, labeled, index=np.arange(1, n + 1))
    out = np.zeros_like(mask)
    out[box] = labeled == int(np.argmax(sizes)) + 1
    return out


def closing_2d(mask: np.ndarray, k: int = 5) -> np.ndarray:
    """Per-z-slice binary closing with a k x k square structuring element.

    Slices are zero-padded before closing so the operation stays extensive
    (output always contains the input) at the grid border. All slices close
    at once: a dilation and an erosion over a (k, k, 1) box, each a separable
    max or min filter. ``binary_dilation`` reflects an even-sized element, so
    for even k the dilation's box sits one voxel to the right of the erosion's.
    The filters run on the mask's bounding box: a closing by a box stays
    inside it, and the zero padding holds every filter footprint.
    """
    mask = np.asarray(mask, dtype=bool)
    out = np.zeros_like(mask)
    pad = k // 2
    box = _box(mask, (0, 0, 0))
    if box is None:
        return out
    part = mask[box]
    w, h, _ = part.shape
    padded = np.pad(part, ((pad, pad), (pad, pad), (0, 0)))
    shift = k % 2 - 1
    dilated = ndimage.maximum_filter(padded, size=(k, k, 1), mode="constant", origin=(shift, shift, 0))
    closed = ndimage.minimum_filter(dilated, size=(k, k, 1), mode="constant")
    out[box] = closed[pad : pad + w, pad : pad + h]
    return out


def postprocess_labels(pred: LabelVolume, k: int = 5) -> LabelVolume:
    """Largest connected component then 2D closing, applied per label.

    The classes' masks are found on two threads; where closed masks overlap,
    the lower class keeps the voxel.
    """
    masks = two_thread_map(lambda cls: closing_2d(largest_cc_3d(pred.class_mask(cls)), k), FOREGROUND_CLASSES)
    out = np.zeros(pred.geometry.shape, dtype=np.int16)
    for cls, mask in zip(FOREGROUND_CLASSES, masks):
        out[np.logical_and(mask, out == 0)] = cls
    return LabelVolume(pred.geometry, out)


def evaluate_labels(pred: LabelVolume, truth: LabelVolume) -> MetricReport:
    if pred.geometry.shape != truth.geometry.shape:
        raise ValidationError("prediction and truth must share a grid")
    vox_ml = truth.geometry.voxel_volume_mm3 / 1000.0

    def class_metrics(cls) -> ClassMetrics:
        pm = pred.class_mask(cls)
        tm = truth.class_mask(cls)
        hd = hausdorff(pm, tm, truth.geometry.spacing)
        return ClassMetrics(
            dice=dice3d(pm, tm),
            hausdorff_mm=hd,
            hausdorff_excluded=hd is None,
            volume_pred_ml=float(pm.sum()) * vox_ml,
            volume_truth_ml=float(tm.sum()) * vox_ml,
        )

    return MetricReport(dict(zip(FOREGROUND_CLASSES, two_thread_map(class_metrics, FOREGROUND_CLASSES))))
