"""Evaluation metrics and mask post-processing.

Hard Dice, symmetric surface Hausdorff distance and volumes in ml per
class, plus 3D largest connected component filtering and per-slice 2D
morphological closing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import ValidationError
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


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Boundary voxels: foreground with a 6-neighbor background (or grid edge)."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return mask
    structure = ndimage.generate_binary_structure(3, 1)  # 6-connectivity
    eroded = ndimage.binary_erosion(mask, structure=structure, border_value=0)
    return mask & ~eroded


def hausdorff(pred: np.ndarray, truth: np.ndarray, spacing) -> float | None:
    """Symmetric surface Hausdorff distance in mm; None when a mask is empty."""
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if pred.shape != truth.shape:
        raise ValidationError("hausdorff masks must share a grid")
    if not pred.any() or not truth.any():
        return None
    spacing = np.asarray(spacing, dtype=float)
    pts_p = np.argwhere(surface_voxels(pred)) * spacing
    pts_t = np.argwhere(surface_voxels(truth)) * spacing
    d_pt = cKDTree(pts_t).query(pts_p)[0].max()
    d_tp = cKDTree(pts_p).query(pts_t)[0].max()
    return float(max(d_pt, d_tp))


def largest_cc_3d(mask: np.ndarray) -> np.ndarray:
    """Keep only the largest 26-connected 3D component."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return mask.copy()
    structure = np.ones((3, 3, 3), dtype=bool)
    labeled, n = ndimage.label(mask, structure=structure)
    if n <= 1:
        return mask.copy()
    sizes = ndimage.sum_labels(mask, labeled, index=np.arange(1, n + 1))
    keep = int(np.argmax(sizes)) + 1
    return labeled == keep


def closing_2d(mask: np.ndarray, k: int = 5) -> np.ndarray:
    """Per-z-slice binary closing with a k x k square structuring element.

    Slices are zero-padded before closing so the operation stays extensive
    (output always contains the input) at the grid border. All slices close
    at once: a dilation and an erosion over a (k, k, 1) box, each a separable
    max or min filter. ``binary_dilation`` reflects an even-sized element, so
    for even k the dilation's box sits one voxel to the right of the erosion's.
    """
    mask = np.asarray(mask, dtype=bool)
    pad = k // 2
    w, h, _ = mask.shape
    padded = np.pad(mask, ((pad, pad), (pad, pad), (0, 0)))
    shift = k % 2 - 1
    dilated = ndimage.maximum_filter(padded, size=(k, k, 1), mode="constant", origin=(shift, shift, 0))
    closed = ndimage.minimum_filter(dilated, size=(k, k, 1), mode="constant")
    return closed[pad : pad + w, pad : pad + h]


def postprocess_labels(pred: LabelVolume, k: int = 5) -> LabelVolume:
    """Largest connected component then 2D closing, applied per label."""
    out = np.zeros(pred.geometry.shape, dtype=np.int16)
    for cls in FOREGROUND_CLASSES:
        mask = largest_cc_3d(pred.class_mask(cls))
        mask = closing_2d(mask, k)
        out[np.logical_and(mask, out == 0)] = cls
    return LabelVolume(pred.geometry, out)


def evaluate_labels(pred: LabelVolume, truth: LabelVolume) -> MetricReport:
    if pred.geometry.shape != truth.geometry.shape:
        raise ValidationError("prediction and truth must share a grid")
    vox_ml = truth.geometry.voxel_volume_mm3 / 1000.0
    per_class = {}
    for cls in FOREGROUND_CLASSES:
        pm = pred.class_mask(cls)
        tm = truth.class_mask(cls)
        hd = hausdorff(pm, tm, truth.geometry.spacing)
        per_class[cls] = ClassMetrics(
            dice=dice3d(pm, tm),
            hausdorff_mm=hd,
            hausdorff_excluded=hd is None,
            volume_pred_ml=float(pm.sum()) * vox_ml,
            volume_truth_ml=float(tm.sum()) * vox_ml,
        )
    return MetricReport(per_class)
