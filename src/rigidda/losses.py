"""Loss terms: segmentation losses, the focus loss, the loss weights and report.

All reductions are means over voxels (and foreground classes where a class
sum appears), so loss magnitudes do not scale with the grid size. The
registration objective, ``engine.PairObjective``, computes the cycle terms
(half the mean squared masked difference) itself and adds the focus terms
from here; it evaluates them on slabs of slices and weights each slab's
mean by the slab's share of the grid. The segmentation losses (BCE, soft
Dice) are the task network's training losses, checked against brute-force
oracles by criterion 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_numbers
from .volume import FOREGROUND_CLASSES, GridGeometry, NUM_CLASSES

PROB_EPS = 1e-7

# the foreground channels are the contiguous slice q[1:], so foreground
# reads and writes need no fancy-index copy
assert FOREGROUND_CLASSES == tuple(range(1, NUM_CLASSES))


@dataclass(frozen=True)
class ProbabilityVolume:
    """Per-voxel class probabilities, shape (NUM_CLASSES, W, H, D)."""

    geometry: GridGeometry
    q: np.ndarray

    def __post_init__(self):
        q = np.ascontiguousarray(np.asarray(self.q, dtype=np.float64))
        if q.shape != (NUM_CLASSES, *self.geometry.shape):
            raise ValidationError(f"probability field has wrong shape {q.shape}")
        if q.min() < -1e-9 or q.max() > 1.0 + 1e-9:
            raise ValidationError("probabilities must lie in [0, 1]")
        sums = q.sum(axis=0)
        if np.max(np.abs(sums - 1.0)) > 1e-6:
            raise ValidationError("per-voxel class probabilities must sum to 1")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    @classmethod
    def trusted(cls, geometry: GridGeometry, q: np.ndarray) -> "ProbabilityVolume":
        """Wrap probabilities this program has just computed, without the copy and the checks.

        ``q`` must be a float64 C-contiguous array of the right shape with
        class sums of 1; it becomes read-only. Probabilities from anywhere
        else go through the checking constructor.
        """
        out = object.__new__(cls)
        q.flags.writeable = False
        object.__setattr__(out, "geometry", geometry)
        object.__setattr__(out, "q", q)
        return out

    def foreground(self) -> np.ndarray:
        """(3, N) view of the foreground class probabilities."""
        return self.q[1:].reshape(len(FOREGROUND_CLASSES), -1)


@dataclass
class LossWeights:
    alpha1: float = 1.0
    alpha2: float = 0.1
    r: float = 0.9
    tau: float = 0.02

    def __post_init__(self):
        # each check is written so that NaN fails it
        check_numbers(self, "weights")
        # the stability condition is alpha1 > alpha2; alpha2 = 0 disables focus
        if not self.alpha1 > self.alpha2 >= 0:
            raise ValidationError("require alpha1 > alpha2 >= 0")
        if not 0 < self.r < 1:
            raise ValidationError("threshold r must be in (0, 1)")
        if not self.tau > 0:
            raise ValidationError("surrogate temperature must be positive")


def _check_shapes(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch {a.shape} vs {b.shape}")


def bce(q: np.ndarray, g: np.ndarray) -> float:
    """Binary cross-entropy for one foreground class, mean over voxels."""
    _check_shapes(np.asarray(q), np.asarray(g))
    qc = np.clip(q, PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.mean(g * np.log(qc) + (1.0 - g) * np.log(1.0 - qc)))


def ce(q_classes: np.ndarray, g_classes: np.ndarray) -> float:
    """Mean BCE over the foreground classes; inputs are (C, ...) stacks."""
    _check_shapes(np.asarray(q_classes), np.asarray(g_classes))
    return float(np.mean([bce(qj, gj) for qj, gj in zip(q_classes, g_classes)]))


def soft_dice(q: np.ndarray, g: np.ndarray, smooth: float = 1.0) -> float:
    """Soft Dice coefficient for one class with a smoothing constant."""
    _check_shapes(np.asarray(q), np.asarray(g))
    num = 2.0 * float(np.sum(g * q)) + smooth
    den = float(np.sum(g)) + float(np.sum(q)) + smooth
    return num / den


def sdl(q_classes: np.ndarray, g_classes: np.ndarray, smooth: float = 1.0) -> float:
    """Soft Dice loss: 1 minus the mean per-class soft Dice."""
    _check_shapes(np.asarray(q_classes), np.asarray(g_classes))
    dscs = [soft_dice(qj, gj, smooth) for qj, gj in zip(q_classes, g_classes)]
    return 1.0 - float(np.mean(dscs))


def seg_loss(q_classes: np.ndarray, g_classes: np.ndarray, w_seg: float = 0.5, smooth: float = 1.0) -> float:
    return w_seg * ce(q_classes, g_classes) + sdl(q_classes, g_classes, smooth)


def in_plane_weight(g: GridGeometry) -> np.ndarray:
    """Separable linear weight: 1 at the slice center, 0 on the slice border.

    Constant along z; computed from normalized in-plane coordinates.
    """
    nx, ny, _ = g.normalized_grid()
    return (1.0 - np.abs(nx)) * (1.0 - np.abs(ny))


def focus_exact(q: ProbabilityVolume, r: float) -> float:
    """1 minus the fraction of foreground entries strictly above threshold r."""
    fg = q.foreground()
    count = float(np.count_nonzero(fg > r))
    return 1.0 - count / fg.size


def focus_smooth(q: ProbabilityVolume, r: float, tau: float) -> float:
    """Sigmoid surrogate of the indicator count; converges to exact as tau -> 0."""
    return 1.0 - float(np.mean(_foreground_sigmoid(q, r, tau)))


def focus_smooth_upstream(q: ProbabilityVolume, r: float, tau: float) -> np.ndarray:
    """d(focus_smooth)/dq over all classes, shape (NUM_CLASSES, W, H, D)."""
    s = _foreground_sigmoid(q, r, tau)
    out = np.zeros(q.q.shape)
    # -s (1 - s) / (tau * size), written into the foreground channels
    grad_fg = np.subtract(1.0, s, out=out[1:].reshape(s.shape))
    grad_fg *= s
    np.negative(grad_fg, out=grad_fg)
    grad_fg /= tau * s.size
    return out


def _foreground_sigmoid(q: ProbabilityVolume, r: float, tau: float) -> np.ndarray:
    """sigmoid((q - r) / tau) over the (3, N) foreground probabilities."""
    x = q.foreground() - r
    x /= tau
    return _sigmoid(x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array: 1 / (1 + e) for x >= 0, e / (1 + e) below, e = exp(-|x|).

    exp only ever sees -|x|, so it never overflows; the temporaries are
    reused in place.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=d)
    np.copyto(e, d, where=x >= 0)
    return e


@dataclass
class LossReport:
    """Itemized loss terms; total = alpha1 * cycle + alpha2 * focus(smooth)."""

    cycle_fwd: float = 0.0
    cycle_bwd: float = 0.0
    focus_exact: float = 0.0
    focus_smooth: float = 0.0
    alpha1: float = 1.0
    alpha2: float = 0.1

    @property
    def cycle(self) -> float:
        return self.cycle_fwd + self.cycle_bwd

    @property
    def total(self) -> float:
        return self.alpha1 * self.cycle + self.alpha2 * self.focus_smooth

    def to_dict(self) -> dict:
        return {
            "cycle_fwd": self.cycle_fwd,
            "cycle_bwd": self.cycle_bwd,
            "cycle": self.cycle,
            "focus_exact": self.focus_exact,
            "focus_smooth": self.focus_smooth,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "total": self.total,
        }
