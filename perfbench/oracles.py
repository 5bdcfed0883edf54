"""Output checks that do not lean on the program's own transform or Dice code.

Each check returns a list of problems; an empty list means the output
passed. Rotations, normalized-to-world maps and Dice are rebuilt here from
their definitions with numpy, and the focus check warps with
``scipy.ndimage.map_coordinates`` instead of the program's resampler, so a
fault in ``rigid``, ``resampler`` or ``metrics`` cannot hide itself by
agreeing with its own numbers.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

ROT_TOL_DEG = 2.0  # criterion-4 tolerance on the recovered rotation
TRANS_TOL_VOX = 1.0  # criterion-4 tolerance on the recovered translation
FOREGROUND = (1, 2, 3)  # LV, MYO, RV
CLASS_NAMES = {1: "LV", 2: "MYO", 3: "RV"}


def rotation(phi: float, theta: float, psi: float) -> np.ndarray:
    """R = Rx(phi) Ry(theta) Rz(psi), the composition the rigid layer documents."""
    cx, sx = np.cos(phi), np.sin(phi)
    cy, sy = np.cos(theta), np.sin(theta)
    cz, sz = np.cos(psi), np.sin(psi)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rx @ ry @ rz


def homogeneous(rot: np.ndarray, trans) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rot
    m[:3, 3] = trans
    return m


def param_matrix(angles, t) -> np.ndarray:
    """Normalized-space matrix M = R T = [R | R t] of one branch."""
    r = rotation(*angles)
    return homogeneous(r, r @ np.asarray(t, dtype=float))


def normalized_to_world(geometry) -> np.ndarray:
    """World mm of normalized coordinates c in [-1, 1]: voxel v = (c + 1)(n - 1)/2."""
    half = np.asarray(geometry.spacing, float) * (np.asarray(geometry.shape, float) - 1.0) / 2.0
    direction = np.asarray(geometry.direction, float)
    return homogeneous(direction * half[None, :], np.asarray(geometry.origin, float) + direction @ half)


def rotation_angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic angle between two 3x3 rotations."""
    cos = (np.trace(a.T @ b) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def recovery_errors(angles, t, rel: np.ndarray, geom_i, geom_j) -> tuple[float, float]:
    """Rotation (deg) and translation (voxels of geom_i) error of a recovered M.

    M is composed into world space as n2w_i M n2w_j^-1 and compared with the
    drawn world rigid map ``rel``.
    """
    world = normalized_to_world(geom_i) @ param_matrix(angles, t) @ np.linalg.inv(normalized_to_world(geom_j))
    ang = rotation_angle_deg(world[:3, :3], rel[:3, :3])
    voxel_mm = float(np.max(geom_i.spacing))
    trans = float(np.linalg.norm(world[:3, 3] - rel[:3, 3])) / voxel_mm
    return ang, trans


def check_recovery(angles, t, rel, geom_i, geom_j) -> list[str]:
    ang, trans = recovery_errors(angles, t, rel, geom_i, geom_j)
    if ang < ROT_TOL_DEG and trans < TRANS_TOL_VOX:
        return []
    return [f"recovered transform off by {ang:.3f} deg / {trans:.3f} voxel"]


def true_params(rel: np.ndarray, angles, geom_i, geom_j) -> np.ndarray:
    """Translation t of the exact normalized-space M for a drawn world map.

    Valid where both grids share one isotropic spacing, so that the
    rotation block of M is the drawn rotation itself.
    """
    m = np.linalg.inv(normalized_to_world(geom_i)) @ rel @ normalized_to_world(geom_j)
    r = rotation(*angles)
    if not np.allclose(m[:3, :3], r, atol=1e-9):
        raise ValueError("grids differ in spacing; M is not a rotation")
    return r.T @ m[:3, 3]


def dice(pred: np.ndarray, truth: np.ndarray, cls: int) -> float:
    a = pred == cls
    b = truth == cls
    return 2.0 * np.count_nonzero(a & b) / (np.count_nonzero(a) + np.count_nonzero(b))


def check_dice(pred: np.ndarray, truth: np.ndarray, reported: dict) -> list[str]:
    """Recount every class's Dice by voxels and require the reported value."""
    problems = []
    for cls in FOREGROUND:
        mine = dice(pred, truth, cls)
        if reported[cls] != mine:
            problems.append(f"{CLASS_NAMES[cls]} Dice reported {reported[cls]!r}, counted {mine!r}")
    return problems


def check_floor(dice_by_class, floor: dict) -> list[str]:
    return [
        f"{CLASS_NAMES[c]} Dice {d:.4f} below floor {floor[c]}"
        for c, d in zip(FOREGROUND, dice_by_class)
        if not d >= floor[c]
    ]


def check_beats_identity(rv_true: float, rv_identity: float) -> list[str]:
    if rv_true > rv_identity:
        return []
    return [f"RV Dice through the true transform {rv_true:.4f} <= identity {rv_identity:.4f}"]


def check_mode_ordering(mean_dice: dict, mean_focus: dict) -> list[str]:
    """Criterion-5 properties: Dice full >= cycle >= baseline, focus full <= baseline."""
    problems = []
    for k, cls in enumerate(FOREGROUND):
        if not mean_dice["full"][k] >= mean_dice["cycle"][k] >= mean_dice["baseline"][k]:
            problems.append(
                f"{CLASS_NAMES[cls]} mean Dice not ordered: full {mean_dice['full'][k]:.4f}, "
                f"cycle {mean_dice['cycle'][k]:.4f}, baseline {mean_dice['baseline'][k]:.4f}"
            )
    if not mean_focus["full"] <= mean_focus["baseline"]:
        problems.append(f"focus full {mean_focus['full']:.4f} > baseline {mean_focus['baseline']:.4f}")
    return problems


def warp(data: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Pull-warp onto the same grid under a normalized-space M, zero outside [-1, 1]."""
    n = np.asarray(data.shape, dtype=float)
    axes = [np.linspace(-1.0, 1.0, int(k)) for k in data.shape]
    grid = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(3, -1)
    src = m[:3, :3] @ grid + m[:3, 3:4]
    inside = np.all(np.abs(src) <= 1.0 + 1e-12, axis=0)
    idx = (src + 1.0) * ((n - 1.0) / 2.0)[:, None]
    values = ndimage.map_coordinates(data, idx, order=1, mode="nearest")
    return np.where(inside, values, 0.0).reshape(data.shape)


def focus_exact(q: np.ndarray, r: float = 0.9) -> float:
    """1 minus the share of foreground probabilities above r."""
    fg = q[list(FOREGROUND)]
    return 1.0 - np.count_nonzero(fg > r) / fg.size


def swap_lv_rv(labels: np.ndarray) -> np.ndarray:
    """A known-wrong label map for the negative controls."""
    out = labels.copy()
    out[labels == 1] = 3
    out[labels == 3] = 1
    return out
