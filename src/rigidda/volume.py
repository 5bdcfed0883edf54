"""Volume representation, grid geometry, coordinate frames, preprocessing.

Axis order is x (width) fastest, then y, then z; all shapes are written
(W, H, D). Arrays are indexed ``data[x, y, z]``. Normalized coordinates are
align-corners style: the centers of the two extreme voxels along each axis
map to -1 and +1.

Preprocessing resamples onto an isotropic grid slab by slab, intensities
through ``trilinear`` and label maps through ``trilinear_labels``, with no
whole-grid index map or one-hot channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .interp import slab_bounds, trilinear, trilinear_labels, two_thread_map

LABEL_BACKGROUND = 0
LABEL_LV = 1
LABEL_MYO = 2
LABEL_RV = 3
NUM_CLASSES = 4
FOREGROUND_CLASSES = (LABEL_LV, LABEL_MYO, LABEL_RV)
CLASS_NAMES = {LABEL_BACKGROUND: "background", LABEL_LV: "LV", LABEL_MYO: "MYO", LABEL_RV: "RV"}


@dataclass(frozen=True)
class GridGeometry:
    """Voxel grid embedded in world space (mm)."""

    shape: tuple[int, int, int]
    spacing: np.ndarray
    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "spacing", np.asarray(self.spacing, dtype=float).copy())
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float).copy())
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=float).copy())
        if len(self.shape) != 3 or any(n < 1 for n in self.shape):
            raise ValidationError(f"invalid grid shape {self.shape}")
        if self.spacing.shape != (3,) or not np.all(np.isfinite(self.spacing) & (self.spacing > 0)):
            raise ValidationError(f"spacing must be 3 finite positive values, got {self.spacing}")
        if self.origin.shape != (3,) or not np.all(np.isfinite(self.origin)):
            raise ValidationError(f"origin must be a finite 3-vector, got {self.origin}")
        if self.direction.shape != (3, 3):
            raise ValidationError("direction must be a 3x3 matrix")
        if not np.allclose(self.direction.T @ self.direction, np.eye(3), atol=1e-9):
            raise ValidationError("direction columns must be orthonormal")
        self.spacing.flags.writeable = False
        self.origin.flags.writeable = False
        self.direction.flags.writeable = False

    @classmethod
    def isotropic(cls, shape, spacing_mm: float) -> "GridGeometry":
        """Axis-aligned grid whose midpoint sits at the world origin."""
        shape = tuple(int(n) for n in shape)
        sp = np.full(3, float(spacing_mm))
        origin = -sp * (np.asarray(shape, dtype=float) - 1.0) / 2.0
        return cls(shape, sp, origin, np.eye(3))

    @property
    def num_voxels(self) -> int:
        w, h, d = self.shape
        return w * h * d

    @property
    def voxel_volume_mm3(self) -> float:
        return float(np.prod(self.spacing))

    def world_from_voxel(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return self.origin + (v * self.spacing) @ self.direction.T

    def normalized_to_world_matrix(self) -> np.ndarray:
        """Homogeneous 4x4 mapping normalized coordinates to world mm."""
        n = np.asarray(self.shape, dtype=float)
        scale = self.spacing * (n - 1.0) / 2.0
        m = np.eye(4)
        m[:3, :3] = self.direction * scale[None, :]
        m[:3, 3] = self.origin + self.direction @ (self.spacing * (n - 1.0) / 2.0)
        return m

    def normalized_axes(self) -> list[np.ndarray]:
        """Normalized coordinates of the voxel centers along each axis."""
        if any(n < 2 for n in self.shape):
            raise ValidationError("resampling needs >= 2 voxels per axis")
        return [2.0 * np.arange(n) / (n - 1.0) - 1.0 for n in self.shape]

    def normalized_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Normalized coordinates of every voxel center, three (W,H,D) arrays."""
        return np.meshgrid(*self.normalized_axes(), indexing="ij")

    def z_slab(self, z0: int, z1: int, window: tuple[int, int, int, int] | None = None) -> "GridGeometry":
        """The sub-grid of whole slices ``z0:z1``, or of their in-plane window
        ``(x0, x1, y0, y1)``, at its world position."""
        w, h, d = self.shape
        x0, x1, y0, y1 = (0, w, 0, h) if window is None else window
        if not (0 <= z0 < z1 <= d and 0 <= x0 < x1 <= w and 0 <= y0 < y1 <= h):
            raise ValidationError(f"box {x0}:{x1}, {y0}:{y1}, {z0}:{z1} outside a grid of shape {self.shape}")
        origin = self.origin + self.direction @ (np.array([x0, y0, z0], dtype=float) * self.spacing)
        return GridGeometry((x1 - x0, y1 - y0, z1 - z0), self.spacing, origin, self.direction)


@dataclass(frozen=True)
class Volume:
    """Scalar intensity volume. Immutable after construction."""

    geometry: GridGeometry
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.shape != self.geometry.shape:
            raise ValidationError(
                f"data shape {data.shape} does not match grid {self.geometry.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise ValidationError("volume contains non-finite values")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def trusted(cls, geometry: GridGeometry, data: np.ndarray) -> "Volume":
        """Wrap an image this program has just computed, without the copy and the checks.

        ``data`` must be a finite float64 C-contiguous array of the grid's
        shape; it becomes read-only. Images from files and callers go
        through the checking constructor.
        """
        out = object.__new__(cls)
        data.flags.writeable = False
        object.__setattr__(out, "geometry", geometry)
        object.__setattr__(out, "data", data)
        return out


@dataclass(frozen=True)
class LabelVolume:
    """Disjoint integer class map over the same grid conventions as Volume."""

    geometry: GridGeometry
    data: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.data)
        if raw.shape != self.geometry.shape:
            raise ValidationError(
                f"label shape {raw.shape} does not match grid {self.geometry.shape}"
            )
        if raw.dtype.kind not in "biuf":
            raise ValidationError(f"class ids must be numbers, got dtype {raw.dtype}")
        # the range is checked before the int16 cast, which would wrap 65537
        # to 1, and a float must survive the cast, which truncates 1.7 to 1
        if not (raw.min() >= 0 and raw.max() < NUM_CLASSES):
            _raise_unknown_ids(raw)
        data = np.ascontiguousarray(raw, dtype=np.int16)
        if raw.dtype.kind == "f" and np.any(data != raw):
            _raise_unknown_ids(raw)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def class_mask(self, cls: int) -> np.ndarray:
        return self.data == cls


def _raise_unknown_ids(raw: np.ndarray):
    bad = np.setdiff1d(np.unique(raw), np.arange(NUM_CLASSES))
    raise ValidationError(f"unknown class id(s) {bad.tolist()}")


def _resample_isotropic(g: GridGeometry, iso: float, sample, dtype) -> tuple[GridGeometry, np.ndarray] | None:
    """The grid of spacing ``iso`` over ``g``'s voxel-center extent and the
    values ``sample`` gives at its voxels, or None when ``g`` already has
    spacing ``iso`` on every axis.

    ``sample`` maps the (3, n) index coordinates in ``g`` of one slab's
    voxels to their n values. The slabs (``slab_bounds``) run two at a time
    through ``two_thread_map``, each from its own index block and writing its
    own slices, so no whole-grid index map is built.
    """
    if not iso > 0:
        raise ValidationError("isotropic spacing must be positive")
    if any(n < 2 for n in g.shape):
        raise ValidationError("resampling needs >= 2 voxels per axis")
    if np.all(g.spacing == iso):
        return None
    shape = tuple(max(2, int(round((n - 1) * sp / iso)) + 1) for n, sp in zip(g.shape, g.spacing))
    # voxel-center extent preserved: index k of the new grid sits at k*iso mm
    ax, ay, az = (np.arange(n) * iso / sp for n, sp in zip(shape, g.spacing))
    out = np.empty(shape, dtype=dtype)
    w, h, _ = shape

    def slab(bounds):
        z0, z1 = bounds
        idx = np.empty((3, w, h, z1 - z0))
        idx[0], idx[1], idx[2] = ax[:, None, None], ay[:, None], az[z0:z1]
        out[..., z0:z1] = sample(*idx.reshape(3, -1)).reshape(w, h, -1)

    two_thread_map(slab, slab_bounds(shape))
    return GridGeometry(shape, np.full(3, float(iso)), g.origin, g.direction), out


def resample_isotropic(v: Volume, iso: float) -> Volume:
    """Resample to uniform isotropic spacing with trilinear interpolation.

    A volume that already has spacing ``iso`` on every axis is returned as is.
    """
    out = _resample_isotropic(v.geometry, iso, lambda *idx: trilinear(v.data, *idx), np.float64)
    return v if out is None else Volume(*out)


def pad_to_grid(v: Volume | LabelVolume, target: tuple[int, int, int]) -> Volume | LabelVolume:
    """Center the volume in a fixed target grid, zero-filling the margin.

    Inputs larger than the target on any axis are center-cropped first. The
    origin is updated so world positions of surviving voxels are unchanged.
    The result has the input's type, so a label map stays int16.
    """
    target = tuple(int(n) for n in target)
    g = v.geometry
    data = v.data
    origin = g.origin.copy()
    # crop
    starts = []
    for ax in range(3):
        excess = data.shape[ax] - target[ax]
        starts.append(max(0, excess // 2))
    sl = tuple(slice(s, s + min(data.shape[ax], target[ax])) for ax, s in enumerate(starts))
    data = data[sl]
    shift_vox = np.array([s.start for s in sl], dtype=float)
    origin = origin + g.direction @ (g.spacing * shift_vox)
    # pad
    pads = []
    for ax in range(3):
        missing = target[ax] - data.shape[ax]
        before = missing // 2
        pads.append((before, missing - before))
    data = np.pad(data, pads, mode="constant")
    before_vox = np.array([p[0] for p in pads], dtype=float)
    origin = origin - g.direction @ (g.spacing * before_vox)
    geom = GridGeometry(target, g.spacing, origin, g.direction)
    return type(v)(geom, data)


def nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile of the voxel multiset: its k-th smallest value, by a partial sort."""
    if not 0 < q <= 1:
        raise ValidationError("quantile must be in (0, 1]")
    k = max(int(np.ceil(q * np.size(values))), 1)
    return float(np.partition(values, k - 1, axis=None)[k - 1])


def clip_and_normalize(v: Volume, q: float = 0.999) -> Volume:
    """Clip at the q-quantile then min/max map to [0, 1].

    A constant volume maps to all zeros.
    """
    hi = nearest_rank_quantile(v.data, q)
    lo = float(v.data.min())
    clipped = np.minimum(v.data, hi)
    if hi <= lo:
        return Volume(v.geometry, np.zeros_like(v.data))
    return Volume(v.geometry, (clipped - lo) / (hi - lo))


def preprocess_labels(
    lv: LabelVolume,
    iso: float = 1.5,
    grid: tuple[int, int, int] = (224, 224, 96),
) -> LabelVolume:
    """Label preprocessing: resample to spacing ``iso`` by the argmax of the
    trilinearly interpolated one-hot channels (``trilinear_labels``), then
    pad/crop to ``grid``.

    Labels that already have spacing ``iso`` on every axis skip the resampling.
    """
    if np.any(lv.geometry.spacing != iso):
        geom, out = _resample_isotropic(
            lv.geometry, iso, lambda *idx: trilinear_labels(lv.data, *idx, True, 1.0, NUM_CLASSES), np.int16
        )
        lv = LabelVolume(geom, out)
    return pad_to_grid(lv, grid)
