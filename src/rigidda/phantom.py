"""Analytic cardiac-like phantoms and the pluggable task-module interface.

The phantom is built from nested ellipsoids (LV blood pool, myocardial
shell, RV crescent) rendered as smooth signed-distance sigmoids, with an
exact label map. The analytic segmenter stands in for an injected
pre-trained segmentation network: it is pose-sensitive by construction and
only produces confident class probabilities where the presented volume
matches its canonical pose.

A phantom, and the segmenter's template and prior, are rendered slab by
slab (``interp.slab_bounds``), two slabs at a time (``two_thread_map``).
Each slab maps its own block of voxel centers into the phantom's frame
and writes its slices of the outputs, so no whole-grid point array or
signed-distance field is built. A slab's rows go through the same two
products as the whole grid's, and every voxel gets the bits of a
whole-grid render.
"""

from __future__ import annotations

import copy
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Protocol

import numpy as np

from .errors import ValidationError, check_numbers
from .interp import slab_bounds, two_thread_map
from .io import json_numbers, known_names, parse_json
from .losses import ProbabilityVolume, _sigmoid
from .rigid import check_rigid, parse_matrix, rotation_matrix
from .volume import (
    FOREGROUND_CLASSES,
    GridGeometry,
    LABEL_LV,
    LABEL_MYO,
    LABEL_RV,
    LabelVolume,
    NUM_CLASSES,
    Volume,
    clip_and_normalize,
    pad_to_grid,
    preprocess_labels,
    resample_isotropic,
)


@dataclass(frozen=True)
class Ellipsoid:
    """Center and semi-axes in mm: three finite numbers each, the semi-axes positive."""

    center: tuple[float, float, float]
    semi_axes: tuple[float, float, float]

    def __post_init__(self):
        c, a = np.asarray(self.center, dtype=float), np.asarray(self.semi_axes, dtype=float)
        if c.shape != (3,) or a.shape != (3,) or not np.all(np.isfinite(c) & (a > 0) & (a < np.inf)):
            raise ValidationError(f"ellipsoid needs 3 finite center coordinates and finite positive semi-axes: {self}")

    def sdf(self, points_mm: np.ndarray) -> np.ndarray:
        """Approximate signed distance in mm; negative inside.

        The squared scaled offsets are added one axis at a time, in axis
        order, which is the sum of ``np.linalg.norm(axis=-1)`` bit for bit.
        """
        c = np.asarray(self.center, dtype=float)
        a = np.asarray(self.semi_axes, dtype=float)
        points_mm = np.asarray(points_mm, dtype=float)
        total = np.zeros(points_mm.shape[:-1])
        for k in range(3):
            rel = points_mm[..., k] - c[k]
            rel /= a[k]
            rel *= rel
            total += rel
        np.sqrt(total, out=total)
        total -= 1.0
        total *= float(a.min())
        return total


_TISSUES = ("background", "LV", "MYO", "RV")


@dataclass(frozen=True)
class PhantomSpec:
    """Nested-ellipsoid phantom description, all lengths in mm. The fields are
    the layout of its JSON, and ``__post_init__`` checks each of them. A spec
    is frozen, its levels a read-only mapping and its pose a read-only array,
    so no field can change after the checks or under a segmenter built from
    it; ``dataclasses.replace`` makes a changed copy."""

    lv: Ellipsoid = field(default_factory=lambda: Ellipsoid((0.0, 0.0, 0.0), (18.0, 18.0, 30.0)))
    myo_outer: Ellipsoid = field(default_factory=lambda: Ellipsoid((0.0, 0.0, 0.0), (26.0, 26.0, 38.0)))
    rv: Ellipsoid = field(default_factory=lambda: Ellipsoid((-24.0, 0.0, 0.0), (16.0, 20.0, 26.0)))
    levels: Mapping = field(default_factory=lambda: {"background": 0.0, "LV": 1.0, "MYO": 0.55, "RV": 0.75})
    sigma_mm: float = 1.0
    noise_sigma: float = 0.01
    logit_scale: float = 40.0
    prior_sigma_mm: float = 0.5
    prior_bias_mm: float = 0.5
    intensity_sigma: float = 0.1
    pose: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        check_numbers(self, "phantom spec")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "Ellipsoid" and not isinstance(value, Ellipsoid):
                raise ValidationError(f"phantom spec {f.name} must be an Ellipsoid, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ValidationError(f"phantom spec {f.name} must be finite, got {value}")
        for name in ("sigma_mm", "logit_scale", "prior_sigma_mm", "intensity_sigma"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"phantom spec {name} must be above 0, got {getattr(self, name)}")
        if self.noise_sigma < 0:
            raise ValidationError(f"phantom spec noise_sigma must be at least 0, got {self.noise_sigma}")
        if not isinstance(self.levels, Mapping) or sorted(self.levels, key=str) != sorted(_TISSUES):
            raise ValidationError(f"phantom spec levels must give exactly {', '.join(_TISSUES)}")
        json_numbers(list(self.levels.values()), ((4,),), "phantom spec levels")
        object.__setattr__(self, "levels", MappingProxyType(dict(self.levels)))
        pose = check_rigid(np.array(self.pose, dtype=float), "phantom spec pose")
        pose.flags.writeable = False
        object.__setattr__(self, "pose", pose)

    def scaled(self, factor: float) -> "PhantomSpec":
        """Geometrically scaled copy: centers, semi-axes and the three lengths."""

        def scale(e: Ellipsoid) -> Ellipsoid:
            return Ellipsoid(tuple(c * factor for c in e.center), tuple(a * factor for a in e.semi_axes))

        lengths = {name: getattr(self, name) * factor for name in ("sigma_mm", "prior_sigma_mm", "prior_bias_mm")}
        return replace(self, lv=scale(self.lv), myo_outer=scale(self.myo_outer), rv=scale(self.rv), **lengths)

    def to_json(self) -> str:
        def plain(value):
            if isinstance(value, Ellipsoid):
                return asdict(value)
            if isinstance(value, Mapping):
                return dict(value)
            if isinstance(value, np.ndarray):
                return value.reshape(16).tolist()
            return value

        return json.dumps({f.name: plain(getattr(self, f.name)) for f in fields(self)}, indent=2)

    @classmethod
    def from_json(cls, text: str | bytes) -> "PhantomSpec":
        """Parse the ``to_json`` layout; absent entries keep their defaults. A name that
        is not a field, or a value not in its field's JSON form, raises ValidationError."""
        raw = parse_json(text, "phantom spec")
        if not isinstance(raw, dict):
            raise ValidationError("phantom spec must be a JSON object")
        known_names(raw, [f.name for f in fields(cls)], "phantom spec entry")
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                continue
            value, what = raw[f.name], f"phantom spec {f.name}"
            if f.type == "Ellipsoid":
                value = value if isinstance(value, dict) else {}
                keys = [k.name for k in fields(Ellipsoid)]
                known_names(value, keys, f"{what} entry")
                value = Ellipsoid(*(tuple(json_numbers(value.get(k), ((3,),), f"{what}.{k}").tolist()) for k in keys))
            elif f.type == "Mapping":
                if isinstance(value, dict):
                    value = {k: float(json_numbers(v, ((),), f"{what}.{k}")) for k, v in value.items()}
            elif f.type == "np.ndarray":
                value = parse_matrix(value, what)
            else:
                value = float(json_numbers(value, ((),), what))
            kwargs[f.name] = value
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "PhantomSpec":
        return cls.from_json(Path(path).read_bytes())


def _region_sdfs(spec: PhantomSpec, points_mm: np.ndarray) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Signed distances of the tissue regions LV, MYO = outer minus LV and RV =
    right minus outer, which meet only on their surfaces, and of the outer ellipsoid."""
    sdf_lv = spec.lv.sdf(points_mm)
    sdf_outer = spec.myo_outer.sdf(points_mm)
    regions = {
        LABEL_LV: sdf_lv,
        LABEL_MYO: np.maximum(sdf_outer, -sdf_lv),
        LABEL_RV: np.maximum(spec.rv.sdf(points_mm), -sdf_outer),
    }
    return regions, sdf_outer


def _render(spec: PhantomSpec, g: GridGeometry, pose: np.ndarray | None = None, prior: bool = False):
    """Noise-free intensity of the phantom at ``pose`` (default: the spec's) on
    ``g``, and its exact labels or, with ``prior``, the segmenter's prior
    channels, one per foreground class, and the (W, D) and (H, D) maps of the
    x and y positions per slice where some ``k * prior_c`` exceeds ``k / 2``.

    Each slab of ``slab_bounds`` builds its (3, n) block of voxel centers by
    broadcasting the axis ranges and maps it into the phantom's canonical
    frame by two (3, 3) @ (3, n) products, which give the bits of the
    (n, 3) @ (3, 3) ones in less time; its signed distances live only as
    long as the slab.
    """
    pose = spec.pose if pose is None else np.asarray(pose, dtype=float)
    inv = np.linalg.inv(pose)
    w, h, _ = g.shape
    intensity = np.empty(g.shape)
    second = np.empty((len(FOREGROUND_CLASSES), *g.shape)) if prior else np.empty(g.shape, dtype=np.int16)
    live_x, live_y = np.empty((w, g.shape[2]), dtype=bool), np.empty((h, g.shape[2]), dtype=bool)
    k = spec.logit_scale

    def slab(bounds):
        z0, z1 = bounds
        vox = np.empty((3, w, h, z1 - z0))
        vox[0], vox[1], vox[2] = np.arange(w)[:, None, None], np.arange(h)[:, None], np.arange(z0, z1)
        vox = vox.reshape(3, -1)
        vox *= g.spacing[:, None]
        points = g.direction @ vox
        points += g.origin[:, None]
        points = inv[:3, :3] @ points
        points += inv[:3, 3:]
        regions, sdf_outer = _region_sdfs(spec, points.T)
        part = np.full(sdf_outer.shape, float(spec.levels["background"]))
        for sdf, tissue in ((sdf_outer, "MYO"), (regions[LABEL_LV], "LV"), (regions[LABEL_RV], "RV")):
            w_in = _sigmoid(-sdf / spec.sigma_mm)
            part *= 1.0 - w_in
            part += spec.levels[tissue] * w_in
        intensity[..., z0:z1] = part.reshape(w, h, -1)
        if prior:
            live = np.zeros(sdf_outer.shape, dtype=bool)
            # small outward bias keeps voxels right at a structure surface confident
            for row, c in enumerate(FOREGROUND_CLASSES):
                channel = _sigmoid((spec.prior_bias_mm - regions[c]) / spec.prior_sigma_mm)
                second[row, ..., z0:z1] = channel.reshape(w, h, -1)
                # the product the segmenter's evaluate makes, against its background logit
                live |= channel * k > 0.5 * k
            live = live.reshape(w, h, -1)
            live_x[:, z0:z1], live_y[:, z0:z1] = live.any(axis=1), live.any(axis=0)
        else:
            labels = np.zeros(sdf_outer.shape, dtype=np.int16)
            # on a shared surface the inner structure wins: RV, then MYO, then LV
            for c in reversed(FOREGROUND_CLASSES):
                labels[regions[c] <= 0] = c
            second[..., z0:z1] = labels.reshape(w, h, -1)

    two_thread_map(slab, slab_bounds(g.shape))
    return (intensity, second, live_x, live_y) if prior else (intensity, second)


def generate_phantom(
    spec: PhantomSpec, g: GridGeometry, seed: int = 0, pose: np.ndarray | None = None
) -> tuple[Volume, LabelVolume]:
    """The rendered intensity volume, plus the spec's Gaussian noise, and the exact label map."""
    intensity, labels = _render(spec, g, pose)
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        span = max(spec.levels.values()) - min(spec.levels.values())
        intensity += rng.normal(0.0, spec.noise_sigma * span, size=intensity.shape)
    return Volume(g, intensity), LabelVolume(g, labels)


class TaskModule(Protocol):
    """Fixed, differentiable per-voxel class-probability provider.

    Slab contract: a task module works on each target slice (a fixed z) on
    its own, as a per-slice 2D network does. ``restrict(z0, z1, window)``
    returns the module for the whole slices ``z0:z1`` of its grid, or for
    their in-plane window ``(x0, x1, y0, y1)``: its ``evaluate`` and
    ``gradient`` take volumes on ``geometry.z_slab(z0, z1, window)`` and give
    exactly the values the whole-grid module gives there.

    Label bound: ``support(z0, z1)`` is an in-plane window ``(x0, x1, y0,
    y1)`` of the slices ``z0:z1`` outside which the argmax of ``evaluate``
    is class 0 for every input, or None if it is class 0 on all of them.
    A module that cannot bound its labels returns the whole slices, ``(0,
    W, 0, H)``: a per-slice network's receptive field sees the whole slice,
    so its labels can appear anywhere in it.

    Both uses work only inside the support. Task application segments
    there. The registration objective builds one module restricted to each
    slab's support, once, and evaluates the focus term there: where class 0
    is the argmax no foreground probability exceeds 0.5, so a count above a
    threshold r >= 0.5 misses nothing (for r < 0.5 it takes whole slices).
    It passes ``evaluate``'s output to ``gradient`` as ``q``, so the
    forward pass is not repeated.
    """

    geometry: GridGeometry  # the grid it labels

    def evaluate(self, vol: Volume) -> ProbabilityVolume: ...

    def gradient(
        self, vol: Volume, upstream: np.ndarray, q: ProbabilityVolume | None = None
    ) -> np.ndarray: ...

    def restrict(self, z0: int, z1: int, window: tuple[int, int, int, int] | None = None) -> "TaskModule": ...

    def support(self, z0: int, z1: int) -> tuple[int, int, int, int] | None: ...


class AnalyticSegmenter:
    """Closed-form soft segmenter tied to a canonical phantom pose.

    Class logits combine a spatial prior (signed distance of the canonical
    structures, precomputed per voxel) with a shared Gaussian affinity of
    the presented intensity to the canonical-pose intensity template at the
    same voxel. At the canonical pose the affinity is 1 everywhere, so the
    prior dominates and foreground probabilities saturate; any pose offset
    makes the presented intensity disagree with the template and shuts the
    foreground logits down. The computation is per slice in-plane and
    independent across slices.

    The affinity is at most 1, so a foreground logit ``k * prior_c * aff``
    never exceeds ``k * prior_c``, and where no ``k * prior_c`` exceeds the
    background logit ``k / 2`` the argmax is class 0 for any input, ties
    going to class 0. The render of the prior records where some does, as
    the voxels' x and y extents per slice, and ``support`` bounds a range
    of slices by them.
    """

    def __init__(self, spec: PhantomSpec, geometry: GridGeometry):
        self.spec = spec
        self.geometry = geometry
        # the prior has one row per foreground class: the channels q[1:]
        self._template, self._prior, self._live_x, self._live_y = _render(spec, geometry, prior=True)

    def restrict(self, z0: int, z1: int, window: tuple[int, int, int, int] | None = None) -> "AnalyticSegmenter":
        """This segmenter on the slices ``z0:z1``, or on their in-plane window ``(x0, x1, y0, y1)``.

        The prior and the template are contiguous copies of this one's: the
        registration objective reads them on every step, and a full-mode 64³
        step reading strided views took 15 % longer.
        """
        w, h, _ = self.geometry.shape
        x0, x1, y0, y1 = (0, w, 0, h) if window is None else window
        part = copy.copy(self)
        part.geometry = self.geometry.z_slab(z0, z1, window)
        part._prior = np.ascontiguousarray(self._prior[:, x0:x1, y0:y1, z0:z1])
        part._template = np.ascontiguousarray(self._template[x0:x1, y0:y1, z0:z1])
        part._live_x, part._live_y = self._live_x[x0:x1, z0:z1], self._live_y[y0:y1, z0:z1]
        return part

    def support(self, z0: int, z1: int) -> tuple[int, int, int, int] | None:
        """The in-plane bounding box of the slices ``z0:z1`` where some ``k * prior_c > k / 2``,
        or None; tight on a whole-slice segmenter, and a wider bound on a window of one."""
        if not 0 <= z0 < z1 <= self.geometry.shape[2]:
            raise ValidationError(f"slices {z0}:{z1} outside a segmenter grid of depth {self.geometry.shape[2]}")
        xs = np.flatnonzero(self._live_x[:, z0:z1].any(axis=1))
        if xs.size == 0:
            return None
        ys = np.flatnonzero(self._live_y[:, z0:z1].any(axis=1))
        return int(xs[0]), int(xs[-1]) + 1, int(ys[0]), int(ys[-1]) + 1

    def _check(self, vol: Volume):
        if vol.geometry.shape != self.geometry.shape:
            raise ValidationError(
                f"segmenter built for grid {self.geometry.shape}, got {vol.geometry.shape}"
            )

    def _affinity(self, data: np.ndarray):
        """Intensity offset from the template and its Gaussian affinity."""
        diff = data - self._template
        aff = np.square(diff)
        np.negative(aff, out=aff)
        aff /= 2.0 * self.spec.intensity_sigma**2
        return diff, np.exp(aff, out=aff)

    def evaluate(self, vol: Volume) -> ProbabilityVolume:
        self._check(vol)
        k = self.spec.logit_scale
        _, aff = self._affinity(vol.data)
        # the logits, then their softmax over the class axis, in one buffer
        q = np.empty((NUM_CLASSES, *vol.data.shape))
        q[0] = 0.5 * k
        np.multiply(self._prior, k, out=q[1:])
        q[1:] *= aff
        q -= q.max(axis=0, keepdims=True)
        np.exp(q, out=q)
        q /= q.sum(axis=0, keepdims=True)
        return ProbabilityVolume.trusted(vol.geometry, q)

    def gradient(self, vol: Volume, upstream: np.ndarray, q: ProbabilityVolume | None = None) -> np.ndarray:
        """VJP: d(loss)/d(input intensity) given upstream = d(loss)/dq.

        ``q`` is ``evaluate(vol)``; a caller that already holds it passes it
        in, and the softmax is not computed again.
        """
        self._check(vol)
        upstream = np.asarray(upstream, dtype=float)
        if upstream.shape != (NUM_CLASSES, *vol.geometry.shape):
            raise ValidationError("upstream must have one channel per class")
        if q is None:
            q = self.evaluate(vol)
        q = q.q
        daff, aff = self._affinity(vol.data)
        # d(aff)/d(intensity) = -diff / sigma^2 * aff, in diff's buffer
        np.negative(daff, out=daff)
        daff /= self.spec.intensity_sigma**2
        daff *= aff
        del aff
        # softmax VJP sum_c U_c q_c (dz_c - sum_m q_m dz_m) with the logit
        # derivatives dz_c = k prior_c daff and dz_0 = 0, so with prior_0 = 0
        # it is k daff sum_c U_c q_c (prior_c - sum_m q_m prior_m)
        mean_prior = np.einsum("c...,c...->...", q[1:], self._prior)
        uq = upstream * q
        s = np.einsum("c...,c...->...", uq[1:], self._prior)
        mean_prior *= uq.sum(axis=0)
        del uq
        s -= mean_prior
        daff *= self.spec.logit_scale
        daff *= s
        return daff


def world_rigid(angles: tuple[float, float, float], translation_mm: tuple[float, float, float]) -> np.ndarray:
    """World-space rigid matrix with the same rotation convention as the layer."""
    m = np.eye(4)
    m[:3, :3] = rotation_matrix(*angles)
    m[:3, 3] = np.asarray(translation_mm, dtype=float)
    return m


@dataclass(frozen=True)
class PhantomPair:
    i: Volume
    j: Volume
    labels_i: LabelVolume
    labels_j: LabelVolume
    gt_m: np.ndarray
    gt_m_inv: np.ndarray


def make_pair(
    spec: PhantomSpec,
    rel: np.ndarray,
    grid: tuple[int, int, int] = (64, 64, 64),
    iso: float = 1.5,
    ax_spacing: tuple[float, float, float] | None = None,
    sax_spacing: tuple[float, float, float] | None = None,
    seed: int = 0,
) -> PhantomPair:
    """Render two views of one phantom related by the world rigid map ``rel``.

    The first view i (the "axial" role) samples the phantom displaced by
    rel o pose; the second view j (the "short-axis" role) samples it at the
    canonical pose, each optionally on its own anisotropic acquisition
    grid. Both are then preprocessed onto the common isotropic grid.
    ``gt_m`` is the exact relative transform in normalized coordinates of
    that grid: transform_volume(i, gt_m) reproduces j up to interpolation,
    and a segmenter built at the canonical pose is confident on that output.
    """
    if seed < 0:
        raise ValidationError(f"noise seed must be non-negative, got {seed}")
    for name, spacing in (("iso", (iso,) * 3), ("ax", ax_spacing), ("sax", sax_spacing)):
        values = np.asarray((iso,) * 3 if spacing is None else spacing, dtype=float)
        if values.shape != (3,) or not np.all(np.isfinite(values) & (values > 0)):
            raise ValidationError(f"{name} spacing must be 3 finite positive values, got {spacing}")
    rel = np.asarray(rel, dtype=float)
    extent = np.asarray(grid, dtype=float) * iso

    def acquisition_geometry(spacing):
        if spacing is None:
            return GridGeometry.isotropic(grid, iso)
        spacing = np.asarray(spacing, dtype=float)
        shape = tuple(max(2, int(round(e / s)) + 1) for e, s in zip(extent, spacing))
        origin = -spacing * (np.asarray(shape, dtype=float) - 1.0) / 2.0
        return GridGeometry(shape, spacing, origin, np.eye(3))

    g_ax = acquisition_geometry(ax_spacing)
    g_sax = acquisition_geometry(sax_spacing)

    vol_i, lab_i = generate_phantom(spec, g_ax, seed=seed, pose=rel @ spec.pose)
    vol_j, lab_j = generate_phantom(spec, g_sax, seed=seed + 1, pose=spec.pose)

    def preprocess(vol):
        out = resample_isotropic(vol, iso)
        out = pad_to_grid(out, grid)
        return clip_and_normalize(out)

    i_pre = preprocess(vol_i)
    j_pre = preprocess(vol_j)
    lab_i_pre = preprocess_labels(lab_i, iso, grid)
    lab_j_pre = preprocess_labels(lab_j, iso, grid)

    n2w_i = i_pre.geometry.normalized_to_world_matrix()
    n2w_j = j_pre.geometry.normalized_to_world_matrix()
    rel_inv = np.linalg.inv(rel)
    gt_m = np.linalg.inv(n2w_i) @ rel @ n2w_j
    gt_m_inv = np.linalg.inv(n2w_j) @ rel_inv @ n2w_i
    return PhantomPair(i_pre, j_pre, lab_i_pre, lab_j_pre, gt_m, gt_m_inv)
