"""Analytic cardiac-like phantoms and the pluggable task-module interface.

The phantom is built from nested ellipsoids (LV blood pool, myocardial
shell, RV crescent) rendered as smooth signed-distance sigmoids, with an
exact label map. The analytic segmenter stands in for an injected
pre-trained segmentation network: it is pose-sensitive by construction and
only produces confident class probabilities where the presented volume
matches its canonical pose.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import ValidationError
from .io import json_numbers, parse_json
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
    center: tuple[float, float, float]
    semi_axes: tuple[float, float, float]

    def sdf(self, points_mm: np.ndarray) -> np.ndarray:
        """Approximate signed distance in mm; negative inside."""
        c = np.asarray(self.center, dtype=float)
        a = np.asarray(self.semi_axes, dtype=float)
        if np.any(a <= 0):
            raise ValidationError("ellipsoid semi-axes must be positive")
        rel = (points_mm - c) / a
        return (np.linalg.norm(rel, axis=-1) - 1.0) * float(a.min())


_ELLIPSOIDS = ("lv", "myo_outer", "rv")
_TISSUES = ("background", "LV", "MYO", "RV")
_SPEC_SCALARS = ("sigma_mm", "noise_sigma", "logit_scale", "prior_sigma_mm", "prior_bias_mm", "intensity_sigma")


@dataclass
class PhantomSpec:
    """Nested-ellipsoid phantom description, all lengths in mm."""

    lv: Ellipsoid = field(default_factory=lambda: Ellipsoid((0.0, 0.0, 0.0), (18.0, 18.0, 30.0)))
    myo_outer: Ellipsoid = field(default_factory=lambda: Ellipsoid((0.0, 0.0, 0.0), (26.0, 26.0, 38.0)))
    rv: Ellipsoid = field(default_factory=lambda: Ellipsoid((-24.0, 0.0, 0.0), (16.0, 20.0, 26.0)))
    levels: dict = field(
        default_factory=lambda: {"background": 0.0, "LV": 1.0, "MYO": 0.55, "RV": 0.75}
    )
    sigma_mm: float = 1.0
    noise_sigma: float = 0.01
    logit_scale: float = 40.0
    prior_sigma_mm: float = 0.5
    prior_bias_mm: float = 0.5
    intensity_sigma: float = 0.1
    pose: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        self.pose = np.asarray(self.pose, dtype=float)
        if self.pose.shape != (4, 4):
            raise ValidationError("pose must be a 4x4 homogeneous matrix")
        if self.sigma_mm <= 0:
            raise ValidationError("smoothness width must be positive")

    def scaled(self, factor: float) -> "PhantomSpec":
        """Geometrically scaled copy (centers, semi-axes, smoothing width)."""

        def scale_ell(e: Ellipsoid) -> Ellipsoid:
            return Ellipsoid(
                tuple(c * factor for c in e.center),
                tuple(a * factor for a in e.semi_axes),
            )

        return PhantomSpec(
            lv=scale_ell(self.lv),
            myo_outer=scale_ell(self.myo_outer),
            rv=scale_ell(self.rv),
            levels=dict(self.levels),
            sigma_mm=self.sigma_mm * factor,
            noise_sigma=self.noise_sigma,
            logit_scale=self.logit_scale,
            prior_sigma_mm=self.prior_sigma_mm * factor,
            prior_bias_mm=self.prior_bias_mm * factor,
            intensity_sigma=self.intensity_sigma,
            pose=self.pose.copy(),
        )

    def to_json(self) -> str:
        ellipsoids = {name: asdict(getattr(self, name)) for name in _ELLIPSOIDS}
        scalars = {name: getattr(self, name) for name in _SPEC_SCALARS}
        pose = np.asarray(self.pose).reshape(16).tolist()
        return json.dumps({**ellipsoids, "levels": self.levels, **scalars, "pose": pose}, indent=2)

    @classmethod
    def from_json(cls, text: str | bytes) -> "PhantomSpec":
        """Parse the ``to_json`` layout; absent entries keep their defaults.

        Every entry is checked here, so a malformed spec raises ValidationError.
        """
        raw = parse_json(text, "phantom spec")
        if not isinstance(raw, dict):
            raise ValidationError("phantom spec must be a JSON object")
        kwargs = {}
        for name in _ELLIPSOIDS:
            if name in raw:
                ell = raw[name] if isinstance(raw[name], dict) else {}
                axes = (json_numbers(ell.get(k), ((3,),), f"phantom spec {name}.{k}") for k in ("center", "semi_axes"))
                kwargs[name] = Ellipsoid(*(tuple(a.tolist()) for a in axes))
        if "levels" in raw:
            levels = raw["levels"]
            if not isinstance(levels, dict) or sorted(levels) != sorted(_TISSUES):
                raise ValidationError(f"phantom spec levels must give exactly {', '.join(_TISSUES)}")
            kwargs["levels"] = {k: float(json_numbers(v, ((),), f"phantom spec levels.{k}")) for k, v in levels.items()}
        for name in _SPEC_SCALARS:
            if name in raw:
                kwargs[name] = float(json_numbers(raw[name], ((),), f"phantom spec {name}"))
        if "pose" in raw:
            kwargs["pose"] = check_rigid(parse_matrix(raw["pose"], "phantom spec pose"), "phantom spec pose")
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


def _render(spec: PhantomSpec, g: GridGeometry, pose: np.ndarray | None = None):
    """Noise-free intensity, exact labels and region SDFs of the phantom at ``pose``
    (default: the spec's), each on ``g``."""
    pose = spec.pose if pose is None else np.asarray(pose, dtype=float)
    # world voxel centers mapped into the phantom's canonical frame
    vox = np.stack(np.meshgrid(*[np.arange(n) for n in g.shape], indexing="ij"), axis=-1).reshape(-1, 3)
    inv = np.linalg.inv(pose)
    regions, sdf_outer = _region_sdfs(spec, g.world_from_voxel(vox) @ inv[:3, :3].T + inv[:3, 3])
    intensity = np.full(sdf_outer.shape, float(spec.levels["background"]))
    for sdf, tissue in ((sdf_outer, "MYO"), (regions[LABEL_LV], "LV"), (regions[LABEL_RV], "RV")):
        w_in = _sigmoid(-sdf / spec.sigma_mm)
        intensity = intensity * (1.0 - w_in) + spec.levels[tissue] * w_in
    labels = np.zeros(sdf_outer.shape, dtype=np.int16)
    # on a shared surface the inner structure wins: RV, then MYO, then LV
    for c in reversed(FOREGROUND_CLASSES):
        labels[regions[c] <= 0] = c
    shape = g.shape
    return intensity.reshape(shape), labels.reshape(shape), {c: r.reshape(shape) for c, r in regions.items()}


def generate_phantom(
    spec: PhantomSpec,
    g: GridGeometry,
    noise_sigma: float | None = None,
    seed: int = 0,
    pose: np.ndarray | None = None,
) -> tuple[Volume, LabelVolume]:
    """The rendered intensity volume, plus Gaussian noise, and the exact label map."""
    intensity, labels, _ = _render(spec, g, pose)
    sigma = spec.noise_sigma if noise_sigma is None else noise_sigma
    if sigma > 0:
        rng = np.random.default_rng(seed)
        span = max(spec.levels.values()) - min(spec.levels.values())
        intensity = intensity + rng.normal(0.0, sigma * span, size=intensity.shape)
    return Volume(g, intensity), LabelVolume(g, labels)


class TaskModule(Protocol):
    """Fixed, differentiable per-voxel class-probability provider.

    Slab contract: a task module works on each target slice (a fixed z) on
    its own, as a per-slice 2D network does. ``restrict(z0, z1)`` returns the
    module for the whole slices ``z0:z1`` of its grid: its ``evaluate`` and
    ``gradient`` take volumes on ``geometry.z_slab(z0, z1)`` and give exactly
    the values the whole-grid module gives on those slices. The registration
    objective builds one restricted module per slab, once, and evaluates the
    focus term slab by slab. It passes each slab's ``evaluate`` output to
    ``gradient`` as ``q``, so the forward pass is not repeated.
    """

    def evaluate(self, vol: Volume) -> ProbabilityVolume: ...

    def gradient(
        self, vol: Volume, upstream: np.ndarray, q: ProbabilityVolume | None = None
    ) -> np.ndarray: ...

    def restrict(self, z0: int, z1: int) -> "TaskModule": ...


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
    """

    def __init__(self, spec: PhantomSpec, geometry: GridGeometry, pose: np.ndarray | None = None):
        self.spec = spec
        self.geometry = geometry
        self._template, _, regions = _render(spec, geometry, pose)
        # small outward bias keeps voxels right at a structure surface confident
        # one row per foreground class: the channels q[1:]
        self._prior = np.stack(
            [_sigmoid((spec.prior_bias_mm - regions[c]) / spec.prior_sigma_mm) for c in FOREGROUND_CLASSES]
        )

    def restrict(self, z0: int, z1: int) -> "AnalyticSegmenter":
        """This segmenter on the slices ``z0:z1``, with contiguous copies of its fields."""
        part = copy.copy(self)
        part.geometry = self.geometry.z_slab(z0, z1)
        part._prior = np.ascontiguousarray(self._prior[..., z0:z1])
        part._template = np.ascontiguousarray(self._template[..., z0:z1])
        return part

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
    noise_sigma: float | None = None,
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

    vol_i, lab_i = generate_phantom(
        spec, g_ax, noise_sigma=noise_sigma, seed=seed, pose=rel @ spec.pose
    )
    vol_j, lab_j = generate_phantom(spec, g_sax, noise_sigma=noise_sigma, seed=seed + 1, pose=spec.pose)

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
