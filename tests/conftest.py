"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from rigidda import interp
from rigidda.errors import NumericalError
from rigidda.phantom import AnalyticSegmenter, PhantomSpec, make_pair, world_rigid
from rigidda.volume import GridGeometry, Volume

# one profile for every property: no per-example deadline, which a slow
# first numpy call would trip; each test sets its own max_examples
settings.register_profile("rigidda", deadline=None)
settings.load_profile("rigidda")


needs_two_cpus = pytest.mark.skipif(interp._usable_cpus() < 2, reason="needs two usable CPUs")


def force_one_cpu(mp: pytest.MonkeyPatch):
    """Under the monkeypatch ``mp``, ``two_thread_map`` sees one usable CPU and
    runs the plain loop, and no slab worker is forked."""
    mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def one_cpu(monkeypatch):
    """The test runs as on a one-CPU machine."""
    force_one_cpu(monkeypatch)


@pytest.fixture(params=["one CPU", "two threads"])
def threads(request, monkeypatch):
    """The test runs as on a one-CPU machine, or on two threads with the
    interpreter switching between them as often as it can."""
    if request.param == "one CPU":
        force_one_cpu(monkeypatch)
        yield
        return
    if interp._usable_cpus() < 2:
        pytest.skip("needs two usable CPUs")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def traced_peak(fn) -> int:
    """Bytes ``fn()`` allocates at its peak above what was live before, after one warm-up call."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_geometry():
    return GridGeometry.isotropic((8, 7, 6), 1.0)


@pytest.fixture
def cube_geometry():
    return GridGeometry.isotropic((16, 16, 16), 1.5)


def smooth_field(g: GridGeometry, seed: int = 0, kmax: float = 1.2) -> Volume:
    """Smooth compact-support test volume.

    A Gaussian envelope forces the intensity to ~0 well inside the grid
    border, so finite-difference checks are not polluted by the validity
    mask jumping at the +-1 boundary. The sinusoid mixture keeps the
    spatial gradient informative everywhere under the envelope.
    """
    rng = np.random.default_rng(seed)
    nx, ny, nz = g.normalized_grid()
    envelope = np.exp(-(nx**2 + ny**2 + nz**2) / (2.0 * 0.25**2))
    waves = np.zeros_like(nx)
    for _ in range(6):
        k = rng.uniform(-kmax, kmax, size=3)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        waves += np.sin(np.pi * (k[0] * nx + k[1] * ny + k[2] * nz) + phase)
    return Volume(g, envelope * (waves / 6.0 + 0.5))


def compact_spec() -> PhantomSpec:
    """Phantom scaled to keep a wide zero-intensity margin on a small grid."""
    return PhantomSpec(noise_sigma=0.0).scaled(0.6)


# one phantom spec value out of range per field, each of which the spec once took
BAD_SPEC_VALUES = {"intensity_sigma": 0.0, "noise_sigma": -1.0, "logit_scale": 0.0, "prior_sigma_mm": 0.0}


def gentle_task_spec() -> PhantomSpec:
    """Compact, smooth phantom with soft, wide-basin segmenter probabilities.

    Used by finite-difference gradient checks. Three properties matter:
    intensities reach ~0 well before the grid border (no validity-boundary
    jumps inside the difference stencil), the rendering is smooth on the
    voxel scale (trilinear kinks stay below the tolerance), and the
    segmenter is far from saturation (the focus surrogate actually moves).
    """
    spec = PhantomSpec(noise_sigma=0.0).scaled(0.45)
    return dataclasses.replace(
        spec, sigma_mm=1.5, prior_sigma_mm=1.5, prior_bias_mm=0.0, intensity_sigma=0.3, logit_scale=8.0
    )


def central_difference(fn, vec: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    vec = np.asarray(vec, dtype=float)
    grad = np.zeros_like(vec)
    for k in range(vec.size):
        up = vec.copy()
        dn = vec.copy()
        up[k] += h
        dn[k] -= h
        grad[k] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def gradient_scale_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Worst component error relative to the gradient's own scale."""
    denom = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-300)
    return float(np.abs(analytic - fd).max() / denom)


def pair_on(grid):
    """A criterion-4 style pair on ``grid`` at 1.5 mm, and a segmenter for it."""
    spec = PhantomSpec().scaled(min(grid) / 64.0)
    rel = world_rigid((0.3, -0.2, 0.25), (6.0, -4.0, 3.0))
    pair = make_pair(spec, rel, grid=grid, iso=1.5, seed=4)
    return pair, AnalyticSegmenter(spec, pair.i.geometry)


class FailingTask:
    """A task module whose restricted modules raise NumericalError where ``fails_here(z0)`` holds."""

    def __init__(self, task, fails_here):
        self.task = task
        self.geometry = task.geometry
        self.fails_here = fails_here

    def support(self, z0, z1):
        return self.task.support(z0, z1)

    def restrict(self, z0, z1, window=None):
        part = self.task.restrict(z0, z1, window)
        fails_here = self.fails_here

        class Part:
            geometry = part.geometry
            gradient = staticmethod(part.gradient)

            @staticmethod
            def evaluate(vol):
                if fails_here(z0):
                    raise NumericalError(f"slab failed at z0={z0}")
                return part.evaluate(vol)

        return Part()
