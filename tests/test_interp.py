"""Trilinear interpolation kernel tests against independent references."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from rigidda.interp import trilinear, trilinear_with_grad


def _random_coords(rng, shape, n, margin=0.0):
    return [rng.uniform(margin, s - 1 - margin, n) for s in shape]


class TestTrilinearValues:
    def test_lattice_points_exact(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(6, 5, 4))
        ix, iy, iz = np.meshgrid(
            np.arange(6.0), np.arange(5.0), np.arange(4.0), indexing="ij"
        )
        out = trilinear(data, ix.ravel(), iy.ravel(), iz.ravel())
        np.testing.assert_array_equal(out.reshape(data.shape), data)

    def test_matches_scipy_map_coordinates(self):
        # independent oracle: order-1 spline interpolation on interior points
        rng = np.random.default_rng(1)
        data = rng.normal(size=(9, 8, 7))
        ix, iy, iz = _random_coords(rng, data.shape, 500)
        ours = trilinear(data, ix, iy, iz)
        ref = ndimage.map_coordinates(data, np.stack([ix, iy, iz]), order=1)
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_out_of_range_clamped_to_edge(self):
        data = np.arange(24, dtype=float).reshape(4, 3, 2)
        lo = trilinear(data, np.array([-5.0]), np.array([-5.0]), np.array([-5.0]))
        hi = trilinear(data, np.array([99.0]), np.array([99.0]), np.array([99.0]))
        assert lo[0] == data[0, 0, 0]
        assert hi[0] == data[-1, -1, -1]

    def test_degenerate_single_voxel_axis(self):
        data = np.arange(12, dtype=float).reshape(4, 1, 3)
        out = trilinear(data, np.array([1.5]), np.array([0.0]), np.array([1.0]))
        assert out[0] == 0.5 * (data[1, 0, 1] + data[2, 0, 1])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_convex_combination_bounds(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(5, 5, 5))
        ix, iy, iz = _random_coords(rng, data.shape, 64)
        out = trilinear(data, ix, iy, iz)
        assert np.all(out >= data.min() - 1e-12)
        assert np.all(out <= data.max() + 1e-12)


class TestTrilinearGradient:
    def test_value_consistent_with_plain_kernel(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(7, 6, 5))
        ix, iy, iz = _random_coords(rng, data.shape, 300)
        value, _ = trilinear_with_grad(data, ix, iy, iz)
        np.testing.assert_allclose(value, trilinear(data, ix, iy, iz), atol=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(8, 8, 8))
        # keep samples away from lattice planes so the kernel is smooth there
        ix, iy, iz = [np.floor(c) + np.clip(c - np.floor(c), 0.2, 0.8)
                      for c in _random_coords(rng, data.shape, 200, margin=0.5)]
        _, (dx, dy, dz) = trilinear_with_grad(data, ix, iy, iz)
        h = 1e-6
        for grad, (px, py, pz) in (
            (dx, (h, 0, 0)),
            (dy, (0, h, 0)),
            (dz, (0, 0, h)),
        ):
            fd = (
                trilinear(data, ix + px, iy + py, iz + pz)
                - trilinear(data, ix - px, iy - py, iz - pz)
            ) / (2 * h)
            np.testing.assert_allclose(grad, fd, atol=1e-8)

    def test_left_subgradient_at_lattice(self):
        # at an interior lattice point the derivative is the left-cell slope
        data = np.zeros((5, 3, 3))
        data[:, 1, 1] = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
        _, (dx, _, _) = trilinear_with_grad(
            data, np.array([2.0]), np.array([1.0]), np.array([1.0])
        )
        assert dx[0] == data[2, 1, 1] - data[1, 1, 1]
