"""Trilinear interpolation kernel tests against independent references, and the two-thread map."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from rigidda.interp import SLAB_VOXELS, trilinear, trilinear_with_grad, two_thread_map
from conftest import needs_two_cpus


def _random_coords(rng, shape, n, margin=0.0):
    return [rng.uniform(margin, s - 1 - margin, n) for s in shape]


def _oracle_trilinear(data, ix, iy, iz):
    """The kernel as it was before chunking: eight whole-array gathers, lerps along x, y, z."""

    def cell(idx, n):
        i0 = np.clip(np.ceil(idx) - 1.0, 0.0, max(n - 2, 0)).astype(np.intp)
        return i0, idx - i0

    w, h, d = data.shape
    x0, fx = cell(np.clip(ix, 0.0, w - 1.0), w)
    y0, fy = cell(np.clip(iy, 0.0, h - 1.0), h)
    z0, fz = cell(np.clip(iz, 0.0, d - 1.0), d)
    sx = h * d if w > 1 else 0
    sy = d if h > 1 else 0
    sz = 1 if d > 1 else 0
    flat = (x0 * h + y0) * d + z0
    r = np.ascontiguousarray(data).reshape(-1)
    c000, c100, c010, c110 = (r.take(flat + o) for o in (0, sx, sy, sx + sy))
    c001, c101, c011, c111 = (r.take(flat + sz + o) for o in (0, sx, sy, sx + sy))
    gx = 1.0 - fx
    gy = 1.0 - fy
    c00 = c000 * gx + c100 * fx
    c10 = c010 * gx + c110 * fx
    c01 = c001 * gx + c101 * fx
    c11 = c011 * gx + c111 * fx
    c0 = c00 * gy + c10 * fy
    c1 = c01 * gy + c11 * fy
    return c0 * (1.0 - fz) + c1 * fz


S = SLAB_VOXELS
# sample layouts: (N,) runs on both sides of every chunk boundary, and
# (W, H, D) blocks of S - 1, S and S + 1 samples
_COORD_SHAPES = [(1,), (17,), (S - 1,), (S,), (S + 1,), (2 * S + 3,), (3, 43, 127), (16, 32, 32), (5, 29, 113), (7, 6, 5)]


def _mixed_coords(rng, data_shape, coord_shape):
    """Per axis: interior samples, samples far outside the grid and exact lattice points."""
    coords = []
    for n in data_shape:
        inside = rng.uniform(0.0, n - 1.0, coord_shape)
        far = rng.uniform(-10.0 * n - 5.0, 11.0 * n + 5.0, coord_shape)
        lattice = rng.integers(-2, n + 2, coord_shape).astype(float)
        kind = rng.integers(0, 3, coord_shape)
        coords.append(np.choose(kind, [inside, far, lattice]))
    return coords


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
    @settings(max_examples=30)
    def test_convex_combination_bounds(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(5, 5, 5))
        ix, iy, iz = _random_coords(rng, data.shape, 64)
        out = trilinear(data, ix, iy, iz)
        assert np.all(out >= data.min() - 1e-12)
        assert np.all(out <= data.max() + 1e-12)


class TestChunkedKernelMatchesOracle:
    """The chunked kernel gives the old whole-array kernel's bytes, chunk boundaries included."""

    @given(
        st.integers(0, 2**31 - 1),
        st.tuples(*[st.sampled_from([1, 2, 3, 5, 7])] * 3),
        st.sampled_from(_COORD_SHAPES),
    )
    @settings(max_examples=60)
    def test_byte_identical(self, seed, data_shape, coord_shape):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=data_shape)
        ix, iy, iz = _mixed_coords(rng, data_shape, coord_shape)
        out = trilinear(data, ix, iy, iz)
        ref = _oracle_trilinear(data, ix, iy, iz)
        assert out.shape == ref.shape == coord_shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

    def test_meshgrid_input_as_isotropic_resampling_passes_it(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(20, 18, 9))
        axes = [np.arange(n) * step for n, step in zip((39, 35, 25), (0.5, 0.5, 1.0 / 3.0))]
        ix, iy, iz = np.meshgrid(*axes, indexing="ij")
        assert ix.size > 2 * SLAB_VOXELS
        out = trilinear(data, ix, iy, iz)
        assert out.shape == ix.shape
        assert out.tobytes() == _oracle_trilinear(data, ix, iy, iz).tobytes()


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


class TestTwoThreadMap:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 16])
    def test_results_in_item_order(self, n):
        assert two_thread_map(lambda x: x * x, list(range(n))) == [x * x for x in range(n)]

    @needs_two_cpus
    def test_no_thread_outlives_a_call(self):
        def helpers():
            return [t.name for t in threading.enumerate() if t.name.startswith("rigidda-slab")]

        threads = threading.active_count()
        assert two_thread_map(lambda x: x * x, list(range(8))) == [x * x for x in range(8)]
        assert threading.active_count() == threads
        assert helpers() == []

        def fails_on_3(x):
            if x == 3:
                raise ValueError("item 3")
            return x

        with pytest.raises(ValueError, match="item 3"):
            two_thread_map(fails_on_3, list(range(8)))
        assert threading.active_count() == threads
        assert helpers() == []

    def test_one_cpu_runs_the_plain_loop_on_the_caller(self, one_cpu):
        threads = two_thread_map(lambda x: threading.current_thread(), list(range(5)))
        assert threads == [threading.current_thread()] * 5

    @needs_two_cpus
    def test_nested_call_returns_the_serial_result_on_either_thread(self):
        """An item that calls ``two_thread_map`` itself, on the caller and on the
        helper alike, gets the serial result and does not wait on itself."""
        helper_ran = threading.Event()
        ran_on = set()
        out = {}

        def outer(x):
            # the caller's items wait until the helper has taken one of its own
            if threading.current_thread() is caller:
                assert helper_ran.wait(timeout=30)
            else:
                helper_ran.set()
            ran_on.add(threading.current_thread())
            return two_thread_map(lambda y: (x, y * y), list(range(6)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=lambda: out.setdefault("result", two_thread_map(outer, list(range(8)))))
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert out["result"] == [[(x, y * y) for y in range(6)] for x in range(8)]
        assert caller in ran_on and len(ran_on) == 2
