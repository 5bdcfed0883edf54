"""Pull-warp resampler tests: exact identities, oracles, validity, VJP."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidda.errors import ValidationError
from rigidda.interp import slab_bounds, trilinear_with_grad
from rigidda.phantom import AnalyticSegmenter, PhantomSpec, generate_phantom, make_pair, world_rigid
from rigidda.pipeline import apply_task
from rigidda.resampler import (
    _source_samples,
    target_coords,
    transform_labels,
    transform_volume,
    transform_volume_with_tape,
)
from rigidda.rigid import RigidParams, affine_jacobian, euler_to_affine
from rigidda.volume import GridGeometry, LabelVolume, Volume
import oracles
from conftest import central_difference, smooth_field


def _translation_matrix(t):
    m = np.eye(4)
    m[:3, 3] = t
    return m


class TestIdentityAndShifts:
    def test_identity_bit_exact(self, rng):
        g = GridGeometry.isotropic((9, 8, 7), 1.0)
        vol = Volume(g, rng.normal(size=g.shape))
        out = transform_volume(vol, np.eye(4), g)
        np.testing.assert_array_equal(out.image.data, vol.data)
        np.testing.assert_array_equal(out.validity, np.ones(g.shape))

    def test_integer_voxel_shift_matches_roll(self, rng):
        n = 11
        g = GridGeometry.isotropic((n, n, n), 1.0)
        vol = Volume(g, rng.normal(size=g.shape))
        # normalized shift of exactly 2 voxels along x
        m = _translation_matrix([2.0 * 2.0 / (n - 1.0), 0.0, 0.0])
        out = transform_volume(vol, m, g)
        # pull warp: target voxel x reads source voxel x + 2
        expected = np.roll(vol.data, -2, axis=0)
        np.testing.assert_allclose(out.image.data[:-2], expected[:-2], atol=1e-12)
        assert np.all(out.validity[-2:] == 0.0)
        assert np.all(out.image.data[-2:] == 0.0)

    def test_quarter_turn_matches_rot90(self, rng):
        n = 10
        g = GridGeometry.isotropic((n, n, n), 1.0)
        vol = Volume(g, rng.normal(size=g.shape))
        m = euler_to_affine(RigidParams(psi=np.pi / 2)).m
        out = transform_volume(vol, m, g)
        np.testing.assert_allclose(out.image.data, np.rot90(vol.data, k=-1, axes=(0, 1)), atol=1e-9)
        np.testing.assert_array_equal(out.validity, np.ones(g.shape))

    def test_out_of_bounds_zero_filled_invalid(self, rng):
        g = GridGeometry.isotropic((8, 8, 8), 1.0)
        vol = Volume(g, rng.uniform(1.0, 2.0, size=g.shape))
        out = transform_volume(vol, _translation_matrix([5.0, 0.0, 0.0]), g)
        assert np.all(out.validity == 0.0)
        assert np.all(out.image.data == 0.0)

    def test_warped_images_are_read_only_and_pass_the_volume_checks(self, rng):
        """The warps wrap their output unchecked; the checking constructor accepts it as it is."""
        g = GridGeometry.isotropic((8, 7, 6), 1.0)
        vol = Volume(g, rng.normal(size=g.shape))
        m = euler_to_affine(RigidParams.from_vector(np.full(9, 0.1))).m
        for image in (transform_volume(vol, m, g).image, transform_volume_with_tape(vol, m, g).result.image):
            assert not image.data.flags.writeable
            with pytest.raises(ValueError):
                image.data[0, 0, 0] = 1.0
            np.testing.assert_array_equal(Volume(g, image.data).data, image.data)

    def test_target_coords_shape_and_corners(self):
        g = GridGeometry.isotropic((4, 3, 5), 1.0)
        c = target_coords(g)
        assert c.shape == (4, g.num_voxels)
        np.testing.assert_array_equal(c[:, 0], [-1.0, -1.0, -1.0, 1.0])
        np.testing.assert_array_equal(c[:, -1], [1.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(c[3], np.ones(g.num_voxels))


class TestRoundTrip:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10)
    def test_warp_unwarp_small_error(self, seed):
        rng = np.random.default_rng(seed)
        g = GridGeometry.isotropic((24, 24, 24), 1.0)
        vol = smooth_field(g, seed=seed)
        p = RigidParams.from_vector(
            np.concatenate([rng.uniform(-0.4, 0.4, 3), rng.uniform(-0.15, 0.15, 3), np.zeros(3)])
        )
        mats = euler_to_affine(p)
        fwd = transform_volume(vol, mats.m, g)
        back = transform_volume(fwd.image, mats.m_inv, g)
        joint = back.validity * transform_volume(
            Volume(g, fwd.validity), mats.m_inv, g
        ).image.data
        joint = joint > 0.999
        span = vol.data.max() - vol.data.min()
        err = (back.image.data - vol.data)[joint]
        assert np.sqrt(np.mean(err**2)) < 0.02 * span


class TestLabelResampling:
    def _pair(self, seed=0, n=12):
        rng = np.random.default_rng(seed)
        g = GridGeometry.isotropic((n, n, n), 1.0)
        labels = LabelVolume(g, rng.integers(0, 4, size=g.shape).astype(np.int16))
        p = RigidParams.from_vector(
            np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.3, 0.3, 3), np.zeros(3)])
        )
        return labels, euler_to_affine(p).m, g

    def test_output_is_disjoint_map(self):
        labels, m, g = self._pair()
        out = transform_labels(labels, m, g)
        assert out.data.dtype == np.int16
        assert set(np.unique(out.data)) <= {0, 1, 2, 3}

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_to_one_hot_scale(self, seed):
        labels, m, g = self._pair(seed)
        a = transform_labels(labels, m, g, scale=100.0)
        b = transform_labels(labels, m, g, scale=1.0)
        np.testing.assert_array_equal(a.data, b.data)

    def test_identity_preserves_labels(self):
        labels, _, g = self._pair()
        out = transform_labels(labels, np.eye(4), g)
        np.testing.assert_array_equal(out.data, labels.data)

    def test_out_of_bounds_becomes_background(self):
        labels, _, g = self._pair()
        out = transform_labels(labels, _translation_matrix([10.0, 0.0, 0.0]), g)
        assert np.all(out.data == 0)

    @pytest.mark.parametrize("lo,hi", [(1, 3), (3, 1), (0, 2), (2, 0)])
    def test_exact_tie_goes_to_lower_id(self, lo, hi):
        g = GridGeometry((2, 2, 2), [1.0, 2.0, 3.0], np.zeros(3), np.eye(3))
        data = np.full(g.shape, lo, dtype=np.int16)
        data[1] = hi
        # half a voxel along x: x = 0 samples index 0.5, between the two classes
        # with equal weight; x = 1 samples index 1.5, outside the source
        out = transform_labels(LabelVolume(g, data), _translation_matrix([1.0, 0.0, 0.0]), g)
        np.testing.assert_array_equal(out.data[0], min(lo, hi))
        np.testing.assert_array_equal(out.data[1], 0)

    @pytest.mark.parametrize("scale", [-1.0, -1e-300, np.nan, np.inf, -np.inf, 1e-320])
    def test_negative_non_finite_or_subnormal_scale_is_rejected(self, scale):
        labels, m, g = self._pair()
        with pytest.raises(ValidationError):
            transform_labels(labels, m, g, scale=scale)

    def test_zero_scale_is_all_background(self):
        labels, _, g = self._pair()
        assert not transform_labels(labels, np.eye(4), g, scale=0.0).data.any()

    @given(
        shape=st.tuples(*[st.sampled_from([2, 3, 5, 9])] * 3),
        spacing=st.tuples(*[st.sampled_from([0.75, 1.0, 1.5, 3.0])] * 3),
        half_voxels=st.tuples(*[st.integers(-5, 5)] * 3),
        scale=st.sampled_from([0.0, 1.0, 100.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60)
    def test_half_voxel_shifts_match_stacked_argmax(self, shape, spacing, half_voxels, scale, seed):
        # n - 1 is a power of two, so half-voxel offsets are exact and every
        # sample between two differently labelled voxels is an exact tie
        rng = np.random.default_rng(seed)
        g = GridGeometry(shape, spacing, rng.normal(size=3), np.eye(3))
        classes = rng.choice(4, size=2, replace=False)
        labels = LabelVolume(g, classes[rng.integers(0, 2, size=shape)])
        m = _translation_matrix([h / (n - 1) for h, n in zip(half_voxels, shape)])
        out = transform_labels(labels, m, g, scale=scale)
        assert out.data.tobytes() == oracles.transform_labels(labels, m, g, scale).tobytes()

    @given(seed=st.integers(0, 2**31 - 1), scale=st.sampled_from([0.0, 1.0, 100.0]))
    @settings(max_examples=60)
    def test_random_affines_match_stacked_argmax(self, seed, scale):
        rng = np.random.default_rng(seed)

        def grid():
            spacing = rng.choice([0.5, 1.0, 1.5, 3.0], size=3)
            return GridGeometry(tuple(rng.integers(2, 10, 3)), spacing, rng.normal(size=3), np.eye(3))

        src, target = grid(), grid()
        labels = LabelVolume(src, rng.integers(0, 4, size=src.shape))
        m = np.eye(4)
        m[:3, :3] += rng.normal(scale=0.3, size=(3, 3))
        m[:3, 3] = rng.normal(scale=0.5, size=3)  # often far enough to leave the source
        out = transform_labels(labels, m, target, scale=scale)
        assert out.data.tobytes() == oracles.transform_labels(labels, m, target, scale).tobytes()


class TestTapeVjp:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mse_gradient_matches_finite_differences(self, seed):
        g = GridGeometry.isotropic((20, 20, 20), 1.0)
        vol = smooth_field(g, seed=seed)
        ref = smooth_field(g, seed=seed + 50)
        base = np.concatenate(
            [
                np.random.default_rng(seed).uniform(-0.3, 0.3, 3),
                np.random.default_rng(seed + 1).uniform(-0.1, 0.1, 3),
                np.zeros(3),
            ]
        )

        def loss_of(vec):
            m = euler_to_affine(RigidParams.from_vector(vec)).m
            out = transform_volume(vol, m, g)
            diff = (out.image.data - ref.data) * out.validity
            return 0.5 * float(np.mean(diff**2))

        params = RigidParams.from_vector(base)
        mats = euler_to_affine(params)
        jac = affine_jacobian(params)
        tape = transform_volume_with_tape(vol, mats.m, g)
        diff = (tape.result.image.data - ref.data) * tape.result.validity
        upstream = diff * tape.result.validity / diff.size
        analytic = tape.vjp(jac.d_m, upstream)
        fd = central_difference(loss_of, base, h=1e-5)
        denom = max(np.abs(analytic).max(), np.abs(fd).max())
        assert np.abs(analytic - fd).max() / denom < 1e-3
        # the task translation never enters the cycle matrices
        assert np.abs(analytic[6:]).max() == 0.0


# --- brute-force oracle: the taped warp written axis by axis, eight gathers,
# --- and a tape that stores the masked, scaled (3, N) normalized gradient


def _oracle_source_samples(src_shape, m, coords):
    s = m[:3, :] @ coords
    valid = np.all(np.abs(s) <= 1.0 + 1e-12, axis=0)
    scale = (np.asarray(src_shape, dtype=float) - 1.0) / 2.0
    idx = (s + 1.0) * scale[:, None]
    nearest = np.rint(idx)
    idx = np.where(np.abs(idx - nearest) < 1e-9, nearest, idx)
    return idx, valid


def _oracle_cell(idx, n):
    i0 = np.clip(np.ceil(idx) - 1.0, 0.0, max(n - 2, 0)).astype(np.intp)
    return i0, idx - i0


def _oracle_trilinear_with_grad(data, ix, iy, iz):
    w, h, d = data.shape
    x0, fx = _oracle_cell(np.clip(ix, 0.0, w - 1.0), w)
    y0, fy = _oracle_cell(np.clip(iy, 0.0, h - 1.0), h)
    z0, fz = _oracle_cell(np.clip(iz, 0.0, d - 1.0), d)
    sx, sy, sz = (h * d if w > 1 else 0), (d if h > 1 else 0), (1 if d > 1 else 0)
    flat = (x0 * h + y0) * d + z0
    r = np.ascontiguousarray(data).reshape(-1)
    c000, c100, c010, c110 = r.take(flat), r.take(flat + sx), r.take(flat + sy), r.take(flat + sx + sy)
    c001, c101 = r.take(flat + sz), r.take(flat + sx + sz)
    c011, c111 = r.take(flat + sy + sz), r.take(flat + sx + sy + sz)
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
    e00 = c000 * gz + c001 * fz
    e10 = c100 * gz + c101 * fz
    e01 = c010 * gz + c011 * fz
    e11 = c110 * gz + c111 * fz
    a0 = e00 * gx + e10 * fx
    a1 = e01 * gx + e11 * fx
    value = a0 * gy + a1 * fy
    dx = (e10 - e00) * gy + (e11 - e01) * fy
    dy = a1 - a0
    b0 = (c001 - c000) * gx + (c101 - c100) * fx
    b1 = (c011 - c010) * gx + (c111 - c110) * fx
    dz = b0 * gy + b1 * fy
    return value, dx, dy, dz


def _oracle_tape(src, m, coords):
    """(value, validity, vjp) of the warp of ``src`` at the homogeneous ``coords``."""
    idx, valid = _oracle_source_samples(src.geometry.shape, m, coords)
    value, dx, dy, dz = _oracle_trilinear_with_grad(src.data, idx[0], idx[1], idx[2])
    value = np.where(valid, value, 0.0)
    scale = (np.asarray(src.geometry.shape, dtype=float) - 1.0) / 2.0
    grad_norm = np.stack([dx, dy, dz]) * scale[:, None]
    grad_norm[:, ~valid] = 0.0

    def vjp(d_m_stack, upstream):
        weighted = grad_norm * np.asarray(upstream, dtype=float).reshape(-1)[None, :]
        return np.einsum("kij,ij->k", d_m_stack[:, :3, :], weighted @ coords.T)

    return value, valid.astype(float), vjp


# axis lengths down to single-voxel and two-voxel axes
_axis = st.sampled_from([1, 2, 3, 5, 7])


class TestFusedKernelAgainstOracle:
    @given(
        shape=st.tuples(_axis, _axis, _axis),
        seed=st.integers(0, 2**31 - 1),
        far=st.sampled_from([0.2, 1.0, 4.0]),
    )
    @settings(max_examples=60)
    def test_kernel_bit_identical(self, shape, seed, far):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=shape)
        n = 200
        # continuous samples, some far outside the grid, plus exact lattice points
        ix, iy, iz = [
            np.concatenate([rng.uniform(-far * s, (1 + far) * s, n), rng.integers(0, s, 50).astype(float)])
            for s in shape
        ]
        value, grad = trilinear_with_grad(data, ix, iy, iz)
        ref = _oracle_trilinear_with_grad(data, ix, iy, iz)
        np.testing.assert_array_equal(value, ref[0])
        for axis in range(3):
            np.testing.assert_array_equal(grad[axis], ref[1 + axis])
        # lattice points reproduce the data exactly
        lattice = value[n:]
        np.testing.assert_array_equal(lattice, data[tuple(np.stack([ix, iy, iz])[:, n:].astype(int))])

    @given(
        shape=st.tuples(_axis, _axis, _axis),
        seed=st.integers(0, 2**31 - 1),
        reach=st.sampled_from([0.1, 0.5, 3.0]),
        integer_shift=st.booleans(),
    )
    @settings(max_examples=60)
    def test_taped_warp_matches_oracle(self, shape, seed, reach, integer_shift):
        rng = np.random.default_rng(seed)
        src = Volume(GridGeometry.isotropic(shape, 1.0), rng.normal(size=shape))
        if integer_shift:
            # the source's own lattice, moved by whole voxels: every sample
            # lands on a lattice point (a single-voxel axis always does)
            target = GridGeometry.isotropic(tuple(max(n, 2) for n in shape), 1.0)
            params = RigidParams()
            steps = rng.integers(-2, 3, 3) * 2.0 / np.maximum(np.asarray(shape) - 1.0, 1.0)
            m = _translation_matrix(steps)
        else:
            params = RigidParams.from_vector(
                np.concatenate([rng.uniform(-np.pi, np.pi, 3), rng.uniform(-reach, reach, 6)])
            )
            m = euler_to_affine(params).m
            target = GridGeometry.isotropic((6, 5, 4), 1.0)
        coords = target_coords(target)
        d_m = affine_jacobian(params).d_m
        tape = transform_volume_with_tape(src, m, target, coords)
        value, validity, vjp = _oracle_tape(src, m, coords)
        np.testing.assert_array_equal(tape.result.image.data.reshape(-1), value)
        np.testing.assert_array_equal(tape.result.validity.reshape(-1), validity)
        upstream = rng.normal(size=target.shape)
        got, ref = tape.vjp(d_m, upstream), vjp(d_m, upstream)
        assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)


# target grids of one slab, of exactly two (128 x 64 x 4 = 2 SLAB_VOXELS), of
# two whole slabs and a short one (40 x 40 x 23, 30 x 31 x 37), and of
# one-slice slabs larger than SLAB_VOXELS (130 x 140 x 3)
_target_shapes = st.sampled_from(
    [(2, 2, 2), (9, 4, 3), (17, 13, 11), (128, 64, 4), (40, 40, 23), (30, 31, 37), (130, 140, 3)]
)


class TestChunkedWarpsAgainstWholeGrid:
    """The slab-walking warps give the bytes of the whole-grid coordinate map."""

    @staticmethod
    def _case(seed, target_shape):
        rng = np.random.default_rng(seed)
        src = GridGeometry(tuple(rng.integers(2, 12, 3)), rng.choice([0.75, 1.0, 1.5], 3), rng.normal(size=3), np.eye(3))
        target = GridGeometry(target_shape, rng.choice([0.75, 1.0, 1.5], 3), rng.normal(size=3), np.eye(3))
        params = RigidParams.from_vector(np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.4, 0.4, 6)]))
        return rng, src, target, euler_to_affine(params).m

    @given(
        seed=st.integers(0, 2**31 - 1),
        target_shape=st.sampled_from([(2, 2, 2), (17, 13, 11), (40, 40, 23), (300, 60, 5), (130, 140, 3)]),
        start=st.integers(0, 2**16),
        depth=st.integers(1, 12),
    )
    @settings(max_examples=30)
    def test_slab_coordinates_and_samples_are_whole_grid_columns(self, seed, target_shape, start, depth):
        # the slabs of slab_bounds (a short last one; W x H > SLAB_VOXELS at 300 x 60)
        # and one more run of whole slices, as short as one
        rng, src, target, m = self._case(seed, target_shape)
        d = target.shape[2]
        run = (start % d, min(start % d + depth, d))
        whole = np.stack([*target.normalized_grid(), np.ones(target.shape)])
        idx, valid = _source_samples(src.shape, m, whole.reshape(4, -1))
        idx, valid = idx.reshape(3, *target.shape), valid.reshape(target.shape)
        for z0, z1 in slab_bounds(target.shape) + [run]:
            coords = target_coords(target, z0, z1)
            assert coords.tobytes() == whole[..., z0:z1].reshape(4, -1).tobytes()
            got_idx, got_valid = _source_samples(src.shape, m, coords)
            assert got_idx.tobytes() == idx[..., z0:z1].reshape(3, -1).tobytes()
            assert got_valid.tobytes() == valid[..., z0:z1].reshape(-1).tobytes()
        assert target_coords(target).tobytes() == whole.reshape(4, -1).tobytes()

    @given(seed=st.integers(0, 2**31 - 1), target_shape=_target_shapes)
    @settings(max_examples=30)
    def test_volume_warp_bytes(self, seed, target_shape):
        rng, src, target, m = self._case(seed, target_shape)
        vol = Volume(src, rng.normal(size=src.shape))
        got, ref = transform_volume(vol, m, target), oracles.whole_grid_transform_volume(vol, m, target)
        assert got.image.data.tobytes() == ref.image.data.tobytes()
        assert got.validity.tobytes() == ref.validity.tobytes()

    @given(seed=st.integers(0, 2**31 - 1), target_shape=_target_shapes, scale=st.sampled_from([0.0, 1.0, 100.0]))
    @settings(max_examples=30)
    def test_label_warp_bytes(self, seed, target_shape, scale):
        rng, src, target, m = self._case(seed, target_shape)
        labels = LabelVolume(src, rng.integers(0, 4, size=src.shape))
        got = transform_labels(labels, m, target, scale)
        assert got.data.tobytes() == oracles.whole_grid_transform_labels(labels, m, target, scale).data.tobytes()

    @given(
        seed=st.integers(0, 2**31 - 1),
        target_shape=_target_shapes,
        kind=st.sampled_from(["phantom", "blocks", "random"]),
        reach=st.sampled_from([0.0, 0.3, 1.2]),
        zoom=st.sampled_from([1.0, 1.6]),
        scale=st.sampled_from([0.0, 1.0, 100.0]),
    )
    @settings(max_examples=60)
    def test_label_warp_bytes_by_kind_of_label_map(self, seed, target_shape, kind, reach, zoom, scale):
        # phantom and block label maps make most cells uniform, random ones
        # almost none; a reach or zoom beyond 1 maps targets past the source
        rng = np.random.default_rng(seed)
        src = GridGeometry.isotropic(tuple(rng.integers(6, 20, 3)), 1.5)
        if kind == "phantom":
            spec = PhantomSpec(noise_sigma=0.0).scaled(min(src.shape) * 1.5 / 96.0)
            data = generate_phantom(spec, src)[1].data
        elif kind == "blocks":
            coarse = rng.integers(0, 4, size=tuple(-(-n // 3) for n in src.shape))
            data = coarse.repeat(3, 0).repeat(3, 1).repeat(3, 2)[: src.shape[0], : src.shape[1], : src.shape[2]]
        else:
            data = rng.integers(0, 4, size=src.shape)
        labels = LabelVolume(src, data)
        target = GridGeometry(target_shape, rng.choice([0.75, 1.0, 1.5], 3), rng.normal(size=3), np.eye(3))
        params = RigidParams.from_vector(np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-reach, reach, 6)]))
        m = euler_to_affine(params).m
        m[:3, :3] *= zoom
        got = transform_labels(labels, m, target, scale)
        assert got.data.tobytes() == oracles.whole_grid_transform_labels(labels, m, target, scale).data.tobytes()

    def test_single_voxel_target_axis_is_rejected(self, rng):
        g = GridGeometry.isotropic((6, 5, 4), 1.0)
        flat = GridGeometry.isotropic((8, 8, 1), 1.0)
        with pytest.raises(ValidationError):
            transform_volume(Volume(g, rng.normal(size=g.shape)), np.eye(4), flat)
        with pytest.raises(ValidationError):
            transform_labels(LabelVolume(g, rng.integers(0, 4, size=g.shape)), np.eye(4), flat)


def _traced_peak(fn) -> int:
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


class TestWholeGridWarpMemory:
    # one float64 array over the 64^3 grid is 2 MiB; a chunk of SLAB_VOXELS
    # float64 samples is 128 KiB
    m = euler_to_affine(RigidParams.from_vector(np.array([0.1, -0.05, 0.2, 0.02, 0.01, -0.03, 0, 0, 0]))).m

    def test_untaped_warp_peak_stays_slab_sized(self, rng):
        # the two float64 outputs are 4 MiB; the whole-grid coordinate map
        # came to 27 MiB on top of them
        g = GridGeometry.isotropic((64, 64, 64), 1.5)
        vol = Volume(g, rng.normal(size=g.shape))
        assert _traced_peak(lambda: transform_volume(vol, self.m, g)) <= 8 * 2**20

    def test_label_warp_peak_holds_one_channel(self, rng):
        # the int16 output is 0.5 MiB; warping whole one-hot channels through
        # the whole-grid coordinate map came to 27 MiB
        g = GridGeometry.isotropic((64, 64, 64), 1.5)
        labels = LabelVolume(g, rng.integers(0, 4, size=g.shape))
        assert _traced_peak(lambda: transform_labels(labels, self.m, g)) <= 8 * 2**20

    def test_apply_task_peak(self):
        # the warped image and its validity are 4 MiB of it; segmenting the
        # whole grid at once made it 22.0 MiB, and the whole-grid coordinate
        # maps of both warps 39.5 MiB before that
        spec = PhantomSpec()
        pair = make_pair(spec, world_rigid((0.3, -0.2, 0.25), (6.0, -4.0, 3.0)), grid=(64, 64, 64), iso=1.5, seed=4)
        task = AnalyticSegmenter(spec, pair.i.geometry)
        params = RigidParams.from_vector(np.full(9, 0.05))
        assert _traced_peak(lambda: apply_task(pair.i, params, task)) <= 14 * 2**20
