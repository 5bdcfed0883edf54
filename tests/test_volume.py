"""Grid geometry, coordinate frames and preprocessing tests."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rigidda.errors import ValidationError
from rigidda.interp import argmax_channels, trilinear
from rigidda.volume import (
    GridGeometry,
    LabelVolume,
    Volume,
    clip_and_normalize,
    nearest_rank_quantile,
    pad_to_grid,
    preprocess_labels,
    resample_isotropic,
)
import oracles


def _rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestGridGeometry:
    def test_validation(self):
        with pytest.raises(ValidationError):
            GridGeometry((0, 4, 4), np.ones(3), np.zeros(3), np.eye(3))
        with pytest.raises(ValidationError):
            GridGeometry((4, 4, 4), [1.0, -1.0, 1.0], np.zeros(3), np.eye(3))
        with pytest.raises(ValidationError):
            GridGeometry((4, 4, 4), np.ones(3), np.zeros(3), np.eye(3) * 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spacing_and_origin_rejected(self, bad):
        with pytest.raises(ValidationError, match="spacing"):
            GridGeometry((4, 4, 4), [1.0, bad, 1.0], np.zeros(3), np.eye(3))
        with pytest.raises(ValidationError, match="origin"):
            GridGeometry((4, 4, 4), np.ones(3), [0.0, 0.0, bad], np.eye(3))
        with pytest.raises(ValidationError, match="spacing"):
            GridGeometry.isotropic((4, 4, 4), bad)

    def test_isotropic_centered_at_world_origin(self):
        g = GridGeometry.isotropic((5, 5, 5), 2.0)
        center = g.world_from_voxel(np.array([2.0, 2.0, 2.0]))
        np.testing.assert_allclose(center, np.zeros(3), atol=1e-12)

    @given(
        vx=st.floats(0, 6),
        vy=st.floats(0, 5),
        vz=st.floats(0, 4),
        angle=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=50)
    def test_world_voxel_round_trip(self, vx, vy, vz, angle):
        g = GridGeometry(
            (7, 6, 5), [1.0, 1.5, 3.0], [5.0, -2.0, 1.0], _rotation_z(angle)
        )
        v = np.array([vx, vy, vz])
        world = g.world_from_voxel(v)
        # closed-form inverse: the direction is orthonormal
        np.testing.assert_allclose(((world - g.origin) @ g.direction) / g.spacing, v, atol=1e-9)

    def test_normalized_endpoints(self):
        g = GridGeometry.isotropic((9, 9, 9), 1.0)
        m = g.normalized_to_world_matrix()
        np.testing.assert_array_equal((m @ [-1.0, -1.0, -1.0, 1.0])[:3], g.world_from_voxel(np.zeros(3)))
        np.testing.assert_array_equal((m @ [1.0, 1.0, 1.0, 1.0])[:3], g.world_from_voxel(np.full(3, 8.0)))

    def test_normalized_matrix_matches_pointwise_map(self):
        g = GridGeometry(
            (8, 6, 10), [1.2, 0.8, 2.0], [3.0, -1.0, 0.5], _rotation_z(0.7)
        )
        m = g.normalized_to_world_matrix()
        n = np.asarray(g.shape, dtype=float)
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = rng.uniform(-1, 1, 3)
            via_matrix = (m @ np.append(c, 1.0))[:3]
            # pointwise: normalized -> voxel index -> world
            np.testing.assert_allclose(via_matrix, g.world_from_voxel((c + 1.0) / 2.0 * (n - 1.0)), atol=1e-9)

    def test_world_to_normalized_inverse(self):
        g = GridGeometry.isotropic((16, 16, 16), 1.5)
        p = np.array([3.3, -2.1, 0.7])
        # pointwise: world -> voxel index -> normalized, against the inverted matrix
        c = 2.0 * ((p - g.origin) / g.spacing) / (np.asarray(g.shape) - 1.0) - 1.0
        via_matrix = np.linalg.inv(g.normalized_to_world_matrix()) @ np.append(p, 1.0)
        np.testing.assert_allclose(via_matrix[:3], c, atol=1e-9)

    def test_normalized_grid_matches_meshgrid(self):
        g = GridGeometry.isotropic((4, 3, 5), 1.0)
        nx, ny, nz = g.normalized_grid()
        assert nx.shape == g.shape
        assert nx[0, 0, 0] == -1.0 and nx[-1, 0, 0] == 1.0
        assert ny[0, 0, 0] == -1.0 and ny[0, -1, 0] == 1.0
        assert nz[0, 0, 0] == -1.0 and nz[0, 0, -1] == 1.0


class TestVolumeTypes:
    def test_volume_immutable_and_validated(self, small_geometry):
        vol = Volume(small_geometry, np.zeros(small_geometry.shape))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1.0
        with pytest.raises(ValidationError):
            Volume(small_geometry, np.zeros((2, 2, 2)))
        bad = np.zeros(small_geometry.shape)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            Volume(small_geometry, bad)

    def test_label_class_ids_validated(self, small_geometry):
        data = np.zeros(small_geometry.shape, dtype=np.int16)
        data[0, 0, 0] = 7
        with pytest.raises(ValidationError):
            LabelVolume(small_geometry, data)

    @given(
        value=st.one_of(
            st.integers(-(2**40), 2**40),
            st.floats(-1e6, 1e6, allow_nan=False),
            st.sampled_from([65536.0, 65537.0, -65535.0, np.nan, np.inf, -np.inf]),
        ),
        dtype=st.sampled_from([np.int64, np.uint32, np.int16, np.uint8, np.float64, np.float32]),
        at=st.integers(0, 8 * 7 * 6 - 1),
    )
    @settings(max_examples=200)
    def test_label_ids_accepted_exactly_when_a_class(self, value, dtype, at):
        """The ids 0-3 are accepted in any numeric dtype; anything a cast would change or wrap is not."""
        g = GridGeometry.isotropic((8, 7, 6), 1.0)
        with np.errstate(invalid="ignore", over="ignore"):
            cast = np.array(value).astype(dtype)
        assume(cast.item() == value or (np.isnan(value) and np.isnan(cast)))  # representable in dtype
        data = np.ones(g.shape, dtype=dtype)
        data.reshape(-1)[at] = cast
        if value in (0, 1, 2, 3):
            lv = LabelVolume(g, data)
            assert lv.data.dtype == np.int16
            np.testing.assert_array_equal(lv.data, data)
        else:
            with pytest.raises(ValidationError, match="unknown class id"):
                LabelVolume(g, data)

    @pytest.mark.parametrize("value", [65537, 1.7, -0.5, 4])
    def test_label_ids_a_cast_would_alter_are_rejected(self, small_geometry, value):
        data = np.zeros(small_geometry.shape, dtype=np.asarray(value).dtype)
        data[1, 2, 3] = value
        with pytest.raises(ValidationError, match=str(value)):
            LabelVolume(small_geometry, data)


class TestResampleIsotropic:
    def test_linear_ramp_exact(self):
        g = GridGeometry((11, 5, 5), [2.0, 1.0, 1.0], np.zeros(3), np.eye(3))
        x = np.arange(11, dtype=float) * 2.0
        data = np.broadcast_to(x[:, None, None], (11, 5, 5))
        out = resample_isotropic(Volume(g, np.array(data)), 1.0)
        assert out.geometry.shape[0] == 21
        np.testing.assert_allclose(out.data[:, 0, 0], np.arange(21.0), atol=1e-12)

    def test_identity_spacing_noop(self, rng):
        g = GridGeometry.isotropic((6, 6, 6), 1.5)
        vol = Volume(g, rng.normal(size=g.shape))
        out = resample_isotropic(vol, 1.5)
        np.testing.assert_array_equal(out.data, vol.data)

    def test_rejects_bad_spacing(self, small_geometry):
        vol = Volume(small_geometry, np.zeros(small_geometry.shape))
        with pytest.raises(ValidationError):
            resample_isotropic(vol, -1.0)

    @pytest.mark.parametrize("iso", [1.5, 2.0])
    def test_target_spacing_returns_input_byte_identical(self, rng, iso):
        g = GridGeometry.isotropic((9, 8, 7), iso)
        vol = Volume(g, rng.normal(size=g.shape))
        out = resample_isotropic(vol, iso)
        assert out is vol
        # the full trilinear pass on the index lattice gives the same bytes
        idx = np.meshgrid(*[np.arange(n) * iso / iso for n in g.shape], indexing="ij")
        assert trilinear(vol.data, *idx).tobytes() == out.data.tobytes()

    @pytest.mark.parametrize("iso", [1.5, 2.0])
    def test_labels_at_target_spacing_skip_resampling(self, rng, iso):
        g = GridGeometry.isotropic((9, 8, 7), iso)
        lv = LabelVolume(g, rng.integers(0, 4, size=g.shape).astype(np.int16))
        out = preprocess_labels(lv, iso=iso, grid=(12, 8, 6))
        # one-hot, per-channel trilinear resampling and argmax, as run before
        idx = np.meshgrid(*[np.arange(n) * iso / iso for n in g.shape], indexing="ij")
        onehot = oracles.one_hot(lv.data)
        argmax = np.argmax(np.stack([trilinear(onehot[c], *idx) for c in range(4)]), axis=0)
        padded = pad_to_grid(Volume(g, argmax.astype(float)), (12, 8, 6))
        assert out.data.tobytes() == np.rint(padded.data).astype(np.int16).tobytes()
        assert out.geometry.shape == padded.geometry.shape
        for field in ("spacing", "origin", "direction"):
            np.testing.assert_array_equal(getattr(out.geometry, field), getattr(padded.geometry, field))


class TestPadToGrid:
    def test_pad_centers_and_preserves_world_positions(self, rng):
        g = GridGeometry.isotropic((4, 4, 4), 1.0)
        vol = Volume(g, rng.normal(size=g.shape))
        out = pad_to_grid(vol, (8, 8, 8))
        assert out.geometry.shape == (8, 8, 8)
        np.testing.assert_array_equal(out.data[2:6, 2:6, 2:6], vol.data)
        # voxel (2,2,2) of the padded grid is voxel (0,0,0) of the original
        np.testing.assert_allclose(
            out.geometry.world_from_voxel(np.array([2.0, 2.0, 2.0])),
            g.world_from_voxel(np.zeros(3)),
            atol=1e-12,
        )

    def test_crop_preserves_world_positions(self, rng):
        g = GridGeometry.isotropic((10, 10, 10), 1.0)
        vol = Volume(g, rng.normal(size=g.shape))
        out = pad_to_grid(vol, (6, 6, 6))
        np.testing.assert_array_equal(out.data, vol.data[2:8, 2:8, 2:8])
        np.testing.assert_allclose(
            out.geometry.world_from_voxel(np.zeros(3)),
            g.world_from_voxel(np.full(3, 2.0)),
            atol=1e-12,
        )

    def test_labels_stay_int16(self, rng):
        g = GridGeometry.isotropic((10, 4, 7), 1.0)
        lv = LabelVolume(g, rng.integers(0, 4, size=g.shape))
        out = pad_to_grid(lv, (6, 8, 7))
        assert isinstance(out, LabelVolume)
        assert out.data.dtype == np.int16
        np.testing.assert_array_equal(out.data[:, 2:6, :], lv.data[2:8])
        assert not out.data[:, :2].any() and not out.data[:, 6:].any()

    def test_mixed_pad_and_crop(self, rng):
        g = GridGeometry.isotropic((10, 4, 7), 1.0)
        vol = Volume(g, rng.normal(size=g.shape))
        out = pad_to_grid(vol, (6, 8, 7))
        assert out.geometry.shape == (6, 8, 7)


class TestIntensityNormalization:
    def test_nearest_rank_quantile_matches_sorted_oracle(self, rng):
        values = rng.normal(size=257)
        for q in (0.1, 0.5, 0.999, 1.0):
            flat = np.sort(values)
            k = int(np.ceil(q * flat.size))
            assert nearest_rank_quantile(values, q) == flat[k - 1]

    @pytest.mark.parametrize("kind", ["random", "constant", "tied"])
    def test_nearest_rank_quantile_equals_the_sorted_rank(self, rng, kind):
        """The partial sort picks the value a full sort puts at the nearest rank, and leaves the input as it was."""
        shape = (9, 8, 7)
        values = {
            "random": rng.normal(size=shape),
            "constant": np.full(shape, 3.7),
            "tied": rng.integers(-2, 3, size=shape) * 0.5,
        }[kind]
        before = values.copy()
        flat = np.sort(values, axis=None)
        for q in (1e-9, 0.1, 0.5, 0.9, 0.999, 1.0):
            k = int(np.ceil(q * flat.size))
            assert nearest_rank_quantile(values, q) == flat[max(k - 1, 0)]
        assert values.tobytes() == before.tobytes()

    def test_clip_and_normalize_range(self, rng, small_geometry):
        vol = Volume(small_geometry, rng.normal(2.0, 5.0, size=small_geometry.shape))
        out = clip_and_normalize(vol, 0.99)
        assert out.data.min() == 0.0
        assert out.data.max() == 1.0

    def test_constant_volume_maps_to_zero(self, small_geometry):
        vol = Volume(small_geometry, np.full(small_geometry.shape, 3.7))
        out = clip_and_normalize(vol)
        np.testing.assert_array_equal(out.data, np.zeros(small_geometry.shape))


class TestPreprocess:
    def test_labels_pipeline_valid_ids(self, rng):
        g = GridGeometry((12, 12, 6), [1.0, 1.0, 3.0], np.zeros(3), np.eye(3))
        data = np.zeros(g.shape, dtype=np.int16)
        data[3:9, 3:9, 1:5] = 1
        data[5:7, 5:7, 2:4] = 2
        lv = LabelVolume(g, data)
        out = preprocess_labels(lv, iso=1.5, grid=(16, 16, 16))
        assert out.geometry.shape == (16, 16, 16)
        assert set(np.unique(out.data)) <= {0, 1, 2}
        # the big structure survives preprocessing
        assert (out.data == 1).sum() > 0


class TestArgmaxLabels:
    """The oracles' whole-channel argmax, the reference for the label warp and the label resampling."""

    def test_exact_samples_give_the_labels_back(self, rng, small_geometry):
        labels = rng.integers(0, 4, size=small_geometry.shape).astype(np.int16)
        for scale in (1.0, 100.0):
            out = oracles.argmax_labels(labels, lambda channel: channel.copy(), scale)
            assert out.dtype == np.int16
            np.testing.assert_array_equal(out, labels)

    def test_tie_goes_to_lower_id(self):
        labels = np.array([[[3, 1, 2, 0]]], dtype=np.int16)
        # every channel averages to the same value
        out = oracles.argmax_labels(labels, lambda channel: np.full(2, channel.mean()), 1.0)
        np.testing.assert_array_equal(out, [0, 0])
        out = oracles.argmax_labels(labels[..., :3], lambda channel: np.full(2, channel.mean()), 1.0)
        np.testing.assert_array_equal(out, [1, 1])

    def test_zero_scale_is_all_background(self, rng, small_geometry):
        labels = rng.integers(0, 4, size=small_geometry.shape).astype(np.int16)
        out = oracles.argmax_labels(labels, lambda channel: channel.copy(), 0.0)
        assert not out.any()


class TestArgmaxChannels:
    @given(
        n_channels=st.integers(1, 5),
        shape=st.sampled_from([(7,), (3, 4), (2, 3, 5)]),
        levels=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=100)
    def test_equals_np_argmax(self, n_channels, shape, levels, seed):
        # few distinct values, so ties between channels are common
        rng = np.random.default_rng(seed)
        stack = rng.integers(0, levels, size=(n_channels, *shape)) * rng.choice([-1.5, 0.25, 1e300])
        before = stack.copy()
        out = argmax_channels(stack)
        assert out.dtype == np.int16
        np.testing.assert_array_equal(out, np.argmax(stack, axis=0))
        np.testing.assert_array_equal(stack, before)


class TestPreprocessLabelsOracle:
    @given(
        shape=st.tuples(*[st.integers(2, 9)] * 3),
        spacing=st.tuples(*[st.sampled_from([0.75, 1.0, 1.5, 3.0])] * 3),
        iso=st.sampled_from([0.75, 1.5, 3.0]),
        grid=st.tuples(*[st.integers(1, 14)] * 3),
        two_classes=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80)
    def test_matches_stacked_argmax(self, shape, spacing, iso, grid, two_classes, seed):
        # spacings and iso are powers-of-two multiples of each other: resampled
        # samples fall on exact half voxels, where two classes tie exactly
        rng = np.random.default_rng(seed)
        g = GridGeometry(shape, spacing, rng.normal(size=3), np.eye(3))
        classes = rng.choice(4, size=2, replace=False) if two_classes else np.arange(4)
        lv = LabelVolume(g, classes[rng.integers(0, len(classes), size=shape)])
        out = preprocess_labels(lv, iso=iso, grid=grid)
        data, geom = oracles.preprocess_labels(lv, iso, grid)
        assert out.data.dtype == np.int16
        assert out.data.tobytes() == data.tobytes()
        assert out.geometry.shape == geom.shape
        for field in ("spacing", "origin", "direction"):
            assert getattr(out.geometry, field).tobytes() == getattr(geom, field).tobytes()
