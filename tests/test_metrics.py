"""Metric and post-processing tests against exhaustive oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidda.errors import ValidationError
from rigidda.metrics import (
    closing_2d,
    dice3d,
    evaluate_labels,
    hausdorff,
    largest_cc_3d,
    postprocess_labels,
    surface_voxels,
)
from rigidda.volume import GridGeometry, LabelVolume
import oracles


def brute_dice(pred, truth):
    inter = 0
    total = 0
    for p, t in zip(pred.ravel(), truth.ravel()):
        inter += int(bool(p) and bool(t))
        total += int(bool(p)) + int(bool(t))
    if total == 0:
        return None
    return 2.0 * inter / total


def brute_surface(mask):
    mask = np.asarray(mask, dtype=bool)
    out = np.zeros_like(mask)
    w, h, d = mask.shape
    for x in range(w):
        for y in range(h):
            for z in range(d):
                if not mask[x, y, z]:
                    continue
                for dx, dy, dz in (
                    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
                ):
                    nx, ny, nz = x + dx, y + dy, z + dz
                    if not (0 <= nx < w and 0 <= ny < h and 0 <= nz < d):
                        out[x, y, z] = True
                        break
                    if not mask[nx, ny, nz]:
                        out[x, y, z] = True
                        break
    return out


def brute_hausdorff(pred, truth, spacing):
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if not pred.any() or not truth.any():
        return None
    spacing = np.asarray(spacing, dtype=float)
    pts_p = np.argwhere(brute_surface(pred)) * spacing
    pts_t = np.argwhere(brute_surface(truth)) * spacing
    d_pt = max(min(np.linalg.norm(p - t) for t in pts_t) for p in pts_p)
    d_tp = max(min(np.linalg.norm(t - p) for p in pts_p) for t in pts_t)
    return max(d_pt, d_tp)


def random_blob(rng, shape=(8, 8, 8), p=0.2):
    return rng.uniform(size=shape) < p


class TestDice:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pred, truth = random_blob(rng), random_blob(rng)
        assert dice3d(pred, truth) == brute_dice(pred, truth)

    def test_both_empty_is_none(self):
        z = np.zeros((4, 4, 4), dtype=bool)
        assert dice3d(z, z) is None

    def test_one_empty_is_zero(self):
        z = np.zeros((4, 4, 4), dtype=bool)
        o = z.copy()
        o[1, 1, 1] = True
        assert dice3d(z, o) == 0.0

    def test_identical_masks(self, rng):
        mask = random_blob(rng)
        assert dice3d(mask, mask) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            dice3d(np.zeros((3, 3, 3), dtype=bool), np.zeros((4, 4, 4), dtype=bool))


class TestHausdorff:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pred, truth = random_blob(rng, (7, 6, 5)), random_blob(rng, (7, 6, 5))
        if not pred.any() or not truth.any():
            pytest.skip("empty draw")
        spacing = [1.0, 1.5, 2.0]
        got = hausdorff(pred, truth, spacing)
        assert abs(got - brute_hausdorff(pred, truth, spacing)) < 1e-12

    def test_surface_matches_brute_force(self, rng):
        mask = random_blob(rng, (6, 6, 6), p=0.4)
        np.testing.assert_array_equal(surface_voxels(mask), brute_surface(mask))

    def test_empty_mask_is_none(self):
        z = np.zeros((5, 5, 5), dtype=bool)
        o = z.copy()
        o[2, 2, 2] = True
        assert hausdorff(z, o, [1, 1, 1]) is None
        assert hausdorff(o, z, [1, 1, 1]) is None

    def test_identical_masks_zero(self, rng):
        mask = random_blob(rng)
        if not mask.any():
            mask[0, 0, 0] = True
        assert hausdorff(mask, mask, [1, 1, 1]) == 0.0

    def test_anisotropic_spacing_scales(self):
        a = np.zeros((6, 4, 4), dtype=bool)
        b = np.zeros((6, 4, 4), dtype=bool)
        a[1, 1, 1] = True
        b[4, 1, 1] = True
        assert hausdorff(a, b, [2.0, 1.0, 1.0]) == 6.0


class TestLargestCC:
    def test_keeps_biggest_component(self):
        mask = np.zeros((10, 10, 10), dtype=bool)
        mask[1:5, 1:5, 1:5] = True  # 64 voxels
        mask[7:9, 7:9, 7:9] = True  # 8 voxels
        out = largest_cc_3d(mask)
        assert out[2, 2, 2] and not out[7, 7, 7]
        assert out.sum() == 64

    def test_diagonal_voxels_are_26_connected(self):
        mask = np.zeros((6, 6, 6), dtype=bool)
        mask[1, 1, 1] = True
        mask[2, 2, 2] = True  # touches only diagonally
        mask[4, 4, 4] = True
        out = largest_cc_3d(mask)
        assert out[1, 1, 1] and out[2, 2, 2] and not out[4, 4, 4]

    def test_empty_mask_unchanged(self):
        z = np.zeros((4, 4, 4), dtype=bool)
        assert not largest_cc_3d(z).any()


class TestClosing2d:
    def test_fills_small_hole(self):
        mask = np.zeros((12, 12, 3), dtype=bool)
        mask[2:10, 2:10, 1] = True
        mask[5, 5, 1] = False
        out = closing_2d(mask, k=5)
        assert out[5, 5, 1]

    def test_extensive_at_border(self, rng):
        mask = rng.uniform(size=(10, 10, 4)) < 0.3
        out = closing_2d(mask, k=5)
        assert np.all(out[mask])

    def test_slices_independent(self):
        mask = np.zeros((8, 8, 2), dtype=bool)
        mask[2:6, 2:6, 0] = True
        out = closing_2d(mask, k=5)
        assert not out[:, :, 1].any()

    @given(
        shape=st.tuples(*[st.sampled_from([1, 2, 3, 6, 11])] * 3),
        k=st.integers(1, 7),
        density=st.sampled_from([0.1, 0.4, 0.7, 0.95]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200)
    def test_equals_slice_by_slice_closing(self, shape, k, density, seed):
        # even k included: binary_dilation reflects an even element, so a
        # plain max filter there would sit one voxel off
        mask = np.random.default_rng(seed).uniform(size=shape) < density
        out = closing_2d(mask, k)
        assert out.dtype == bool and out.shape == shape
        np.testing.assert_array_equal(out, oracles.closing_2d(mask, k))


# axis lengths down to a single voxel; a mask's box of 1 voxel, of the
# whole axis, or anything between
_side = st.sampled_from([1, 2, 3, 5, 9, 14])
_relations = ("independent", "identical", "nested", "disjoint", "single voxel")


def _local_mask(rng, shape, density):
    """Random voxels of a random sub-box of the grid, which may touch any face."""
    shape = np.asarray(shape)
    lo = rng.integers(0, shape)
    hi = lo + 1 + rng.integers(0, shape - lo)
    mask = np.zeros(tuple(shape), dtype=bool)
    mask[tuple(slice(a, b) for a, b in zip(lo, hi))] = rng.uniform(size=hi - lo) < density
    return mask


def _mask_pair(rng, shape, relation, density):
    pred = _local_mask(rng, shape, density)
    other = _local_mask(rng, shape, density)
    if relation == "identical":
        return pred, pred.copy()
    if relation == "nested":
        return pred, pred | other
    if relation == "disjoint":
        return pred, other & ~pred
    if relation == "single voxel":
        single = np.zeros(shape, dtype=bool)
        single[tuple(rng.integers(0, shape))] = True
        return single, other
    return pred, other


class TestBoundingBoxMetricsAgainstWholeGrid:
    """The box-cropped metrics give the whole-grid forms' values exactly."""

    @given(
        shape=st.tuples(_side, _side, _side),
        relation=st.sampled_from(_relations),
        density=st.sampled_from([0.1, 0.5, 0.9, 1.0]),
        spacing=st.tuples(*[st.sampled_from([0.5, 1.0, 1.5, 2.0, 12.0])] * 3),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200)
    def test_hausdorff(self, shape, relation, density, spacing, seed):
        pred, truth = _mask_pair(np.random.default_rng(seed), shape, relation, density)
        assert hausdorff(pred, truth, spacing) == oracles.hausdorff(pred, truth, spacing)
        assert hausdorff(truth, pred, spacing) == oracles.hausdorff(truth, pred, spacing)

    @given(
        shape=st.tuples(_side, _side, _side),
        density=st.sampled_from([0.1, 0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=150)
    def test_surface_and_largest_component(self, shape, density, seed):
        mask = _local_mask(np.random.default_rng(seed), shape, density)
        for fn in (surface_voxels, largest_cc_3d):
            got = fn(mask)
            assert got.dtype == bool and got.shape == mask.shape
            np.testing.assert_array_equal(got, getattr(oracles, fn.__name__)(mask))

    @given(
        shape=st.tuples(st.sampled_from([1, 4, 9, 16]), st.sampled_from([1, 4, 9, 16]), st.sampled_from([1, 3])),
        k=st.integers(1, 7),
        face=st.sampled_from(["x0", "x1", "y0", "y1", "inside"]),
        density=st.sampled_from([0.3, 0.8, 1.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200)
    def test_closing_at_the_in_plane_border(self, shape, k, face, density, seed):
        rng = np.random.default_rng(seed)
        mask = _local_mask(rng, shape, density)
        # push the mask's voxels against one in-plane face of the grid
        axis, end = {"x0": (0, 0), "x1": (0, -1), "y0": (1, 0), "y1": (1, -1)}.get(face, (None, None))
        if axis is not None:
            edge = [slice(None)] * 3
            edge[axis] = end
            mask[tuple(edge)] |= rng.uniform(size=mask[tuple(edge)].shape) < density
        np.testing.assert_array_equal(closing_2d(mask, k), oracles.closing_2d(mask, k))

    def test_empty_masks(self):
        empty = np.zeros((4, 3, 2), dtype=bool)
        assert not surface_voxels(empty).any() and not closing_2d(empty, 3).any()
        assert not largest_cc_3d(empty).any()
        assert hausdorff(empty, empty, [1.0, 1.0, 1.0]) is None


class TestPostprocess:
    def test_removes_satellite_and_stays_disjoint(self):
        g = GridGeometry.isotropic((16, 16, 16), 1.0)
        data = np.zeros(g.shape, dtype=np.int16)
        data[2:8, 2:8, 2:8] = 1
        data[12, 12, 12] = 1  # satellite far from the main component
        data[9:12, 2:8, 2:8] = 2
        out = postprocess_labels(LabelVolume(g, data))
        assert out.data[12, 12, 12] == 0
        assert out.data[4, 4, 4] == 1
        assert out.data[10, 4, 4] == 2
        assert set(np.unique(out.data)) <= {0, 1, 2, 3}


class TestEvaluateLabels:
    def _volumes(self):
        g = GridGeometry.isotropic((12, 12, 12), 2.0)
        truth = np.zeros(g.shape, dtype=np.int16)
        truth[2:8, 2:8, 2:8] = 1
        pred = np.zeros(g.shape, dtype=np.int16)
        pred[3:9, 2:8, 2:8] = 1
        return LabelVolume(g, pred), LabelVolume(g, truth)

    def test_volumes_in_ml(self):
        pred, truth = self._volumes()
        report = evaluate_labels(pred, truth)
        m = report.per_class[1]
        assert abs(m.volume_truth_ml - 216 * 8.0 / 1000.0) < 1e-12
        assert abs(m.volume_pred_ml - 216 * 8.0 / 1000.0) < 1e-12
        assert abs(m.volume_diff_ml) < 1e-12

    def test_empty_class_excluded_from_hausdorff(self):
        pred, truth = self._volumes()
        report = evaluate_labels(pred, truth)
        assert report.per_class[2].dice is None
        assert report.per_class[2].hausdorff_mm is None
        assert report.per_class[2].hausdorff_excluded

    def test_json_round_trip(self):
        import json

        pred, truth = self._volumes()
        parsed = json.loads(evaluate_labels(pred, truth).to_json())
        assert set(parsed) == {"LV", "MYO", "RV"}
        assert parsed["MYO"]["hausdorff_excluded"] is True

