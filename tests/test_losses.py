"""Loss-term tests against brute-force reference implementations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidda.engine import PairObjective
from rigidda.errors import ValidationError
from rigidda.losses import (
    LossReport,
    LossWeights,
    ProbabilityVolume,
    bce,
    ce,
    focus_exact,
    focus_smooth,
    focus_smooth_upstream,
    in_plane_weight,
    sdl,
    seg_loss,
    soft_dice,
)
from rigidda.phantom import AnalyticSegmenter, make_pair, world_rigid
from rigidda.resampler import SampleResult, transform_volume
from rigidda.rigid import RigidParams, euler_to_affine
from rigidda.volume import GridGeometry, Volume
from conftest import gentle_task_spec, smooth_field
import oracles

EPS = 1e-7


def brute_bce(q, g):
    total = 0.0
    for qi, gi in zip(np.ravel(q), np.ravel(g)):
        qi = min(max(qi, EPS), 1.0 - EPS)
        total += -(gi * math.log(qi) + (1.0 - gi) * math.log(1.0 - qi))
    return total / np.size(q)


def brute_soft_dice(q, g, smooth=1.0):
    num = 0.0
    sq = 0.0
    sg = 0.0
    for qi, gi in zip(np.ravel(q), np.ravel(g)):
        num += qi * gi
        sq += qi
        sg += gi
    return (2.0 * num + smooth) / (sq + sg + smooth)


def brute_focus_exact(fg, r):
    count = 0
    for v in np.ravel(fg):
        if v > r:
            count += 1
    return 1.0 - count / np.size(fg)


def masked_mse(a: SampleResult | Volume, b: SampleResult, weight=None) -> float:
    """Half mean of the squared masked difference, masked by ``b``'s validity on both operands."""
    a_img = a.image if isinstance(a, SampleResult) else a
    if a_img.geometry.shape != b.image.geometry.shape:
        raise ValidationError("masked_mse operands live on different grids")
    mask = b.validity if weight is None else b.validity * weight
    diff = (a_img.data - b.image.data) * mask
    return 0.5 * float(np.mean(diff * diff))


def cycle_loss(i_vol, j_vol, m, m_inv, gt_m, gt_m_inv, target, weight=None):
    """Forward and backward masked MSE terms of the cycle loss, four whole-grid warps."""
    fixed_fwd = transform_volume(i_vol, gt_m, target)
    fixed_bwd = transform_volume(j_vol, gt_m_inv, target)
    moving_fwd = transform_volume(i_vol, m, target)
    moving_bwd = transform_volume(j_vol, m_inv, target)
    return (
        masked_mse(moving_fwd, fixed_fwd, weight),
        masked_mse(moving_bwd, fixed_bwd, weight),
    )


def total_loss(i_vol, j_vol, params, gt_m, gt_m_inv, task, weights):
    """Full-mode loss report: in-plane weighted cycle, focus on the task-branch image
    inside the boxes of ``oracles.focus_boxes``."""
    target = i_vol.geometry
    mats = euler_to_affine(params)
    fwd, bwd = cycle_loss(i_vol, j_vol, mats.m, mats.m_inv, gt_m, gt_m_inv, target, in_plane_weight(target))
    q = task.evaluate(transform_volume(i_vol, mats.m_t, target).image)
    exact, smooth = oracles.focus_terms(q, weights.r, weights.tau, oracles.focus_mask(task, target.shape, weights.r))
    return LossReport(
        cycle_fwd=fwd,
        cycle_bwd=bwd,
        focus_exact=exact,
        focus_smooth=smooth,
        alpha1=weights.alpha1,
        alpha2=weights.alpha2,
    )


def random_prob_pair(rng, shape=(3, 4, 2)):
    q = rng.uniform(0, 1, size=(3, *shape))
    g = (rng.uniform(0, 1, size=(3, *shape)) > 0.5).astype(float)
    return q, g


class TestSegmentationLosses:
    @pytest.mark.parametrize("seed", range(10))
    def test_bce_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        q, g = random_prob_pair(rng)
        assert abs(bce(q[0], g[0]) - brute_bce(q[0], g[0])) < 1e-10

    def test_bce_clips_extreme_probabilities(self):
        g = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        val = bce(q, g)
        assert np.isfinite(val)
        assert abs(val - (-math.log(EPS))) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_ce_is_mean_over_classes(self, seed):
        rng = np.random.default_rng(seed)
        q, g = random_prob_pair(rng)
        expected = np.mean([brute_bce(q[c], g[c]) for c in range(3)])
        assert abs(ce(q, g) - expected) < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_soft_dice_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        q, g = random_prob_pair(rng)
        assert abs(soft_dice(q[0], g[0]) - brute_soft_dice(q[0], g[0])) < 1e-10

    def test_soft_dice_both_empty_is_one(self):
        z = np.zeros((4, 4, 4))
        assert soft_dice(z, z) == 1.0
        assert sdl(np.zeros((3, 4, 4, 4)), np.zeros((3, 4, 4, 4))) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_seg_loss_composition(self, seed):
        rng = np.random.default_rng(seed)
        q, g = random_prob_pair(rng)
        expected = 0.5 * ce(q, g) + sdl(q, g)
        assert abs(seg_loss(q, g) - expected) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            bce(np.zeros((2, 2)), np.zeros((3, 3)))


class TestInPlaneWeight:
    def test_separable_product_form(self):
        g = GridGeometry.isotropic((9, 7, 5), 1.0)
        w = in_plane_weight(g)
        nx, ny, _ = g.normalized_grid()
        np.testing.assert_allclose(w, (1.0 - np.abs(nx)) * (1.0 - np.abs(ny)), atol=1e-15)

    def test_center_one_borders_zero_constant_in_z(self):
        g = GridGeometry.isotropic((9, 9, 4), 1.0)
        w = in_plane_weight(g)
        assert w[4, 4, 0] == 1.0
        assert np.all(w[0, :, :] == 0.0)
        assert np.all(w[:, -1, :] == 0.0)
        np.testing.assert_array_equal(w[:, :, 0], w[:, :, -1])


class TestMaskedMse:
    def test_matches_brute_force(self, rng):
        g = GridGeometry.isotropic((6, 6, 6), 1.0)
        a = Volume(g, rng.normal(size=g.shape))
        b_vol = Volume(g, rng.normal(size=g.shape))
        m = np.eye(4)
        m[:3, 3] = [0.4, 0.0, 0.0]
        b = transform_volume(b_vol, m, g)
        w = rng.uniform(0, 1, size=g.shape)
        total = 0.0
        for idx in np.ndindex(g.shape):
            d = (a.data[idx] - b.image.data[idx]) * b.validity[idx] * w[idx]
            total += d * d
        assert abs(masked_mse(a, b, w) - 0.5 * total / a.data.size) < 1e-12

    def test_mask_comes_from_second_operand(self, rng):
        g = GridGeometry.isotropic((8, 8, 8), 1.0)
        a = Volume(g, rng.normal(size=g.shape))
        b_vol = Volume(g, rng.normal(size=g.shape))
        m = np.eye(4)
        m[:3, 3] = [5.0, 0.0, 0.0]  # everything out of bounds
        b = transform_volume(b_vol, m, g)
        assert masked_mse(a, b) == 0.0

    def test_grid_mismatch_rejected(self, rng):
        g1 = GridGeometry.isotropic((6, 6, 6), 1.0)
        g2 = GridGeometry.isotropic((5, 5, 5), 1.0)
        a = Volume(g1, rng.normal(size=g1.shape))
        b = transform_volume(Volume(g2, rng.normal(size=g2.shape)), np.eye(4), g2)
        with pytest.raises(ValidationError):
            masked_mse(a, b)


class TestCycleLoss:
    def test_zero_at_ground_truth(self):
        g = GridGeometry.isotropic((16, 16, 16), 1.0)
        vol_i = smooth_field(g, seed=1)
        vol_j = smooth_field(g, seed=2)
        mats = euler_to_affine(RigidParams(0.2, -0.1, 0.15, t=(0.05, 0.0, -0.08)))
        fwd, bwd = cycle_loss(vol_i, vol_j, mats.m, mats.m_inv, mats.m, mats.m_inv, g)
        assert fwd == 0.0
        assert bwd == 0.0

    def test_positive_away_from_ground_truth(self):
        g = GridGeometry.isotropic((16, 16, 16), 1.0)
        vol_i = smooth_field(g, seed=1)
        vol_j = smooth_field(g, seed=2)
        gt = euler_to_affine(RigidParams(0.2, -0.1, 0.15, t=(0.05, 0.0, -0.08)))
        off = euler_to_affine(RigidParams(0.0, 0.0, 0.0))
        fwd, bwd = cycle_loss(vol_i, vol_j, off.m, off.m_inv, gt.m, gt.m_inv, g)
        assert fwd > 0.0
        assert bwd > 0.0


class TestFullObjectiveReport:
    @pytest.mark.parametrize("seed", range(3))
    def test_pair_objective_matches_total_loss_oracle(self, seed):
        spec = gentle_task_spec()
        rel = world_rigid((0.1, -0.05, 0.08), (2.0, -1.0, 1.5))
        pair = make_pair(spec, rel, grid=(24, 20, 18), iso=3.0, seed=seed)
        task = AnalyticSegmenter(spec, pair.i.geometry)
        w = LossWeights(alpha1=1.5, alpha2=0.2, tau=0.1)
        rng = np.random.default_rng(seed)
        params = RigidParams.from_vector(rng.uniform(-0.15, 0.15, 9))
        objective = PairObjective(pair.i, pair.j, pair.gt_m, pair.gt_m_inv, task, w, mode="full")
        report, _ = objective(params.to_vector())
        oracle = total_loss(pair.i, pair.j, params, pair.gt_m, pair.gt_m_inv, task, w)
        got, want = report.to_dict(), oracle.to_dict()
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=1e-15), key


class TestFocus:
    def _prob(self, rng, shape=(5, 4, 3)):
        raw = rng.uniform(0.01, 1.0, size=(4, *shape))
        q = raw / raw.sum(axis=0, keepdims=True)
        return ProbabilityVolume(GridGeometry.isotropic(shape, 1.0), q)

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        q = self._prob(rng)
        for r in (0.1, 0.3, 0.9):
            assert abs(focus_exact(q, r) - brute_focus_exact(q.foreground(), r)) < 1e-12

    def test_exact_counts_foreground_only(self):
        shape = (3, 3, 3)
        q = np.zeros((4, *shape))
        q[0] = 1.0  # all background, confidently
        pv = ProbabilityVolume(GridGeometry.isotropic(shape, 1.0), q)
        assert focus_exact(pv, 0.9) == 1.0

    def test_smooth_converges_to_exact(self, rng):
        q = self._prob(rng)
        r = 0.35
        exact = focus_exact(q, r)
        for tau, tol in ((0.01, 0.05), (0.001, 0.005)):
            assert abs(focus_smooth(q, r, tau) - exact) < tol

    def test_smooth_upstream_background_is_zero(self, rng):
        g = GridGeometry.isotropic((3, 4, 2), 1.0)
        raw = rng.uniform(0.1, 1.0, size=(4, *g.shape))
        q = ProbabilityVolume(g, raw / raw.sum(axis=0, keepdims=True))
        up = focus_smooth_upstream(q, 0.3, 0.1)
        assert up.shape == q.q.shape
        assert np.all(up[0] == 0.0) and np.all(up[1:] < 0.0)

    def test_smooth_upstream_matches_finite_differences(self, rng):
        shape = (4, 3, 2)
        g = GridGeometry.isotropic(shape, 1.0)
        raw = rng.uniform(0.05, 1.0, size=(4, *shape))
        qdata = raw / raw.sum(axis=0, keepdims=True)
        r, tau = 0.3, 0.05
        upstream = focus_smooth_upstream(ProbabilityVolume(g, qdata), r, tau)
        h = 1e-7
        for c in range(1, 4):
            for idx in [(0, 0, 0), (2, 1, 1), (3, 2, 0)]:
                up = qdata.copy()
                dn = qdata.copy()
                up[(c, *idx)] += h
                dn[(c, *idx)] -= h

                def smooth_of(arr):
                    fg = arr[1:].reshape(3, -1)
                    from rigidda.losses import _sigmoid

                    return 1.0 - float(np.mean(_sigmoid((fg - r) / tau)))

                fd = (smooth_of(up) - smooth_of(dn)) / (2 * h)
                assert abs(upstream[(c, *idx)] - fd) < 1e-6
        assert np.abs(upstream[0]).max() == 0.0


class TestProbabilityVolume:
    def test_rejects_bad_sum(self):
        g = GridGeometry.isotropic((2, 2, 2), 1.0)
        q = np.full((4, 2, 2, 2), 0.3)
        with pytest.raises(ValidationError):
            ProbabilityVolume(g, q)

    def test_rejects_out_of_range(self):
        g = GridGeometry.isotropic((2, 2, 2), 1.0)
        q = np.zeros((4, 2, 2, 2))
        q[0] = 1.5
        q[1] = -0.5
        with pytest.raises(ValidationError):
            ProbabilityVolume(g, q)

    def test_foreground_view_shape(self, rng):
        g = GridGeometry.isotropic((3, 3, 3), 1.0)
        raw = rng.uniform(0.1, 1.0, size=(4, 3, 3, 3))
        pv = ProbabilityVolume(g, raw / raw.sum(axis=0, keepdims=True))
        assert pv.foreground().shape == (3, 27)
        # a view of the foreground channels, not a copy
        assert np.shares_memory(pv.foreground(), pv.q)
        np.testing.assert_array_equal(pv.foreground(), pv.q[[1, 2, 3]].reshape(3, -1))


def _masked_sigmoid(x):
    """The masked two-branch logistic the branch-free form replaced."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    EDGES = [0.0, -0.0, 700.0, -700.0, 710.0, -710.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
             1e-300, -1e-300, 36.0, -36.0, 1.0, -1.0, np.inf, -np.inf]

    def _same_bits(self, x):
        from rigidda.losses import _sigmoid

        got, ref = _sigmoid(x), _masked_sigmoid(x)
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_bit_identical_on_edge_values(self):
        self._same_bits(np.array(self.EDGES))
        self._same_bits(np.array(self.EDGES).reshape(2, 3, 3))

    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=64))
    @settings(max_examples=100)
    def test_bit_identical_on_any_floats(self, values):
        self._same_bits(np.array(values))


class TestLossWeights:
    def test_defaults_valid(self):
        w = LossWeights()
        assert w.alpha1 == 1.0 and w.alpha2 == 0.1 and w.r == 0.9

    @given(
        a1=st.floats(0.01, 10.0),
        a2=st.floats(0.0, 10.0),
    )
    @settings(max_examples=50)
    def test_stability_ordering_enforced(self, a1, a2):
        if a1 > a2:
            LossWeights(alpha1=a1, alpha2=a2)
        else:
            with pytest.raises(ValidationError):
                LossWeights(alpha1=a1, alpha2=a2)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValidationError):
            LossWeights(r=1.5)
        with pytest.raises(ValidationError):
            LossWeights(tau=0.0)
