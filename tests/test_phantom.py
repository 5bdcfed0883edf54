"""Phantom rendering, pair synthesis, and analytic-segmenter behaviour."""

import json
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidda.errors import ValidationError
from rigidda.interp import SLAB_VOXELS, argmax_channels, slab_bounds
from rigidda.losses import LossWeights, ProbabilityVolume, focus_exact
from rigidda.phantom import (
    AnalyticSegmenter,
    Ellipsoid,
    PhantomSpec,
    generate_phantom,
    make_pair,
    world_rigid,
)
from rigidda.resampler import transform_volume
from rigidda.volume import (
    GridGeometry,
    LABEL_LV,
    LABEL_MYO,
    LABEL_RV,
    LabelVolume,
    Volume,
    clip_and_normalize,
    pad_to_grid,
    preprocess_labels,
)
import oracles
from conftest import BAD_SPEC_VALUES, gentle_task_spec, traced_peak

# [DERIVED] closed-form ellipsoid volumes (4/3 pi abc) for the default
# geometry; the shell volume is the outer ellipsoid minus the inner cavity,
# which it fully contains.
V_LV_MM3 = 4.0 / 3.0 * np.pi * 18.0 * 18.0 * 30.0
V_MYO_MM3 = 4.0 / 3.0 * np.pi * 26.0 * 26.0 * 38.0 - V_LV_MM3
# [DERIVED] Monte-Carlo volume of the crescent (right ellipsoid minus the
# outer shell ellipsoid), 2e6 samples in the bounding box, seed 7:
#   rng = default_rng(7); pts = c + uniform(-1,1,(n,3)) * a
#   box * mean(inside_rv & ~inside_outer)  ->  20011.46 mm^3
V_RV_MM3 = 20011.46


def _default_spec() -> PhantomSpec:
    return PhantomSpec(noise_sigma=0.0)


class TestGeneratePhantom:
    def test_deterministic_given_seed(self):
        g = GridGeometry.isotropic((24, 24, 24), 3.0)
        spec = PhantomSpec(noise_sigma=0.05)
        v1, l1 = generate_phantom(spec, g, seed=11)
        v2, l2 = generate_phantom(spec, g, seed=11)
        np.testing.assert_array_equal(v1.data, v2.data)
        np.testing.assert_array_equal(l1.data, l2.data)
        v3, _ = generate_phantom(spec, g, seed=12)
        assert not np.array_equal(v1.data, v3.data)

    def test_label_volumes_match_geometry_within_2_percent(self):
        g = GridGeometry.isotropic((64, 64, 64), 1.5)
        _, lab = generate_phantom(_default_spec(), g)
        vox = 1.5**3
        for label, expected in (
            (LABEL_LV, V_LV_MM3),
            (LABEL_MYO, V_MYO_MM3),
            (LABEL_RV, V_RV_MM3),
        ):
            got = np.count_nonzero(lab.data == label) * vox
            assert abs(got - expected) / expected < 0.02

    def test_sharp_limit_reaches_plateau_levels(self):
        from rigidda.phantom import _region_sdfs

        g = GridGeometry.isotropic((48, 48, 48), 2.0)
        spec = PhantomSpec(noise_sigma=0.0, sigma_mm=1e-3)
        vol, _ = generate_phantom(spec, g)
        # the spec's pose is the identity: world voxel centers are phantom points
        vox = np.stack(np.meshgrid(*[np.arange(n) for n in g.shape], indexing="ij"), axis=-1)
        sdfs, _ = _region_sdfs(spec, g.world_from_voxel(vox.reshape(-1, 3)))
        flat = vol.data.reshape(-1)
        # 1 mm inside each region every surface sigmoid has fully saturated
        for name, label in (("LV", LABEL_LV), ("MYO", LABEL_MYO), ("RV", LABEL_RV)):
            deep = sdfs[label] < -1.0
            assert deep.any()
            assert np.allclose(flat[deep], spec.levels[name], atol=1e-6)
        outside = np.minimum.reduce(list(sdfs.values())) > 1.0
        assert np.allclose(flat[outside], 0.0, atol=1e-6)

    def test_myocardial_ring_in_central_slice(self):
        g = GridGeometry.isotropic((65, 65, 65), 1.5)
        _, lab = generate_phantom(_default_spec(), g)
        mid = lab.data[:, :, 32]
        c = 32
        assert mid[c, c] == LABEL_LV
        # walking +x from the center: cavity, then shell, then background
        row = mid[c:, c]
        assert row[0] == LABEL_LV
        assert LABEL_MYO in row
        first_myo = int(np.argmax(row == LABEL_MYO))
        assert np.all(row[:first_myo] == LABEL_LV)
        assert row[-1] == 0
        # the crescent sits on the -x side only
        assert LABEL_RV in mid[:c, c]
        assert LABEL_RV not in mid[c:, c]

    def test_quarter_turn_pose_permutes_labels(self):
        g = GridGeometry.isotropic((33, 33, 33), 2.0)
        _, lab = generate_phantom(_default_spec(), g)
        _, lab_r = generate_phantom(
            _default_spec(), g, pose=world_rigid((0.0, 0.0, np.pi / 2), (0.0, 0.0, 0.0))
        )
        np.testing.assert_array_equal(lab_r.data, np.rot90(lab.data, k=1, axes=(0, 1)))

    def test_labels_disjoint_by_construction(self):
        g = GridGeometry.isotropic((32, 32, 32), 2.5)
        _, lab = generate_phantom(_default_spec(), g)
        assert set(np.unique(lab.data)) <= {0, LABEL_LV, LABEL_MYO, LABEL_RV}


class TestPhantomSpec:
    def test_json_round_trip(self):
        spec = replace(_default_spec().scaled(0.7), pose=world_rigid((0.1, -0.2, 0.3), (1.0, 2.0, -3.0)))
        back = PhantomSpec.from_json(spec.to_json())
        assert back.lv == spec.lv
        assert back.myo_outer == spec.myo_outer
        assert back.rv == spec.rv
        assert back.levels == spec.levels
        for name in (
            "sigma_mm",
            "noise_sigma",
            "logit_scale",
            "prior_sigma_mm",
            "prior_bias_mm",
            "intensity_sigma",
        ):
            assert getattr(back, name) == getattr(spec, name)
        np.testing.assert_allclose(back.pose, spec.pose)

    def test_levels_are_read_only(self):
        given = {"background": 0.0, "LV": 1.0, "MYO": 0.5, "RV": 0.7}
        spec = PhantomSpec(levels=given)
        AnalyticSegmenter(spec, GridGeometry.isotropic((16, 16, 12), 3.0))
        with pytest.raises(TypeError):
            spec.levels["LV"] = 7.0
        with pytest.raises(TypeError):
            del spec.levels["RV"]
        given["LV"] = 7.0  # the spec keeps its own copy
        assert spec.levels["LV"] == 1.0
        assert replace(spec, sigma_mm=2.0).levels == spec.levels

    def test_to_json_writes_every_field_in_order(self):
        spec = replace(_default_spec().scaled(0.7), pose=world_rigid((0.1, -0.2, 0.3), (1.0, 2.0, -3.0)))
        expected = {
            "lv": {"center": list(spec.lv.center), "semi_axes": list(spec.lv.semi_axes)},
            "myo_outer": {"center": list(spec.myo_outer.center), "semi_axes": list(spec.myo_outer.semi_axes)},
            "rv": {"center": list(spec.rv.center), "semi_axes": list(spec.rv.semi_axes)},
            "levels": {"background": 0.0, "LV": 1.0, "MYO": 0.55, "RV": 0.75},
            **{name: getattr(spec, name) for name in (
                "sigma_mm", "noise_sigma", "logit_scale", "prior_sigma_mm", "prior_bias_mm", "intensity_sigma"
            )},
            "pose": spec.pose.reshape(16).tolist(),
        }
        assert spec.to_json() == json.dumps(expected, indent=2)

    def test_from_json_and_scaled_round_trip_the_text(self):
        spec = replace(_default_spec().scaled(0.7), pose=world_rigid((0.1, -0.2, 0.3), (1.0, 2.0, -3.0)))
        back = PhantomSpec.from_json(spec.to_json())
        assert back.to_json() == spec.to_json()
        with pytest.raises(TypeError):
            back.levels["LV"] = 7.0
        assert PhantomSpec.from_json(spec.scaled(2.0).to_json()).to_json() == spec.scaled(2.0).to_json()

    @pytest.mark.parametrize(
        "text, known",
        [
            ('{"sigmamm": 5.0}', "sigma_mm"),
            ('{"rv": {"center": [0, 0, 0], "semi_axes": [1, 1, 1], "centre": [0, 0, 0]}}', "center, semi_axes"),
        ],
    )
    def test_unknown_names_rejected_with_the_known_ones(self, text, known):
        with pytest.raises(ValidationError, match="unknown phantom spec") as err:
            PhantomSpec.from_json(text)
        assert known in str(err.value)

    def test_scaled_shrinks_lengths_only(self):
        spec = _default_spec().scaled(0.5)
        assert spec.lv.semi_axes == (9.0, 9.0, 15.0)
        assert spec.rv.center == (-12.0, 0.0, 0.0)
        assert spec.sigma_mm == 0.5
        assert spec.prior_bias_mm == 0.25
        assert spec.intensity_sigma == _default_spec().intensity_sigma

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            PhantomSpec(sigma_mm=0.0)
        with pytest.raises(ValidationError):
            PhantomSpec(pose=np.eye(3))
        with pytest.raises(ValidationError):
            PhantomSpec.from_json("not json {")
        with pytest.raises(ValidationError):
            Ellipsoid((0, 0, 0), (1.0, -1.0, 1.0))


class TestSpecValues:
    """PhantomSpec and Ellipsoid check every field when built, in Python and from JSON alike."""

    @pytest.mark.parametrize("name, value", BAD_SPEC_VALUES.items(), ids=BAD_SPEC_VALUES)
    def test_out_of_range_value_rejected(self, name, value):
        with pytest.raises(ValidationError, match=name):
            PhantomSpec(**{name: value})
        with pytest.raises(ValidationError, match=name):
            PhantomSpec.from_json(json.dumps({name: value}))
        with pytest.raises(ValidationError, match=name):
            replace(PhantomSpec(), **{name: value})

    @pytest.mark.parametrize("name", [f.name for f in fields(PhantomSpec)])
    def test_fields_cannot_change_after_the_checks(self, name):
        """Assigning a field raises, so no value skips ``__post_init__``: an
        ``intensity_sigma`` of 0 set that way once made the segmenter divide by zero."""
        spec = PhantomSpec()
        with pytest.raises(FrozenInstanceError):
            setattr(spec, name, BAD_SPEC_VALUES.get(name, getattr(spec, name)))
        with pytest.raises(ValueError, match="read-only"):
            spec.pose[0, 3] = 1.0
        assert spec.to_json() == PhantomSpec().to_json()

    @given(
        name=st.sampled_from(
            ["sigma_mm", "noise_sigma", "logit_scale", "prior_sigma_mm", "prior_bias_mm", "intensity_sigma"]
        ),
        value=st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324])),
    )
    @settings(max_examples=60)
    def test_number_rule(self, name, value):
        """Finite everywhere; above 0 for the widths and the logit scale, at least 0 for the noise."""
        valid = np.isfinite(value) and (name == "prior_bias_mm" or value > 0 or (name == "noise_sigma" and value == 0))
        for build in (lambda: PhantomSpec(**{name: value}), lambda: PhantomSpec.from_json(json.dumps({name: value}))):
            if valid:
                assert getattr(build(), name) == value
            else:
                with pytest.raises(ValidationError):
                    build()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma_mm": True},
            {"logit_scale": "40"},
            {"lv": ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))},
            {"levels": {"background": 0.0, "LV": 1.0, "MYO": 0.5}},
            {"levels": {"background": 0.0, "LV": 1.0, "MYO": 0.5, "RV": float("nan")}},
            {"levels": {"background": 0.0, "LV": 1.0, "MYO": 0.5, "RV": 0.7, 1: 0.0}},
            {"levels": [0.0, 1.0, 0.5, 0.7]},
            {"pose": np.diag([2.0, 1.0, 1.0, 1.0])},
            {"pose": world_rigid((0.1, 0.2, 0.3), (np.inf, 0.0, 0.0))},
        ],
        ids=["bool", "string", "tuple-ellipsoid", "three-levels", "nan-level", "fifth-level", "list-levels",
             "scaling-pose", "infinite-translation"],
    )
    def test_malformed_field_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            PhantomSpec(**kwargs)

    @pytest.mark.parametrize(
        "center, semi_axes",
        [((0, 0, 0), (1, 0, 1)), ((0, 0, 0), (1, np.inf, 1)), ((np.nan, 0, 0), (1, 1, 1)), ((0, 0), (1, 1, 1))],
        ids=["zero-axis", "infinite-axis", "nan-center", "short-center"],
    )
    def test_ellipsoid_checked_when_built(self, center, semi_axes):
        with pytest.raises(ValidationError, match="ellipsoid"):
            Ellipsoid(center, semi_axes)

    def test_ellipsoid_read_from_json_is_checked(self):
        with pytest.raises(ValidationError, match="ellipsoid"):
            PhantomSpec.from_json('{"rv": {"center": [0, 0, 0], "semi_axes": [1, 0, 1]}}')

    def test_scaled_copy_shares_no_mutable_field(self):
        spec = PhantomSpec()
        copy = spec.scaled(0.5)
        with pytest.raises(TypeError):
            copy.levels["LV"] = 0.3
        assert copy.levels == spec.levels and spec.levels["LV"] == 1.0
        assert not copy.pose.flags.writeable and not np.shares_memory(copy.pose, spec.pose)
        with pytest.raises(ValidationError, match="ellipsoid"):
            spec.scaled(0.0)


class TestMakePair:
    def test_identity_pair_reconstructs_second_view(self):
        pair = make_pair(PhantomSpec(), np.eye(4), grid=(48, 48, 48), iso=2.0, seed=3)
        res = transform_volume(pair.i, pair.gt_m, pair.i.geometry)
        span = pair.j.data.max() - pair.j.data.min()
        rmse = np.sqrt(np.mean((res.image.data - pair.j.data) ** 2))
        assert rmse / span < 0.03

    def test_ground_truth_transform_aligns_both_ways(self):
        rel = world_rigid((0.2, -0.15, 0.1), (4.0, -3.0, 2.0))
        pair = make_pair(PhantomSpec(), rel, grid=(48, 48, 48), iso=2.0, seed=3)
        span = pair.j.data.max() - pair.j.data.min()
        fwd = transform_volume(pair.i, pair.gt_m, pair.i.geometry)
        v = fwd.validity.astype(bool)
        assert np.sqrt(np.mean((fwd.image.data[v] - pair.j.data[v]) ** 2)) / span < 0.03
        bwd = transform_volume(pair.j, pair.gt_m_inv, pair.i.geometry)
        v = bwd.validity.astype(bool)
        assert np.sqrt(np.mean((bwd.image.data[v] - pair.i.data[v]) ** 2)) / span < 0.03

    def test_anisotropic_acquisition_grids_land_on_common_grid(self):
        pair = make_pair(
            PhantomSpec(),
            np.eye(4),
            grid=(32, 32, 32),
            iso=3.0,
            ax_spacing=(1.5, 1.5, 6.0),
            sax_spacing=(2.0, 2.0, 8.0),
            seed=1,
        )
        assert pair.i.geometry.shape == (32, 32, 32)
        assert pair.i.geometry.shape == pair.j.geometry.shape
        np.testing.assert_allclose(pair.i.geometry.spacing, [3.0, 3.0, 3.0])
        # normalized intensities
        assert 0.0 <= pair.i.data.min() and pair.i.data.max() <= 1.0

    def test_gt_matrices_are_mutual_inverses(self):
        rel = world_rigid((0.3, 0.1, -0.2), (2.0, 1.0, -4.0))
        pair = make_pair(PhantomSpec(), rel, grid=(24, 24, 24), iso=4.0)
        np.testing.assert_allclose(pair.gt_m @ pair.gt_m_inv, np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize("name", ["iso", "ax", "sax"])
    def test_bad_spacing_rejected_before_geometry(self, name, bad):
        spacing = {"iso": {"iso": bad}, "ax": {"ax_spacing": (2.0, 2.0, bad)}, "sax": {"sax_spacing": (bad, 2.0, 2.0)}}
        with pytest.raises(ValidationError, match=f"^{name} spacing must be 3 finite positive values"):
            make_pair(PhantomSpec(), np.eye(4), grid=(8, 8, 8), **{"iso": 4.0, **spacing[name]})

    @pytest.mark.parametrize("name", ["ax_spacing", "sax_spacing"])
    def test_spacing_of_wrong_length_rejected(self, name):
        with pytest.raises(ValidationError, match="spacing must be 3 finite positive values, got \\(2.0, 2.0\\)"):
            make_pair(PhantomSpec(), np.eye(4), grid=(8, 8, 8), iso=4.0, **{name: (2.0, 2.0)})


class TestAnalyticSegmenter:
    def _calibration(self, spec, g, pose=None):
        vol, lab = generate_phantom(spec, g, pose=pose)
        seg = AnalyticSegmenter(spec, g)
        q = seg.evaluate(vol)
        confident = 0
        total = 0
        for c in (LABEL_LV, LABEL_MYO, LABEL_RV):
            inside = lab.data == c
            total += int(inside.sum())
            confident += int(np.count_nonzero(q.q[c][inside] > 0.9))
        return confident / total

    def test_confident_at_canonical_pose(self):
        g = GridGeometry.isotropic((48, 48, 48), 2.0)
        assert self._calibration(_default_spec(), g) > 0.95

    def test_confidence_collapses_off_pose(self):
        g = GridGeometry.isotropic((48, 48, 48), 2.0)
        spec = _default_spec()
        canonical = self._calibration(spec, g)
        rotated = self._calibration(
            spec, g, pose=world_rigid((np.pi / 2, 0.0, 0.0), (0.0, 0.0, 0.0))
        )
        assert rotated < 0.5 * canonical

    def test_focus_objective_is_unimodal_in_rotation(self):
        g = GridGeometry.isotropic((48, 48, 48), 2.0)
        spec = _default_spec()
        seg = AnalyticSegmenter(spec, g)
        vals = []
        for ang in np.linspace(-0.6, 0.6, 21):
            vol, _ = generate_phantom(spec, g, pose=world_rigid((ang, 0.0, 0.0), (0.0, 0.0, 0.0)))
            vals.append(focus_exact(seg.evaluate(vol), LossWeights().r))
        assert int(np.argmin(vals)) == 10
        assert all(vals[i] >= vals[i + 1] for i in range(10))
        assert all(vals[i] <= vals[i + 1] for i in range(10, 20))

    def test_probabilities_well_formed(self, rng):
        g = GridGeometry.isotropic((16, 16, 16), 3.0)
        spec = gentle_task_spec()
        seg = AnalyticSegmenter(spec, g)
        vol, _ = generate_phantom(replace(spec, noise_sigma=0.05), g, seed=5)
        q = seg.evaluate(vol)
        np.testing.assert_allclose(q.q.sum(axis=0), 1.0, atol=1e-12)
        assert q.q.min() >= 0.0

    def test_probabilities_pass_the_checks_and_are_read_only(self):
        """evaluate wraps its softmax unchecked; the checking constructor accepts it as it is."""
        g = GridGeometry.isotropic((16, 16, 16), 3.0)
        spec = gentle_task_spec()
        vol, _ = generate_phantom(replace(spec, noise_sigma=0.05), g, seed=5)
        q = AnalyticSegmenter(spec, g).evaluate(vol)
        assert not q.q.flags.writeable
        np.testing.assert_array_equal(ProbabilityVolume(g, q.q).q, q.q)

    def test_gradient_matches_finite_differences(self, rng):
        from rigidda.volume import Volume

        g = GridGeometry.isotropic((10, 9, 8), 3.0)
        spec = gentle_task_spec()
        seg = AnalyticSegmenter(spec, g)
        base, _ = generate_phantom(spec, g)
        data = base.data + rng.normal(0.0, 0.05, size=g.shape)
        upstream = rng.normal(size=(4, *g.shape))
        analytic = seg.gradient(Volume(g, data), upstream)
        h = 1e-6
        flat = data.reshape(-1)
        for idx in rng.choice(flat.size, 20, replace=False):
            up = flat.copy()
            dn = flat.copy()
            up[idx] += h
            dn[idx] -= h

            def scalar(arr):
                q = seg.evaluate(Volume(g, arr.reshape(g.shape)))
                return float(np.sum(upstream * q.q))

            fd = (scalar(up) - scalar(dn)) / (2.0 * h)
            assert abs(analytic.reshape(-1)[idx] - fd) < 1e-5 * max(1.0, abs(fd))

    def _noisy_case(self, rng, spec):
        from rigidda.volume import Volume

        g = GridGeometry.isotropic((10, 9, 8), 3.0)
        seg = AnalyticSegmenter(spec, g)
        base, _ = generate_phantom(spec, g)
        vol = Volume(g, base.data + rng.normal(0.0, 0.05, size=g.shape))
        return seg, vol, rng.normal(size=(4, *g.shape))

    def test_gradient_reuses_given_probabilities(self, rng):
        seg, vol, upstream = self._noisy_case(rng, gentle_task_spec())
        np.testing.assert_array_equal(
            seg.gradient(vol, upstream, q=seg.evaluate(vol)), seg.gradient(vol, upstream)
        )

    @pytest.mark.parametrize("spec", [gentle_task_spec(), _default_spec()], ids=["gentle", "default"])
    def test_closed_form_matches_softmax_vjp_oracle(self, rng, spec):
        seg, vol, upstream = self._noisy_case(rng, spec)
        # oracle: per-class logit derivatives dz, the 4-channel softmax VJP
        k, sig2 = spec.logit_scale, spec.intensity_sigma**2
        data, template = vol.data, seg._template
        aff = np.exp(-((data - template) ** 2) / (2.0 * sig2))
        daff = -(data - template) / sig2 * aff
        q = seg.evaluate(vol).q
        dz = np.zeros_like(q)
        for row, c in enumerate((1, 2, 3)):
            dz[c] = k * seg._prior[row] * daff
        ref = np.sum(upstream * q * (dz - np.sum(q * dz, axis=0)[None]), axis=0)
        got = seg.gradient(vol, upstream)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_grid_mismatch_rejected(self):
        from rigidda.volume import Volume

        g = GridGeometry.isotropic((8, 8, 8), 3.0)
        seg = AnalyticSegmenter(_default_spec(), g)
        other = GridGeometry.isotropic((9, 9, 9), 3.0)
        with pytest.raises(ValidationError):
            seg.evaluate(Volume(other, np.zeros(other.shape)))
        with pytest.raises(ValidationError):
            seg.gradient(Volume(g, np.zeros(g.shape)), np.zeros((2, 8, 8, 8)))


def _support_spec(kind: str) -> PhantomSpec:
    posed = PhantomSpec(noise_sigma=0.0, pose=world_rigid((0.3, -0.2, 0.4), (4.0, -3.0, 6.0)))
    return {
        "default": _default_spec(),
        "scaled": _default_spec().scaled(0.5),
        "posed": posed.scaled(0.6),
        "gentle": gentle_task_spec(),
        # every prior rounds to exactly 1/2, so each foreground logit can only tie k / 2
        "flat prior": replace(_default_spec(), prior_sigma_mm=1e18),
    }[kind]


class TestSupport:
    """Outside the in-plane window ``support`` reports for a range of slices the
    segmenter labels every voxel class 0, whatever the input; the window is the
    bounding box of the voxels where some ``k * prior_c`` exceeds ``k / 2``."""

    @given(
        kind=st.sampled_from(["default", "scaled", "posed", "gentle", "flat prior"]),
        shape=st.sampled_from([(17, 13, 11), (40, 40, 23), (24, 20, 9), (12, 30, 16)]),
        spacing=st.sampled_from([1.0, 1.5, 3.0]),
        # up to 30 mm off centre, which crops the phantom as the apex draws do
        shift=st.tuples(*[st.floats(-30.0, 30.0)] * 3),
        intensity=st.sampled_from(["template", "random", "near template"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60)
    def test_labels_outside_the_window_are_background(self, kind, shape, spacing, shift, intensity, seed):
        spec = _support_spec(kind)
        sp = np.full(3, spacing)
        g = GridGeometry(shape, sp, -sp * (np.asarray(shape) - 1.0) / 2.0 + np.asarray(shift), np.eye(3))
        seg = AnalyticSegmenter(spec, g)
        rng = np.random.default_rng(seed)
        # the template itself makes the affinity exactly 1, the largest each logit can get
        data = {
            "template": seg._template,
            "random": rng.uniform(-0.5, 1.5, g.shape),
            "near template": seg._template + rng.normal(0.0, 0.05, g.shape),
        }[intensity]
        labels = argmax_channels(seg.evaluate(Volume(g, data)).q)
        k = spec.logit_scale
        live = (seg._prior * k > k / 2).any(axis=0)
        z = int(rng.integers(shape[2]))
        for z0, z1 in slab_bounds(shape) + [(0, shape[2]), (z, z + 1)]:
            window = seg.support(z0, z1)
            outside = np.ones(shape[:2] + (z1 - z0,), dtype=bool)
            if window is not None:
                x0, x1, y0, y1 = window
                outside[x0:x1, y0:y1] = False
            assert not labels[..., z0:z1][outside].any()
            points = np.argwhere(live[..., z0:z1])
            if points.size == 0:
                assert window is None
            else:
                (x0, y0, _), (x1, y1, _) = points.min(axis=0), points.max(axis=0) + 1
                assert window == (x0, x1, y0, y1)

    def test_restricted_window_bounds_its_own_labels(self):
        """A windowed segmenter gives the whole segmenter's values there, and its
        own support, in its own coordinates, still bounds its labels."""
        g = GridGeometry.isotropic((24, 20, 9), 1.5)
        seg = AnalyticSegmenter(_default_spec().scaled(0.4), g)
        box = (3, 17, 5, 20)
        part = seg.restrict(2, 7, box)
        data = seg._template[3:17, 5:20, 2:7]
        q = part.evaluate(Volume(part.geometry, data)).q
        np.testing.assert_array_equal(q, seg.evaluate(Volume(g, seg._template)).q[:, 3:17, 5:20, 2:7])
        x0, x1, y0, y1 = part.support(0, 5)
        labels = argmax_channels(q)
        labels[x0:x1, y0:y1] = 0
        assert not labels.any()


class TestOneRender:
    """The phantom and the segmenter's fields come from one render, with the
    bytes of the two-render oracle."""

    @given(
        shape=st.tuples(*[st.integers(2, 12)] * 3),
        spacing=st.tuples(*[st.sampled_from([2.0, 4.0, 6.0, 9.0])] * 3),
        angles=st.tuples(*[st.floats(-0.6, 0.6)] * 3),
        shift=st.tuples(*[st.floats(-12.0, 12.0)] * 3),
        noise=st.sampled_from([0.01, 0.0, 0.05]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40)
    def test_phantom_and_segmenter_match_oracle(self, shape, spacing, angles, shift, noise, seed):
        spacing = np.asarray(spacing)
        g = GridGeometry(shape, spacing, -spacing * (np.asarray(shape) - 1.0) / 2.0, np.eye(3))
        spec = PhantomSpec(noise_sigma=noise, pose=world_rigid(angles, shift))
        vol, lab = generate_phantom(spec, g, seed=seed)
        ref_vol, ref_lab = oracles.generate_phantom(spec, g, seed=seed)
        assert vol.data.tobytes() == ref_vol.tobytes()
        assert lab.data.tobytes() == ref_lab.tobytes()
        seg = AnalyticSegmenter(spec, g)
        prior, template = oracles.segmenter_fields(spec, g)
        assert seg._prior.tobytes() == prior.tobytes()
        assert seg._template.tobytes() == template.tobytes()

    def test_shared_surfaces_go_to_the_inner_structure(self):
        # 2 mm voxels centred on the origin put voxel centres exactly on the LV
        # surface at x = 18 mm and on the outer surface at x = -26 mm, inside the RV
        g = GridGeometry.isotropic((29, 29, 29), 2.0)
        spec = _default_spec()
        _, lab = generate_phantom(spec, g)
        assert lab.data[23, 14, 14] == LABEL_LV
        assert lab.data[1, 14, 14] == LABEL_MYO
        assert lab.data.tobytes() == oracles.generate_phantom(spec, g)[1].tobytes()

    def test_segmenter_init_evaluates_each_ellipsoid_once(self, monkeypatch):
        """Each ellipsoid is evaluated once at every voxel center: once per slab,
        on points that no other slab sees."""
        calls = []
        sdf = Ellipsoid.sdf

        def counted(self, points_mm):
            calls.append((self, points_mm.copy()))
            return sdf(self, points_mm)

        monkeypatch.setattr(Ellipsoid, "sdf", counted)
        spec = _default_spec()
        g = GridGeometry.isotropic((40, 40, 23), 2.0)
        AnalyticSegmenter(spec, g)
        n_slabs = len(slab_bounds(g.shape))
        assert n_slabs == 3
        assert len(calls) == 3 * n_slabs
        assert {id(e) for e, _ in calls} == {id(spec.lv), id(spec.myo_outer), id(spec.rv)}
        for ellipsoid in (spec.lv, spec.myo_outer, spec.rv):
            points = [p for e, p in calls if e is ellipsoid]
            assert len(points) == n_slabs
            points = np.concatenate(points)
            assert len(np.unique(points, axis=0)) == len(points) == g.num_voxels

    @pytest.mark.parametrize("ax_spacing", [None, (3.0, 3.0, 7.5), (2.0, 4.0, 3.0)])
    def test_make_pair_matches_oracle(self, ax_spacing):
        spec = PhantomSpec(noise_sigma=0.05).scaled(0.4)
        rel = world_rigid((0.1, -0.2, 0.15), (3.0, -2.0, -6.0))
        grid, iso, seed = (16, 14, 12), 3.0, 5
        pair = make_pair(spec, rel, grid=grid, iso=iso, ax_spacing=ax_spacing, seed=seed)
        if ax_spacing is None:
            g_ax = GridGeometry.isotropic(grid, iso)
        else:
            sp = np.asarray(ax_spacing)
            n = tuple(max(2, int(round(e / s)) + 1) for e, s in zip(np.asarray(grid) * iso, sp))
            g_ax = GridGeometry(n, sp, -sp * (np.asarray(n) - 1.0) / 2.0, np.eye(3))
        views = (
            (pair.i, pair.labels_i, g_ax, seed, rel @ spec.pose),
            (pair.j, pair.labels_j, GridGeometry.isotropic(grid, iso), seed + 1, spec.pose),
        )
        for vol, lab, g, view_seed, pose in views:
            intensity, labels = oracles.generate_phantom(spec, g, seed=view_seed, pose=pose)
            if np.any(g.spacing != iso):
                intensity, g_iso = oracles.resample_isotropic(intensity, g, iso)
            else:
                g_iso = g
            ref = clip_and_normalize(pad_to_grid(Volume(g_iso, intensity), grid))
            assert vol.data.tobytes() == ref.data.tobytes()
            ref_labels, _ = oracles.preprocess_labels(LabelVolume(g, labels), iso, grid)
            assert lab.data.tobytes() == ref_labels.tobytes()


# 64 x 64 x 9 makes three slabs, the last one slice deep; 40 x 40 x 23 three
# with a short last one; a 150 x 150 slice is more than SLAB_VOXELS, so
# 150 x 150 x 3 makes three one-slice slabs
MULTI_SLAB = ((64, 64, 9), (40, 40, 23), (150, 150, 3))


def _acquisition(grid, iso, spacing) -> GridGeometry:
    """``make_pair``'s acquisition grid of ``spacing`` over the extent of ``grid`` at ``iso``."""
    sp = np.asarray(spacing, dtype=float)
    n = tuple(max(2, int(round(e / s)) + 1) for e, s in zip(np.asarray(grid) * iso, sp))
    return GridGeometry(n, sp, -sp * (np.asarray(n) - 1.0) / 2.0, np.eye(3))


class TestMultiSlabRender:
    """The slab-by-slab set-up gives the bytes of the whole-grid oracle on grids
    of several slabs and of slabs larger than SLAB_VOXELS, on one CPU and on two threads."""

    spec = PhantomSpec(noise_sigma=0.05)
    pose = world_rigid((0.2, -0.3, 0.1), (3.0, -2.0, 5.0))

    def test_grids_cut_into_several_slabs(self):
        for grid in MULTI_SLAB:
            assert len(slab_bounds(grid)) == 3
        assert 150 * 150 > SLAB_VOXELS

    @pytest.mark.parametrize("grid", MULTI_SLAB)
    def test_phantom_and_segmenter_fields(self, grid, threads):
        g = GridGeometry.isotropic(grid, 2.0)
        vol, lab = generate_phantom(self.spec, g, seed=7, pose=self.pose)
        ref_vol, ref_lab = oracles.generate_phantom(self.spec, g, seed=7, pose=self.pose)
        assert vol.data.tobytes() == ref_vol.tobytes()
        assert lab.data.tobytes() == ref_lab.tobytes()
        posed = replace(self.spec, pose=self.pose)
        seg = AnalyticSegmenter(posed, g)
        prior, template = oracles.segmenter_fields(posed, g)
        assert seg._prior.tobytes() == prior.tobytes()
        assert seg._template.tobytes() == template.tobytes()

    @pytest.mark.parametrize("grid", MULTI_SLAB)
    def test_preprocess_labels(self, grid, threads, rng):
        # 3 x 3 x 4 mm voxels resampled to 2 mm: samples fall between the
        # labels on every axis, and on exact half voxels along z; a third of
        # the phantom's labels are replaced at random, so most cells are mixed
        g = _acquisition(grid, 2.0, (3.0, 3.0, 4.0))
        _, lab = generate_phantom(self.spec, g, pose=self.pose)
        data = np.where(rng.random(g.shape) < 0.3, rng.integers(0, 4, size=g.shape), lab.data)
        lab = LabelVolume(g, data)
        out = preprocess_labels(lab, 2.0, grid)
        ref, geom = oracles.preprocess_labels(lab, 2.0, grid)
        assert out.data.tobytes() == ref.tobytes()
        assert out.geometry.origin.tobytes() == geom.origin.tobytes()

    @pytest.mark.parametrize("grid", MULTI_SLAB)
    def test_make_pair(self, grid, threads):
        rel, iso, seed, ax_spacing = world_rigid((0.1, -0.2, 0.15), (3.0, -2.0, -4.0)), 2.0, 5, (3.0, 3.0, 4.0)
        pair = make_pair(self.spec, rel, grid=grid, iso=iso, ax_spacing=ax_spacing, seed=seed)
        views = (
            (pair.i, pair.labels_i, _acquisition(grid, iso, ax_spacing), seed, rel @ self.spec.pose),
            (pair.j, pair.labels_j, GridGeometry.isotropic(grid, iso), seed + 1, self.spec.pose),
        )
        for vol, lab, g, view_seed, pose in views:
            intensity, labels = oracles.generate_phantom(self.spec, g, seed=view_seed, pose=pose)
            g_iso = g
            if np.any(g.spacing != iso):
                intensity, g_iso = oracles.resample_isotropic(intensity, g, iso)
            ref = clip_and_normalize(pad_to_grid(Volume(g_iso, intensity), grid))
            assert vol.data.tobytes() == ref.data.tobytes()
            ref_labels, _ = oracles.preprocess_labels(LabelVolume(g, labels), iso, grid)
            assert lab.data.tobytes() == ref_labels.tobytes()


class TestSetUpMemory:
    """Set-up at 64^3 holds slab-sized temporaries beside its outputs: one
    float64 array over the grid is 2 MiB, and two slabs are in flight on two threads."""

    g = GridGeometry.isotropic((64, 64, 64), 1.5)
    spec = PhantomSpec()
    rel = world_rigid((0.3, -0.2, 0.25), (6.0, -4.0, 3.0))

    def test_generate_phantom_peak(self):
        # intensity, labels and the noise draw are 4.5 MiB of it; the
        # whole-grid point arrays and region SDFs made it 34.0 MiB
        assert traced_peak(lambda: generate_phantom(self.spec, self.g, seed=3, pose=self.rel)) <= 8 * 2**20

    def test_segmenter_init_peak(self):
        # the template and the three prior channels are 8 MiB of it; the
        # whole-grid render and the stacked prior made it 34.0 MiB
        assert traced_peak(lambda: AnalyticSegmenter(self.spec, self.g)) <= 13 * 2**20

    def test_make_pair_peak(self):
        # the two preprocessed views and their labels are 5 MiB of it, the
        # intensity normalization holds three grids at once; 36.5 MiB with
        # whole-grid renders
        assert traced_peak(lambda: make_pair(self.spec, self.rel, grid=(64, 64, 64), iso=1.5, seed=4)) <= 16 * 2**20
