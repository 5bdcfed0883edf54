"""Rigid-parameterization tests: rotation construction, inverses, Jacobians."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidda.errors import ValidationError
from rigidda.rigid import (
    N_PARAMS,
    RigidParams,
    affine_jacobian,
    check_rigid,
    euler_from_rotation,
    euler_to_affine,
    read_transform,
    rotation_matrix,
    write_transform,
)
from conftest import central_difference

# [DERIVED] independent oracle (intrinsic-XYZ rotation composition) for
# phi=0.3, theta=-0.5, psi=0.7
ROT_ORACLE = np.array(
    [
        [0.6712121661589574, -0.5653542083811437, -0.479425538604203],
        [0.5070818727544463, 0.8219543695041273, -0.25934338005223073],
        [0.5406867876359134, -0.06903356805788476, 0.8383866435942033],
    ]
)
# [DERIVED] R @ t for t = (0.1, -0.2, 0.05) with the rotation above
RT_ORACLE = np.array([0.15622078136191433, -0.12664985562799239, 0.10979472455487846])

angles = st.floats(-np.pi, np.pi, allow_nan=False)
small_floats = st.floats(-1.0, 1.0, allow_nan=False)


def random_params(rng: np.random.Generator) -> RigidParams:
    return RigidParams.from_vector(
        np.concatenate([rng.uniform(-np.pi, np.pi, 3), rng.uniform(-1, 1, 6)])
    )


class TestRotation:
    def test_matches_independent_oracle(self):
        r = rotation_matrix(0.3, -0.5, 0.7)
        np.testing.assert_allclose(r, ROT_ORACLE, atol=1e-14)

    def test_zero_angles_identity(self):
        np.testing.assert_array_equal(rotation_matrix(0.0, 0.0, 0.0), np.eye(3))

    @given(phi=angles, theta=angles, psi=angles)
    @settings(max_examples=100)
    def test_special_orthogonal(self, phi, theta, psi):
        r = rotation_matrix(phi, theta, psi)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12

    @given(
        phi=st.floats(-1.4, 1.4),
        theta=st.floats(-1.4, 1.4),
        psi=st.floats(-1.4, 1.4),
    )
    @settings(max_examples=100)
    def test_euler_round_trip(self, phi, theta, psi):
        r = rotation_matrix(phi, theta, psi)
        rec = euler_from_rotation(r)
        np.testing.assert_allclose(rec, (phi, theta, psi), atol=1e-9)

    def test_euler_decomposition_gimbal_lock_rejected(self):
        with pytest.raises(ValidationError):
            euler_from_rotation(rotation_matrix(0.2, np.pi / 2, 0.1))


class TestEulerToAffine:
    def test_translation_oracle(self):
        p = RigidParams(0.3, -0.5, 0.7, t=(0.1, -0.2, 0.05))
        mats = euler_to_affine(p)
        np.testing.assert_allclose(mats.m[:3, :3], ROT_ORACLE, atol=1e-14)
        np.testing.assert_allclose(mats.m[:3, 3], RT_ORACLE, atol=1e-14)

    def test_closed_form_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = random_params(rng)
            mats = euler_to_affine(p)
            np.testing.assert_allclose(mats.m @ mats.m_inv, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(mats.m_t @ mats.m_t_inv, np.eye(4), atol=1e-12)

    def test_branches_share_rotation(self):
        p = RigidParams(0.4, 0.1, -0.2, t=(0.1, 0.2, 0.3), t_t=(-0.3, 0.0, 0.1))
        mats = euler_to_affine(p)
        np.testing.assert_array_equal(mats.m[:3, :3], mats.m_t[:3, :3])

    def test_translation_applied_after_rotation(self):
        # M maps x to R (x + t): the origin goes to R t
        p = RigidParams(0.5, 0.2, -0.3, t=(0.2, -0.1, 0.4))
        mats = euler_to_affine(p)
        r = rotation_matrix(0.5, 0.2, -0.3)
        origin = mats.m @ np.array([0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(origin[:3], r @ np.array([0.2, -0.1, 0.4]), atol=1e-14)


class TestJacobian:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p = random_params(rng)
        jac = affine_jacobian(p)
        probe = np.random.default_rng(seed + 100).normal(size=(4, 4))

        for attr, mat_of in (
            ("d_m", lambda q: euler_to_affine(q).m),
            ("d_m_inv", lambda q: euler_to_affine(q).m_inv),
            ("d_m_t", lambda q: euler_to_affine(q).m_t),
        ):
            def scalar(vec):
                return float(np.sum(mat_of(RigidParams.from_vector(vec)) * probe))

            fd = central_difference(scalar, p.to_vector(), h=1e-6)
            analytic = np.einsum("kij,ij->k", getattr(jac, attr), probe)
            np.testing.assert_allclose(analytic, fd, atol=1e-7)

    def test_translation_columns_disjoint(self):
        jac = affine_jacobian(RigidParams(0.1, 0.2, 0.3, t=(1, 2, 3), t_t=(4, 5, 6)))
        # cycle translation does not touch M_t, task translation does not touch M
        assert np.abs(jac.d_m[6:]).max() == 0.0
        assert np.abs(jac.d_m_t[3:6]).max() == 0.0
        assert np.abs(jac.d_m_inv[6:]).max() == 0.0


class TestParams:
    def test_vector_round_trip(self):
        v = np.arange(N_PARAMS, dtype=float) / 10.0
        np.testing.assert_array_equal(RigidParams.from_vector(v).to_vector(), v)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            RigidParams.from_vector(np.zeros(6))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            RigidParams(phi=np.nan)

    def test_random_init_near_zero(self):
        p = RigidParams.random_init(np.random.default_rng(0))
        assert np.abs(p.to_vector()).max() < 1e-8
        assert np.abs(p.to_vector()).max() > 0.0


class TestCheckRigid:
    @given(
        angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
        trans=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
        scale=st.floats(0.5, 2.0),
    )
    @settings(max_examples=50)
    def test_accepts_rotations_and_rejects_scaling(self, angles, trans, scale):
        m = euler_to_affine(RigidParams(*angles, t=trans)).m
        assert check_rigid(m, "m") is m
        scaled = m.copy()
        scaled[:3, :3] *= scale
        if abs(scale - 1.0) > 1e-6:
            with pytest.raises(ValidationError):
                check_rigid(scaled, "m")


class TestMatrixJson:
    def test_round_trip(self, tmp_path):
        params = RigidParams(0.1, 0.2, 0.3, t=(0.4, 0.5, 0.6), t_t=(-0.1, 0.0, 0.2))
        path = tmp_path / "transform.json"
        write_transform(path, params)
        mats = euler_to_affine(params)
        m, m_inv = read_transform(path)
        np.testing.assert_array_equal(m, mats.m)
        np.testing.assert_array_equal(m_inv, mats.m_inv)
        raw = json.loads(path.read_text())
        assert list(raw) == ["params", "m", "m_inv", "m_t", "m_t_inv"]
        np.testing.assert_array_equal(raw["params"], params.to_vector())
        np.testing.assert_array_equal(np.reshape(raw["m_t"], (4, 4)), mats.m_t)
        np.testing.assert_array_equal(np.reshape(raw["m_t_inv"], (4, 4)), mats.m_t_inv)

    def test_matrix_pair_round_trip(self, tmp_path):
        # a ground-truth map between grids of different extents is not rigid
        m = np.array([[0.9, 0.1, 0.0, 0.2], [-0.1, 1.2, 0.0, -0.3], [0.0, 0.0, 0.5, 0.1], [0, 0, 0, 1]])
        path = tmp_path / "gtM.json"
        write_transform(path, (m, np.linalg.inv(m)))
        assert list(json.loads(path.read_text())) == ["m", "m_inv"]
        m_back, m_inv_back = read_transform(path)
        np.testing.assert_array_equal(m_back, m)
        np.testing.assert_array_equal(m_inv_back, np.linalg.inv(m))

    def test_disagreeing_inverse_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        write_transform(path, (np.eye(4), 2.0 * np.eye(4)))
        with pytest.raises(ValidationError, match="not the inverse"):
            read_transform(path)

    def test_inverse_written_to_seven_digits_accepted(self, tmp_path):
        mats = euler_to_affine(RigidParams(0.3, -0.2, 0.1, t=(0.4, -0.5, 0.6)))
        path = tmp_path / "t.json"
        path.write_text(json.dumps({k: np.round(v, 7).reshape(16).tolist() for k, v in (("m", mats.m), ("m_inv", mats.m_inv))}))
        read_transform(path)

    def test_row_major_layout(self, tmp_path):
        m = np.arange(16, dtype=float).reshape(4, 4)
        path = tmp_path / "t.json"
        write_transform(path, (m, m))
        assert json.loads(path.read_text())["m"][:4] == [0.0, 1.0, 2.0, 3.0]

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValidationError):
            read_transform(path)
