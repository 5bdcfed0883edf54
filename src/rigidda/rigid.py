"""Euler-parameterized rigid transforms in normalized coordinates.

The 9-parameter vector is (phi, theta, psi, tx, ty, tz, txt, tyt, tzt):
three shared Euler angles, the cycle-branch translation t and the
task-branch translation t_t. Matrices act on homogeneous normalized
coordinates and map target-grid points to source points (pull warping).

Rotation composition is R = R_x(phi) @ R_y(theta) @ R_z(psi) with the
x-convention matrices; M = R @ T so M = [R | R t]. Inverses are closed
form: M^-1 = [R^T | -t].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .io import json_numbers, read_json

N_PARAMS = 9


@dataclass
class RigidParams:
    phi: float = 0.0
    theta: float = 0.0
    psi: float = 0.0
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))
    t_t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float).copy()
        self.t_t = np.asarray(self.t_t, dtype=float).copy()
        vec = self.to_vector()
        if not np.all(np.isfinite(vec)):
            raise ValidationError("rigid parameters must be finite")

    @classmethod
    def random_init(cls, rng: np.random.Generator, std: float = 1e-10) -> "RigidParams":
        """Near-zero initialization: each parameter drawn from N(0, std^2)."""
        v = rng.normal(0.0, std, size=N_PARAMS)
        return cls.from_vector(v)

    @classmethod
    def from_vector(cls, v) -> "RigidParams":
        v = np.asarray(v, dtype=float)
        if v.shape != (N_PARAMS,):
            raise ValidationError(f"expected {N_PARAMS} parameters, got shape {v.shape}")
        return cls(phi=v[0], theta=v[1], psi=v[2], t=v[3:6], t_t=v[6:9])

    def to_vector(self) -> np.ndarray:
        return np.array([self.phi, self.theta, self.psi, *self.t, *self.t_t], dtype=float)

    @property
    def angles(self) -> np.ndarray:
        return np.array([self.phi, self.theta, self.psi], dtype=float)


def _rx(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)


def _rz(psi: float) -> np.ndarray:
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)


def _drx(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[0, 0, 0], [0, -s, -c], [0, c, -s]], dtype=float)


def _dry(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[-s, 0, c], [0, 0, 0], [-c, 0, -s]], dtype=float)


def _drz(psi: float) -> np.ndarray:
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[-s, -c, 0], [c, -s, 0], [0, 0, 0]], dtype=float)


def rotation_matrix(phi: float, theta: float, psi: float) -> np.ndarray:
    """3x3 rotation block, R = R_x R_y R_z (expanded product)."""
    cf, sf = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(psi), np.sin(psi)
    return np.array(
        [
            [ct * cp, -ct * sp, st],
            [sf * st * cp + cf * sp, -sf * st * sp + cf * cp, -sf * ct],
            [-cf * st * cp + sf * sp, cf * st * sp + sf * cp, cf * ct],
        ],
        dtype=float,
    )


def euler_from_rotation(r: np.ndarray) -> tuple[float, float, float]:
    """Recover (phi, theta, psi) from R = R_x R_y R_z, assuming |theta| < pi/2.

    With that composition R[0, 2] = sin(theta), R[1, 2] = -sin(phi) cos(theta)
    and R[0, 1] = -cos(theta) sin(psi), which pins each angle uniquely away
    from the gimbal lock at cos(theta) = 0.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValidationError("rotation must be a 3x3 matrix")
    theta = float(np.arcsin(np.clip(r[0, 2], -1.0, 1.0)))
    if abs(np.cos(theta)) < 1e-8:
        raise ValidationError("gimbal lock: theta too close to +-pi/2")
    phi = float(np.arctan2(-r[1, 2], r[2, 2]))
    psi = float(np.arctan2(-r[0, 1], r[0, 0]))
    return phi, theta, psi


def _homogeneous(rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rot
    m[:3, 3] = trans
    return m


@dataclass(frozen=True)
class TransformSet:
    """Forward/backward matrices for both branches, from one parameter vector."""

    m: np.ndarray
    m_inv: np.ndarray
    m_t: np.ndarray
    m_t_inv: np.ndarray


def euler_to_affine(p: RigidParams) -> TransformSet:
    """Build M = R T, M_t = R T_t and their closed-form inverses."""
    r = rotation_matrix(p.phi, p.theta, p.psi)
    m = _homogeneous(r, r @ p.t)
    m_inv = _homogeneous(r.T, -p.t)
    m_t = _homogeneous(r, r @ p.t_t)
    m_t_inv = _homogeneous(r.T, -p.t_t)
    return TransformSet(m, m_inv, m_t, m_t_inv)


@dataclass(frozen=True)
class AffineJacobian:
    """Analytic partials of every matrix entry with respect to the 9 parameters.

    Each field has shape (9, 4, 4); index order follows the parameter vector.
    """

    d_m: np.ndarray
    d_m_inv: np.ndarray
    d_m_t: np.ndarray


def affine_jacobian(p: RigidParams) -> AffineJacobian:
    rx, ry, rz = _rx(p.phi), _ry(p.theta), _rz(p.psi)
    r = rx @ ry @ rz
    dr = [
        _drx(p.phi) @ ry @ rz,
        rx @ _dry(p.theta) @ rz,
        rx @ ry @ _drz(p.psi),
    ]
    d_m = np.zeros((N_PARAMS, 4, 4))
    d_m_inv = np.zeros((N_PARAMS, 4, 4))
    d_m_t = np.zeros((N_PARAMS, 4, 4))
    for k in range(3):
        d_m[k, :3, :3] = dr[k]
        d_m[k, :3, 3] = dr[k] @ p.t
        d_m_inv[k, :3, :3] = dr[k].T
        d_m_t[k, :3, :3] = dr[k]
        d_m_t[k, :3, 3] = dr[k] @ p.t_t
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        d_m[3 + k, :3, 3] = r @ e
        d_m_inv[3 + k, :3, 3] = -e
        d_m_t[6 + k, :3, 3] = r @ e
    return AffineJacobian(d_m, d_m_inv, d_m_t)


def write_transform(path, transform: RigidParams | tuple[np.ndarray, np.ndarray]) -> None:
    """Write the transform file ``read_transform`` reads; each matrix is 16 row-major numbers.

    Rigid parameters give ``{params, m, m_inv, m_t, m_t_inv}``, a matrix pair such as a
    phantom's ground truth ``{m, m_inv}``.
    """
    if isinstance(transform, RigidParams):
        record = {"params": transform.to_vector(), **vars(euler_to_affine(transform))}
    else:
        record = dict(zip(("m", "m_inv"), transform))
    flat = {key: np.asarray(v, dtype=float).reshape(-1).tolist() for key, v in record.items()}
    Path(path).write_text(json.dumps(flat, indent=2))


def parse_matrix(value, what: str) -> np.ndarray:
    """A 4x4 matrix from a JSON value holding 16 finite numbers, flat or as 4 rows."""
    return json_numbers(value, ((16,), (4, 4)), what).reshape(4, 4)


def check_rigid(m: np.ndarray, what: str) -> np.ndarray:
    """``m`` itself if it is a homogeneous rigid map: bottom row 0, 0, 0, 1 and a
    rotation block that is orthonormal with determinant +1, each to 1e-6, so a
    rotation written out to 7 digits passes."""
    r = m[:3, :3]
    bottom_ok = np.abs(m[3] - [0.0, 0.0, 0.0, 1.0]).max() <= 1e-6
    if not (bottom_ok and np.abs(r.T @ r - np.eye(3)).max() <= 1e-6 and np.linalg.det(r) > 0.0):
        raise ValidationError(f"{what} is not a rigid transform")
    return m


def read_transform(path) -> tuple[np.ndarray, np.ndarray]:
    """``(m, m_inv)`` from a transform file, ``{"m", "m_inv"?, ...}`` or a bare list of 16;
    a missing ``m_inv`` is computed, and a malformed file raises ValidationError."""
    raw = read_json(path, f"transform file {path}")
    if isinstance(raw, dict):
        if "m" not in raw:
            raise ValidationError(f"transform file {path} has no \"m\" entry")
        m = parse_matrix(raw["m"], "transform \"m\"")
        if "m_inv" in raw:
            return m, parse_matrix(raw["m_inv"], "transform \"m_inv\"")
    else:
        m = parse_matrix(raw, "transform JSON (16 numbers or {m, m_inv})")
    try:
        return m, np.linalg.inv(m)
    except np.linalg.LinAlgError:
        raise ValidationError("transform matrix is singular") from None
