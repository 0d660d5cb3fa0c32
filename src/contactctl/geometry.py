"""Rotation, rigid-transform, and wrench primitives.

Conventions used throughout the library:
- rotations are 3x3 orthonormal matrices with det = +1,
- a Pose maps points from its local frame into the parent frame
  (p_parent = R @ p_local + t),
- orientation errors are rotation-log (axis-angle) 3-vectors in radians,
- a Wrench is a (force, torque) pair tagged with the frame it is
  expressed in.
"""

from dataclasses import dataclass

import numpy as np

ORTHONORMAL_TOL = 1e-9

GRAVITY_WORLD = np.array([0.0, 0.0, -9.81])


class GeometryError(ValueError):
    """Invalid rotation / pose / encoding input."""


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that skew(v) @ u == cross(v, u)."""
    x, y, z = v
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3-vector cross product without np.cross's axis-handling overhead."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


_ROLL1 = np.array([1, 2, 0])
_ROLL2 = np.array([2, 0, 1])


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products along the last axis of broadcastable (..., 3) arrays.

    Bit-equal to np.cross and to cross3 row by row, at a fraction of
    np.cross's per-call cost.
    """
    return a.take(_ROLL1, -1) * b.take(_ROLL2, -1) \
        - a.take(_ROLL2, -1) * b.take(_ROLL1, -1)


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    x, y, z = axis
    c = np.cos(angle)
    s = np.sin(angle)
    t = 1.0 - c
    return np.array([
        [c + x * x * t, x * y * t - z * s, x * z * t + y * s],
        [y * x * t + z * s, c + y * y * t, y * z * t - x * s],
        [z * x * t - y * s, z * y * t + x * s, c + z * z * t],
    ])


def rotation_log(r: np.ndarray) -> np.ndarray:
    """Axis-angle 3-vector of a rotation matrix.

    Stable near the identity (first-order skew extraction) and near pi,
    where the axis is recovered from the dominant column of (R + I)/2;
    the sign of the axis is ambiguous at exactly pi, as it must be.
    """
    trace = r[0, 0] + r[1, 1] + r[2, 2]
    cos_theta = min(1.0, max(-1.0, (trace - 1.0) / 2.0))
    theta = np.arccos(cos_theta)
    if theta < 1e-10:
        # vee((R - R^T)/2) ~= theta * axis to first order
        return np.array([r[2, 1] - r[1, 2],
                         r[0, 2] - r[2, 0],
                         r[1, 0] - r[0, 1]]) / 2.0
    if np.pi - theta < 1e-6:
        b = (r + np.eye(3)) / 2.0
        k = int(np.argmax(np.diag(b)))
        axis = b[:, k]
        axis = axis / np.linalg.norm(axis)
        return theta * axis
    axis = np.array([r[2, 1] - r[1, 2],
                     r[0, 2] - r[2, 0],
                     r[1, 0] - r[0, 1]]) / (2.0 * np.sin(theta))
    return theta * axis


def rotation_log_between(r_from: np.ndarray, r_to: np.ndarray) -> np.ndarray:
    """Axis-angle of the relative rotation r_from^T r_to, in the from-frame."""
    return rotation_log(r_from.T @ r_to)


def _check_rotation(r: np.ndarray, tol: float = ORTHONORMAL_TOL) -> None:
    if r.shape != (3, 3):
        raise GeometryError(f"rotation must be 3x3, got {r.shape}")
    err = np.max(np.abs(r.T @ r - np.eye(3)))
    if err > tol:
        raise GeometryError(f"rotation not orthonormal (|R^T R - I| = {err:.3e})")
    if abs(np.linalg.det(r) - 1.0) > tol:
        raise GeometryError(f"rotation determinant {np.linalg.det(r):.12f} != +1")


@dataclass
class Pose:
    """Rigid transform: 3x3 rotation plus translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        _check_rotation(self.rotation)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        """self @ other: apply `other` in this pose's local frame."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)

    def transform_point(self, p: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(p, dtype=float) + self.translation

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def copy(self) -> "Pose":
        return Pose(self.rotation.copy(), self.translation.copy())


def pose_unchecked(rotation: np.ndarray, translation: np.ndarray) -> Pose:
    """Internal fast path: skip orthonormality validation.

    Only for rotations that are orthonormal by construction (products of
    validated rotations); public callers should use Pose().
    """
    p = object.__new__(Pose)
    p.rotation = rotation
    p.translation = translation
    return p


@dataclass
class Rot6D:
    """Continuous 6-number rotation encoding: the first two matrix columns.

    Decoding Gram-Schmidt-orthonormalizes, so any pair of non-degenerate
    vectors yields a valid rotation; encode/decode round-trips exactly on
    orthonormal input.
    """

    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        self.a1 = np.asarray(self.a1, dtype=float).reshape(3)
        self.a2 = np.asarray(self.a2, dtype=float).reshape(3)

    @staticmethod
    def encode(rotation: np.ndarray) -> "Rot6D":
        rotation = np.asarray(rotation, dtype=float)
        return Rot6D(rotation[:, 0].copy(), rotation[:, 1].copy())

    def decode(self) -> np.ndarray:
        n1 = np.linalg.norm(self.a1)
        if n1 < 1e-8:
            raise GeometryError("degenerate 6D rotation: first vector near zero")
        b1 = self.a1 / n1
        u2 = self.a2 - (b1 @ self.a2) * b1
        n2 = np.linalg.norm(u2)
        if n2 < 1e-8:
            raise GeometryError("degenerate 6D rotation: vectors near parallel")
        b2 = u2 / n2
        b3 = np.cross(b1, b2)
        return np.column_stack([b1, b2, b3])

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.a1, self.a2])

    @staticmethod
    def from_array(values: np.ndarray) -> "Rot6D":
        values = np.asarray(values, dtype=float).reshape(6)
        return Rot6D(values[:3], values[3:])


@dataclass
class Wrench:
    """6D force/torque with an explicit frame tag ('sensor', 'ee', 'world')."""

    force: np.ndarray
    torque: np.ndarray
    frame: str = "world"

    def __post_init__(self):
        self.force = np.asarray(self.force, dtype=float).reshape(3)
        self.torque = np.asarray(self.torque, dtype=float).reshape(3)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.force, self.torque])

    @staticmethod
    def from_array(values: np.ndarray, frame: str = "world") -> "Wrench":
        values = np.asarray(values, dtype=float).reshape(6)
        return Wrench(values[:3], values[3:], frame)

    @staticmethod
    def zero(frame: str = "world") -> "Wrench":
        return Wrench(np.zeros(3), np.zeros(3), frame)
