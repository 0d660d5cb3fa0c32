"""Rotation and rigid-transform primitives.

Conventions used throughout the library:
- rotations are 3x3 orthonormal matrices with det = +1,
- a Pose maps points from its local frame into the parent frame
  (p_parent = R @ p_local + t),
- orientation errors are rotation-log (axis-angle) 3-vectors in radians,
- a wrench is a (..., 6) float array, force then torque; the function that
  returns it says which frame it is expressed in.

The rotation functions take a leading batch axis: (..., 3) vectors and
(..., 3, 3) matrices give one result per row, computed with the same
operations in the same order as for a single input, so a row's bits do not
depend on the batch around it.
"""

from dataclasses import dataclass

import numpy as np

ORTHONORMAL_TOL = 1e-9

GRAVITY_WORLD = np.array([0.0, 0.0, -9.81])

_EYE3 = np.eye(3)


class GeometryError(ValueError):
    """Invalid rotation / pose / encoding input."""


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that skew(v) @ u == cross(v, u)."""
    x, y, z = v
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


# v @ _SKEW_BASIS is skew(v) flattened, for a stack of vectors v
_SKEW_BASIS = np.stack([skew(e) for e in _EYE3]).reshape(3, 9)


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3-vector cross product without np.cross's axis-handling overhead;
    of (3, ...) stacks too, component first."""
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


def skew_rows(v: np.ndarray) -> np.ndarray:
    """Skew matrices (..., 3, 3) of a stack of (..., 3) vectors."""
    v = np.asarray(v, dtype=float)
    return (v @ _SKEW_BASIS).reshape(v.shape + (3,))


def rodrigues(cos: np.ndarray, sin: np.ndarray, skew_axis: np.ndarray,
              outer_axis: np.ndarray) -> np.ndarray:
    """R = c I + s [a]x + (1 - c) a a^T from the cosines and sines (...) of
    the angles and the skew (..., 3, 3) and outer products of the axes.

    Entry by entry this rounds exactly as the expanded textbook formula
    (e.g. x y (1 - c) - z s off the diagonal).
    """
    c = cos[..., None, None]
    return c * _EYE3 + sin[..., None, None] * skew_axis + (1.0 - c) * outer_axis


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis of broadcastable (..., k) arrays.

    Each row goes through the same dot kernel as np.dot of that row alone,
    whatever the batch around it.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def rotation_about_axis(axis: np.ndarray, angle) -> np.ndarray:
    """Rodrigues rotation about unit axes: (..., 3) axes and (...) angles."""
    axis = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)
    return rodrigues(np.cos(angle), np.sin(angle), skew_rows(axis),
                     axis[..., :, None] * axis[..., None, :])


# flat (row-major) indices of R[2,1], R[0,2], R[1,0] and of their transposes
_VEE_PLUS = np.array([7, 2, 3])
_VEE_MINUS = np.array([5, 6, 1])


def rotation_log(r: np.ndarray) -> np.ndarray:
    """Axis-angle 3-vectors (..., 3) of rotation matrices (..., 3, 3).

    Stable near the identity (first-order skew extraction) and near pi,
    where the axis is recovered from the dominant column of (R + I)/2;
    the sign of the axis is ambiguous at exactly pi, as it must be. The
    branch is chosen per row.
    """
    r = np.asarray(r, dtype=float)
    flat = r.reshape(r.shape[:-2] + (9,))
    trace = flat[..., 0] + flat[..., 4] + flat[..., 8]
    theta = np.arccos(np.minimum(np.maximum((trace - 1.0) / 2.0, -1.0), 1.0))
    vee = flat.take(_VEE_PLUS, -1) - flat.take(_VEE_MINUS, -1)
    # vee((R - R^T)/2) ~= theta * axis to first order near the identity;
    # the batch's extreme angles tell whether any row needs a special branch
    if theta.min() < 1e-10:
        small = theta < 1e-10
        axis = vee / np.where(small, 2.0, 2.0 * np.sin(theta))[..., None]
        out = np.where(small[..., None], axis, theta[..., None] * axis)
    else:
        out = theta[..., None] * (vee / (2.0 * np.sin(theta))[..., None])
    if np.pi - theta.max() < 1e-6:
        near_pi = np.pi - theta < 1e-6
        b = (r[near_pi] + _EYE3) / 2.0
        k = np.argmax(np.diagonal(b, axis1=-2, axis2=-1), axis=-1)
        axis = np.take_along_axis(b, k[:, None, None], axis=-1)[..., 0]
        axis = axis / np.sqrt(dot_rows(axis, axis))[:, None]
        out[near_pi] = theta[near_pi][:, None] * axis
    return out


def rotation_log_between(r_from: np.ndarray, r_to: np.ndarray) -> np.ndarray:
    """Axis-angle of the relative rotation r_from^T r_to, in the from-frame."""
    return rotation_log(np.asarray(r_from).swapaxes(-1, -2) @ r_to)


def check_rotations(r: np.ndarray) -> None:
    """Raise GeometryError unless every matrix of a (..., 3, 3) stack is
    finite, orthonormal and of determinant +1."""
    if not np.isfinite(r).all():
        raise GeometryError("rotation has non-finite entries")
    err = np.abs(r.swapaxes(-1, -2) @ r - _EYE3).max(axis=(-2, -1))
    if not (err <= ORTHONORMAL_TOL).all():
        raise GeometryError(f"rotation not orthonormal (|R^T R - I| = {err.max():.3e})")
    det_err = np.abs(np.linalg.det(r) - 1.0)
    if not (det_err <= ORTHONORMAL_TOL).all():
        raise GeometryError(f"rotation determinant off +1 by {det_err.max():.3e}")


@dataclass
class Pose:
    """Rigid transform: 3x3 rotation plus translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        if self.rotation.shape != (3, 3):
            raise GeometryError(f"rotation must be 3x3, got {self.rotation.shape}")
        check_rotations(self.rotation)
        if not np.all(np.isfinite(self.translation)):
            raise GeometryError(f"pose translation not finite: {self.translation}")

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))


def pose_unchecked(rotation: np.ndarray, translation: np.ndarray) -> Pose:
    """Internal fast path: skip orthonormality validation.

    Only for rotations that are orthonormal by construction (products of
    validated rotations); public callers should use Pose(). Also holds a
    batch of poses: (..., 3, 3) rotations and (..., 3) translations.
    """
    p = object.__new__(Pose)
    p.rotation = rotation
    p.translation = translation
    return p


def decode_rot6d_rows(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Rotations (..., 3, 3), by Gram-Schmidt, of 6D encodings given as their
    two (..., 3) vectors; a row gets the bits of decoding it alone. Raises
    GeometryError if any first vector is near zero or any pair near parallel.
    """
    n1 = np.sqrt(dot_rows(a1, a1))
    if (n1 < 1e-8).any():
        raise GeometryError("degenerate 6D rotation: first vector near zero")
    b1 = a1 / n1[..., None]
    u2 = a2 - dot_rows(b1, a2)[..., None] * b1
    n2 = np.sqrt(dot_rows(u2, u2))
    if (n2 < 1e-8).any():
        raise GeometryError("degenerate 6D rotation: vectors near parallel")
    b2 = u2 / n2[..., None]
    out = np.empty(b1.shape + (3,))   # columns b1, b2, b1 x b2
    out[..., 0], out[..., 1], out[..., 2] = b1, b2, cross3(b1.T, b2.T).T
    return out


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
        return decode_rot6d_rows(self.a1, self.a2)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.a1, self.a2])

    @staticmethod
    def from_array(values: np.ndarray) -> "Rot6D":
        values = np.asarray(values, dtype=float).reshape(6)
        return Rot6D(values[:3], values[3:])


def as_vec3(values) -> np.ndarray:
    """A 3-vector, or a (..., 3) stack of them, as floats."""
    values = np.asarray(values, dtype=float)
    return values if values.ndim and values.shape[-1] == 3 else values.reshape(3)

