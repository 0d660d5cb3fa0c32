import numpy as np
import pytest

from contactctl.geometry import (GeometryError, Pose, Rot6D, cross3,
                                 cross_rows, rotation_about_axis, rotation_log,
                                 skew)
from conftest import random_rotation


def test_rotation_about_axis_is_orthonormal(rng):
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = rotation_about_axis(axis, rng.uniform(-np.pi, np.pi))
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(r), 1.0, atol=1e-12)


def test_rotation_log_round_trip(rng):
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-np.pi + 1e-3, np.pi - 1e-3)
        vec = rotation_log(rotation_about_axis(axis, angle))
        assert np.allclose(vec, angle * axis, atol=1e-9)


def test_rotation_log_identity_and_near_pi(rng):
    assert np.allclose(rotation_log(np.eye(3)), 0.0)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        for angle in (np.pi, np.pi - 1e-8, np.pi - 1e-7):
            r = rotation_about_axis(axis, angle)
            vec = rotation_log(r)
            # axis sign is ambiguous at pi; reconstructed rotation must match
            assert np.isclose(np.linalg.norm(vec), angle, atol=1e-6)
            r_back = rotation_about_axis(vec / np.linalg.norm(vec),
                                         np.linalg.norm(vec))
            assert np.allclose(r_back, r, atol=1e-5)


def test_skew_matches_cross(rng):
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(skew(a) @ b, np.cross(a, b))


def test_cross3_matches_numpy(rng):
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(cross3(a, b), np.cross(a, b), atol=1e-15)


def test_cross_rows_bit_equal_to_numpy(rng):
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    assert cross_rows(a, b).tobytes() == np.cross(a, b).tobytes()
    # broadcasting one vector against a batch, as the Jacobians do
    c = rng.normal(size=(4, 2, 3))
    assert cross_rows(a[0], c).tobytes() == np.cross(a[0], c).tobytes()
    for row_a, row_b, row in zip(a, b, cross_rows(a, b)):
        assert row.tobytes() == cross3(row_a, row_b).tobytes()


def test_rot6d_round_trip_on_so3(rng):
    for _ in range(200):
        r = random_rotation(rng)
        assert np.max(np.abs(Rot6D.encode(r).decode() - r)) < 1e-9


def test_rot6d_degenerate_inputs():
    with pytest.raises(GeometryError):
        Rot6D(np.zeros(3), np.array([0.0, 1.0, 0.0])).decode()
    with pytest.raises(GeometryError):
        Rot6D(np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])).decode()


def test_rot6d_array_round_trip(rng):
    r6 = Rot6D(rng.normal(size=3), rng.normal(size=3))
    again = Rot6D.from_array(r6.as_array())
    assert np.allclose(again.a1, r6.a1) and np.allclose(again.a2, r6.a2)


def test_pose_rejects_bad_rotation():
    with pytest.raises(GeometryError):
        Pose(np.eye(3) * 1.0001, np.zeros(3))
    flipped = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(GeometryError):
        Pose(flipped, np.zeros(3))


def test_pose_compose_inverse(rng):
    for _ in range(20):
        a = Pose(random_rotation(rng), rng.normal(size=3))
        b = Pose(random_rotation(rng), rng.normal(size=3))
        p = rng.normal(size=3)
        assert np.allclose(a.compose(b).transform_point(p),
                           a.transform_point(b.transform_point(p)), atol=1e-12)
        ident = a.compose(a.inverse())
        assert np.allclose(ident.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(ident.translation, 0.0, atol=1e-12)


def test_pose_matrix_round_trip(rng):
    a = Pose(random_rotation(rng), rng.normal(size=3))
    m = a.as_matrix()
    assert np.allclose(m[:3, :3], a.rotation)
    assert np.allclose(m[:3, 3], a.translation)
    assert np.allclose(m[3], [0, 0, 0, 1])
