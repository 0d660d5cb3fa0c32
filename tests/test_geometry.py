import numpy as np
import pytest

from contactctl.geometry import (GeometryError, check_rotations, cross3,
                                 cross_rows, decode_rot6d_rows, encode_rot6d_rows,
                                 rotation_about_axis, rotation_log, skew)
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


def test_rotation_log_batch_rows_equal_single_calls(rng):
    # each row of a batch takes its own branch (identity, generic, near pi)
    # and gets the bits the single call gives, also beside a NaN row, which
    # has no angle to steer the others by
    rotations = [np.eye(3), rotation_about_axis([0.0, 0.0, 1.0], 1e-12),
                 rotation_about_axis([1.0, 0.0, 0.0], np.pi),
                 rotation_about_axis([0.0, 0.6, 0.8], np.pi - 1e-8),
                 rotation_about_axis([0.0, 1.0, 0.0], np.pi - 1e-9),
                 np.full((3, 3), np.nan)]
    rotations += [random_rotation(rng) for _ in range(4)]
    batch = rotation_log(np.stack(rotations))
    assert batch.shape == (len(rotations), 3)
    for r, row in zip(rotations, batch):
        assert rotation_log(r).shape == (3,)
        assert rotation_log(r).tobytes() == row.tobytes()
    axes = rng.normal(size=(5, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(-3.0, 3.0, 5)
    stacked = rotation_about_axis(axes, angles)
    for a, t, r in zip(axes, angles, stacked):
        assert rotation_about_axis(a, t).tobytes() == r.tobytes()


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
    # cross3 of component-first stacks
    assert cross3(c.T, c[::-1].T).T.tobytes() == cross_rows(c, c[::-1]).tobytes()


def test_rot6d_round_trip_on_so3(rng):
    for _ in range(200):
        r = random_rotation(rng)
        r6 = encode_rot6d_rows(r)
        assert np.max(np.abs(decode_rot6d_rows(r6[:3], r6[3:]) - r)) < 1e-9


def test_rot6d_degenerate_inputs():
    with pytest.raises(GeometryError):
        decode_rot6d_rows(np.zeros(3), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(GeometryError):
        decode_rot6d_rows(np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]))


def near_parallel_rows(rng, count):
    """6D rows whose vectors pass decode's parallel test but decode to a
    matrix that fails the rotation check."""
    found = []
    while len(found) < count:
        a1 = rng.normal(size=3)
        a2 = a1 * rng.uniform(0.5, 2.0) + rng.normal(size=3) * 1.5e-8
        try:
            decode_rot6d_rows(a1, a2)
        except GeometryError as exc:
            if "parallel" not in str(exc):
                found.append(np.concatenate([a1, a2]))
    return np.array(found)


def test_rot6d_rows_equal_single_decodes(rng):
    # each row of a stack decodes to the bits of decoding it alone and of
    # the Gram-Schmidt formula on that row
    a1, a2 = rng.normal(size=(2, 4, 25, 3))
    got = decode_rot6d_rows(a1, a2)
    for i, j in np.ndindex(4, 25):
        b1 = a1[i, j] / np.linalg.norm(a1[i, j])
        u2 = a2[i, j] - (b1 @ a2[i, j]) * b1
        b2 = u2 / np.linalg.norm(u2)
        want = np.column_stack([b1, b2, np.cross(b1, b2)])
        assert got[i, j].tobytes() == want.tobytes()
        assert got[i, j].tobytes() == decode_rot6d_rows(a1[i, j], a2[i, j]).tobytes()


def test_rot6d_rows_reject_what_single_decodes_reject(rng):
    a1, a2 = rng.normal(size=(2, 6, 3))
    for bad_a1, bad_a2 in ((np.zeros(3), a2[0]), (a1[0], 2.0 * a1[0])):
        rows_a1, rows_a2 = a1.copy(), a2.copy()
        rows_a1[4], rows_a2[4] = bad_a1, bad_a2
        with pytest.raises(GeometryError) as single:
            decode_rot6d_rows(bad_a1, bad_a2)
        with pytest.raises(GeometryError) as rows:
            decode_rot6d_rows(rows_a1, rows_a2)
        assert str(rows.value) == str(single.value)
    # near-parallel rows pass the parallel test, and decode's rotation check
    # rejects each of them alone and in a stack
    near = near_parallel_rows(rng, 3)
    for row in near:
        with pytest.raises(GeometryError, match="not orthonormal|determinant"):
            decode_rot6d_rows(row[:3], row[3:])
    stack = np.concatenate([np.concatenate([a1, a2], axis=1), near])
    with pytest.raises(GeometryError, match="not orthonormal|determinant"):
        decode_rot6d_rows(stack[:, :3], stack[:, 3:])
    decode_rot6d_rows(a1, a2)   # the stack without them decodes


def test_rot6d_rows_encode_the_first_two_columns(rng):
    # each row of a stack encodes to its first and then its second column,
    # and decodes back to the bits of the decode of those two vectors
    r = np.array([[random_rotation(rng) for _ in range(5)] for _ in range(4)])
    got = encode_rot6d_rows(r)
    assert got.shape == (4, 5, 6)
    for i, j in np.ndindex(4, 5):
        want = np.concatenate([r[i, j, :, 0], r[i, j, :, 1]])
        assert got[i, j].tobytes() == want.tobytes()
        assert got[i, j].tobytes() == encode_rot6d_rows(r[i, j]).tobytes()
    assert decode_rot6d_rows(got[..., :3], got[..., 3:]).tobytes() \
        == decode_rot6d_rows(r[..., :, 0], r[..., :, 1]).tobytes()


def test_check_rotations_rejects_bad_rotation():
    with pytest.raises(GeometryError):
        check_rotations(np.eye(3) * 1.0001)
    with pytest.raises(GeometryError):
        check_rotations(np.diag([1.0, 1.0, -1.0]))


def test_check_rotations_rejects_non_finite_input():
    # NaN compares false with every tolerance, so it must not slip through
    with pytest.raises(GeometryError):
        check_rotations(np.full((3, 3), np.nan))
    for bad in (np.nan, np.inf, -np.inf):
        rotation = np.eye(3)
        rotation[1, 2] = bad
        with pytest.raises(GeometryError):
            check_rotations(rotation)
