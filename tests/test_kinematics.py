import math

import numpy as np
import pytest

from contactctl.dynamics import load_arm_model
from contactctl.geometry import (GeometryError, Pose, cross3, rotation_about_axis,
                                 rotation_log)
from contactctl.kinematics import (ChainConfigError, ChainModel, chain_frames,
                                   dls_step, pose_error, solve_ik)
from conftest import make_planar2, random_chain


def dls_ik_step(chain, q, target, lam):
    """One dls_step toward `target` from q."""
    frames = chain_frames(chain, q)
    return dls_step(frames.jacobian, pose_error(target, frames.ee_pose), lam)


def planar2_analytic_ik(x, y, l1=0.5, l2=0.5, elbow_down=True):
    """Law-of-cosines closed form for the two-link chain (position only)."""
    c2 = (x * x + y * y - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    c2 = min(1.0, max(-1.0, c2))
    q2 = math.acos(c2) if elbow_down else -math.acos(c2)
    q1 = math.atan2(y, x) - math.atan2(l2 * math.sin(q2), l1 + l2 * math.cos(q2))
    return q1, q2


# ---------------------------------------------------------------------------
# forward kinematics

def test_fk_straight_arm(planar2):
    pose = chain_frames(planar2, [0.0, 0.0]).ee_pose
    assert np.allclose(pose.translation, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(pose.rotation, np.eye(3), atol=1e-12)


def test_fk_quarter_turn(planar2):
    pose = chain_frames(planar2, [np.pi / 2, 0.0]).ee_pose
    assert np.allclose(pose.translation, [0.0, 1.0, 0.0], atol=1e-12)


def test_fk_matches_composition_oracle(rng):
    # independent oracle: explicit 4x4 homogeneous products per link
    for _ in range(20):
        chain = random_chain(rng, 3)
        q = rng.uniform(-2.0, 2.0, 3)
        t = np.eye(4)
        for i, qi in enumerate(q):
            off = np.eye(4)
            off[:3, :3] = chain.offset_rotations[i]
            off[:3, 3] = chain.offset_translations[i]
            rot = np.eye(4)
            rot[:3, :3] = rotation_about_axis(chain.axes[i], qi)
            t = t @ off @ rot
        tool = np.eye(4)
        tool[:3, :3] = chain.tool_offset.rotation
        tool[:3, 3] = chain.tool_offset.translation
        t = t @ tool
        pose = chain_frames(chain, q).ee_pose
        assert np.allclose(pose.rotation, t[:3, :3], atol=1e-12)
        assert np.allclose(pose.translation, t[:3, 3], atol=1e-12)


def test_fk_dimension_mismatch(planar2):
    with pytest.raises(ChainConfigError):
        chain_frames(planar2, [0.0, 0.0, 0.0]).ee_pose


# ---------------------------------------------------------------------------
# Jacobian

def test_jacobian_finite_difference(planar2):
    q = np.array([0.0, 0.0])
    j = chain_frames(planar2, q).jacobian
    eps = 1e-6
    for i in range(2):
        dq = np.zeros(2)
        dq[i] = eps
        fd = (chain_frames(planar2, q + dq).ee_pose.translation
              - chain_frames(planar2, q).ee_pose.translation) / eps
        assert np.allclose(j[:3, i], fd, atol=1e-5)


def test_jacobian_single_link():
    chain = ChainModel([[0.0, 0.0, 1.0]], [np.eye(3)], [[0.0, 0.0, 0.0]],
                       [[-np.pi, np.pi]], Pose(np.eye(3), [1.0, 0.0, 0.0]))
    j = chain_frames(chain, [0.0]).jacobian
    assert np.allclose(j[:, 0], [0, 1, 0, 0, 0, 1], atol=1e-12)


def test_jacobian_shape(rng):
    chain = random_chain(rng, 4)
    assert chain_frames(chain, rng.uniform(-1, 1, 4)).jacobian.shape == (6, 4)


def test_batched_jacobian_bit_equal_to_per_column_cross3(rng):
    for dof in range(1, 7):
        frames = chain_frames(random_chain(rng, dof), rng.uniform(-2, 2, dof))
        expected = np.empty((6, dof))
        for i, axis in enumerate(frames.joint_axes):
            expected[:3, i] = cross3(axis, frames.ee_pose.translation
                                     - frames.joint_origins[i])
            expected[3:, i] = axis
        assert frames.jacobian.tobytes() == expected.tobytes()
        assert frames.jacobian.flags.c_contiguous


def test_fk_jacobian_consistency_random_chains(rng):
    # invariant: FD of FK matches the Jacobian within 10 eps, linear rows by
    # translation difference, angular rows by log(R(q+dq) R(q)^T) / eps
    eps = 1e-6
    for _ in range(15):
        dof = int(rng.integers(1, 5))
        chain = random_chain(rng, dof)
        q = rng.uniform(-1.5, 1.5, dof)
        j = chain_frames(chain, q).jacobian
        base = chain_frames(chain, q).ee_pose
        for i in range(dof):
            dq = np.zeros(dof)
            dq[i] = eps
            moved = chain_frames(chain, q + dq).ee_pose
            fd = (moved.translation - base.translation) / eps
            assert np.max(np.abs(fd - j[:3, i])) < 1e-5   # 10 eps, eps = 1e-6
            fd_rot = rotation_log(moved.rotation @ base.rotation.T) / eps
            assert np.max(np.abs(fd_rot - j[3:, i])) < 1e-5


# ---------------------------------------------------------------------------
# pose error

def test_pose_error_identity(planar2):
    pose = chain_frames(planar2, [0.3, -0.4]).ee_pose
    assert np.allclose(pose_error(pose, pose), 0.0, atol=1e-12)


def test_pose_error_pure_translation():
    a = Pose(np.eye(3), [0.1, 0.0, 0.0])
    b = Pose.identity()
    assert np.allclose(pose_error(a, b), [0.1, 0, 0, 0, 0, 0], atol=1e-12)


def test_pose_error_quarter_turn_about_z():
    a = Pose(rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.pi / 2), np.zeros(3))
    xi = pose_error(a, Pose.identity())
    assert np.allclose(xi, [0, 0, 0, 0, 0, np.pi / 2], atol=1e-9)


def test_pose_error_translation_antisymmetry(rng):
    from conftest import random_rotation
    for _ in range(10):
        a = Pose(random_rotation(rng), rng.normal(size=3))
        b = Pose(random_rotation(rng), rng.normal(size=3))
        assert np.allclose(pose_error(a, b)[:3], -pose_error(b, a)[:3], atol=1e-12)


def test_pose_error_handles_pi_rotation():
    a = Pose(rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.pi), np.zeros(3))
    xi = pose_error(a, Pose.identity())
    assert np.isclose(np.linalg.norm(xi[3:]), np.pi, atol=1e-9)


# ---------------------------------------------------------------------------
# DLS step

def test_dls_zero_error(planar2):
    q = np.array([0.5, 0.7])
    target = chain_frames(planar2, q).ee_pose
    assert np.allclose(dls_ik_step(planar2, q, target, 0.05), 0.0, atol=1e-12)


def test_dls_damping_limit(planar2):
    q = np.array([0.2, 0.3])
    target = chain_frames(planar2, [0.6, 0.9]).ee_pose
    norms = [np.linalg.norm(dls_ik_step(planar2, q, target, lam))
             for lam in (0.01, 0.1, 1.0, 10.0, 1e3, 1e6)]
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-9


def test_dls_requires_positive_damping(planar2):
    with pytest.raises(ValueError):
        dls_step(chain_frames(planar2, [0.0, 0.0]).jacobian, np.ones(6), 0.0)


def test_dls_iteration_reaches_analytic_solution(planar2, rng):
    for _ in range(25):
        radius = rng.uniform(0.25, 0.92)
        angle = rng.uniform(-np.pi, np.pi)
        x, y = radius * np.cos(angle), radius * np.sin(angle)
        q1, q2 = planar2_analytic_ik(x, y)
        target = Pose(rotation_about_axis(np.array([0.0, 0.0, 1.0]), q1 + q2),
                      [x, y, 0.0])
        # oracle self-check: analytic joints reproduce the target position
        assert np.allclose(chain_frames(planar2, [q1, q2]).ee_pose.translation,
                           [x, y, 0.0], atol=1e-9)
        q = np.array([0.4, 0.9])
        for _ in range(200):
            q = q + dls_ik_step(planar2, q, target, 0.05)
        reached = chain_frames(planar2, q).ee_pose.translation
        assert np.linalg.norm(reached - np.array([x, y, 0.0])) < 1e-4


def test_dls_descent_statistics(rng):
    # one damped step from a perturbed start must not increase the error,
    # except for rare near-singular cases
    failures = 0
    trials = 120
    for _ in range(trials):
        dof = int(rng.integers(2, 5))
        chain = random_chain(rng, dof)
        q = rng.uniform(-1.2, 1.2, dof)
        target = chain_frames(chain, q + rng.uniform(-0.2, 0.2, dof)).ee_pose
        xi0 = np.linalg.norm(pose_error(target, chain_frames(chain, q).ee_pose))
        q1 = q + dls_ik_step(chain, q, target, 0.05)
        xi1 = np.linalg.norm(pose_error(target, chain_frames(chain, q1).ee_pose))
        if xi1 > xi0 + 1e-12:
            failures += 1
    assert failures <= trials * 0.05


# ---------------------------------------------------------------------------
# iterative solver

def test_solve_ik_near_solution_converges_fast(planar2):
    q_true = np.array([0.6, 0.8])
    target = chain_frames(planar2, q_true).ee_pose
    result = solve_ik(planar2, q_true + 0.05, target, max_iters=50, tol=1e-8)
    assert result.converged and result.iterations <= 50
    assert np.allclose(chain_frames(planar2, result.q).ee_pose.translation,
                       target.translation, atol=1e-6)


def test_solve_ik_fixed_point(planar2):
    q0 = np.array([0.3, -0.5])
    result = solve_ik(planar2, q0, chain_frames(planar2, q0).ee_pose, tol=1e-6)
    assert result.converged and result.iterations <= 1


def test_solve_ik_unreachable_reports_and_stops_at_boundary(planar2):
    direction = np.array([np.cos(0.4), np.sin(0.4), 0.0])
    target = Pose(rotation_about_axis(np.array([0.0, 0.0, 1.0]), 0.4),
                  1.5 * direction)   # beyond l1 + l2 = 1.0
    result = solve_ik(planar2, [0.3, 0.4], target, max_iters=300, tol=1e-6)
    assert not result.converged
    reach = np.linalg.norm(chain_frames(planar2, result.q).ee_pose.translation)
    assert abs(reach - 1.0) < 1e-3


def test_solve_ik_respects_joint_limits():
    chain = make_planar2()
    chain.joint_limits = np.array([[-0.5, 0.5], [-0.5, 0.5]])
    target = Pose(rotation_about_axis(np.array([0.0, 0.0, 1.0]), 2.0),
                  [-0.3, 0.6, 0.0])
    result = solve_ik(chain, [0.0, 0.0], target, max_iters=100)
    assert np.all(result.q >= chain.joint_limits[:, 0] - 1e-12)
    assert np.all(result.q <= chain.joint_limits[:, 1] + 1e-12)
    assert result.limited and not result.converged


def test_solve_ik_validates_arguments(planar2):
    with pytest.raises(ValueError):
        solve_ik(planar2, [0, 0], Pose.identity(), tol=0.0)
    with pytest.raises(ValueError):
        solve_ik(planar2, [0, 0], Pose.identity(), max_iters=0)


# ---------------------------------------------------------------------------
# chain config files

def test_load_chain_planar2_matches_fixture(planar2):
    loaded = load_arm_model("configs/chains/planar2.ini").chain
    assert loaded.dof == 2
    for q in ([0.0, 0.0], [0.7, -0.4]):
        assert np.allclose(chain_frames(loaded, q).ee_pose.translation,
                           chain_frames(planar2, q).ee_pose.translation,
                           atol=1e-12)


def test_load_chain_canonical_arm6():
    chain = load_arm_model("configs/chains/arm6.ini").chain
    assert chain.dof == 6
    home = chain_frames(chain, np.zeros(6)).ee_pose
    assert np.allclose(home.translation, [0.0, 0.0, 1.14], atol=1e-9)
    assert np.allclose(home.rotation, np.eye(3), atol=1e-12)


def test_load_chain_missing_file():
    with pytest.raises(ChainConfigError):
        load_arm_model("configs/chains/does_not_exist.ini")


def test_load_chain_rejects_zero_axis(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[chain]\nname = bad\n[joint.1]\naxis = 0 0 0\n")
    with pytest.raises(ChainConfigError):
        load_arm_model(bad)


def chain_of(axes=((0.0, 0.0, 1.0),), rotations=(np.eye(3),),
             translations=((0.0, 0.0, 0.0),), limits=((-1.0, 1.0),)):
    return ChainModel(np.array(axes), np.array(rotations), np.array(translations),
                      np.array(limits))


def test_chain_model_validation():
    chain_of()   # the valid one-joint chain the cases below break
    with pytest.raises(ChainConfigError):
        chain_of(np.zeros((0, 3)), np.zeros((0, 3, 3)), np.zeros((0, 3)),
                 np.zeros((0, 2)))
    with pytest.raises(ChainConfigError):
        chain_of(axes=[[0.0, 0.0, 2.0]])
    with pytest.raises(ChainConfigError):
        chain_of(axes=[[0.0, 0.0, np.nan]])
    with pytest.raises(ChainConfigError):
        chain_of(limits=[[1.0, -1.0]])
    with pytest.raises(ChainConfigError):
        chain_of(limits=[[np.nan, 1.0]])
    with pytest.raises(GeometryError):
        chain_of(rotations=[np.diag([1.0, 1.0, -1.0])])
    with pytest.raises(ChainConfigError):
        chain_of(translations=[[0.0, np.inf, 0.0]])


def test_chain_model_arrays_are_read_only(planar2):
    # the forward-pass constants are built from them once
    for a in (planar2.axes, planar2.offset_rotations, planar2.offset_translations,
              planar2.joint_limits):
        assert not a.flags.writeable
