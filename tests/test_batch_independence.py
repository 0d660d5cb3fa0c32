"""Batch independence, layer by layer: a row of a batched call gets the bits
of the same row called alone, as an unbatched (n,) state.

Each property draws a random chain (conftest.random_chain) of 1-6 joints, a
batch of 1-16 rows and one row of it, and compares that row of the batched
result with the unbatched call byte for byte.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from contactctl.compliance import interpolate_commands
from contactctl.dynamics import (ContactPlane, SimState, inverse_dynamics_terms,
                                 plane_contact_force, step)
from contactctl.geometry import pose_unchecked
from contactctl.impedance import (ImpedanceConfig, ImpedanceExecutor,
                                  build_operational_gains)
from contactctl.kinematics import chain_frames
from conftest import random_chain, random_model, random_rotation

EXAMPLES = 50


@st.composite
def batches(draw):
    """(rng, dof, rows, row): a seeded rng, a chain size, a batch size and
    the row of the batch to check."""
    rows = draw(st.integers(1, 16))
    return (np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
            draw(st.integers(1, 6)), rows, draw(st.integers(0, rows - 1)))


def states(rng, rows, dof):
    return rng.uniform(-2.0, 2.0, (rows, dof)), rng.normal(size=(rows, dof))


def rotations(rng, rows):
    return np.stack([random_rotation(rng) for _ in range(rows)])


def plane_near(rng, points):
    """A plane whose offset puts each point up to 2 cm on either side."""
    normal = random_rotation(rng)[:, 2]
    offset = points @ normal + rng.uniform(-0.02, 0.02, len(points))
    return ContactPlane(normal, offset, rng.uniform(1e3, 1e5), rng.uniform(0.0, 300.0),
                        rng.choice([0.0, 0.4]))


def row_plane(plane, i):
    return ContactPlane(plane.normal, float(plane.offset[i]), plane.stiffness,
                        plane.damping, plane.friction_mu)


def assert_same_bits(pairs):
    for got, want in pairs:
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=EXAMPLES, deadline=None)
@given(batches())
def test_chain_frames_row_equals_single(case):
    rng, dof, rows, i = case
    chain = random_chain(rng, dof)
    q, _ = states(rng, rows, dof)
    got, want = chain_frames(chain, q), chain_frames(chain, q[i])
    assert_same_bits([(got.joint_origins[i], want.joint_origins),
                      (got.joint_axes[i], want.joint_axes),
                      (got.link_rotations[i], want.link_rotations),
                      (got.ee_pose.rotation[i], want.ee_pose.rotation),
                      (got.ee_pose.translation[i], want.ee_pose.translation),
                      (got.jacobian[i], want.jacobian)])


@settings(max_examples=EXAMPLES, deadline=None)
@given(batches())
def test_inverse_dynamics_terms_row_equals_single(case):
    rng, dof, rows, i = case
    model = random_model(rng, dof)
    q, qdot = states(rng, rows, dof)
    got = inverse_dynamics_terms(model, q, qdot)
    want = inverse_dynamics_terms(model, q[i], qdot[i])
    assert_same_bits([(got[0][i], want[0]), (got[1][i], want[1])])   # M, bias


@settings(max_examples=EXAMPLES, deadline=None)
@given(batches())
def test_plane_contact_force_row_equals_single(case):
    rng, _, rows, i = case
    points = rng.uniform(-1.0, 1.0, (rows, 3))
    velocities = rng.normal(size=(rows, 3))
    velocities[rng.random(rows) < 0.3] = 0.0   # rows that do not slip
    plane = plane_near(rng, points)
    force, f_n = plane_contact_force(plane, points, velocities)
    want_force, want_f_n = plane_contact_force(row_plane(plane, i), points[i],
                                               velocities[i])
    assert_same_bits([(force[i], want_force), (f_n[i], want_f_n)])


@settings(max_examples=EXAMPLES, deadline=None)
@given(batches())
def test_step_row_equals_single(case):
    rng, dof, rows, i = case
    model = random_model(rng, dof)
    q, qdot = states(rng, rows, dof)
    tau = rng.normal(size=(rows, dof))
    plane = plane_near(rng, chain_frames(model.chain, q).ee_pose.translation)
    got = step(model, SimState(q, qdot), tau, plane, 1e-3)
    want = step(model, SimState(q[i], qdot[i]), tau[i], row_plane(plane, i), 1e-3)
    assert_same_bits([(got.q[i], want.q), (got.qdot[i], want.qdot),
                      (got.contact_force_ee[i], want.contact_force_ee)])


@settings(max_examples=EXAMPLES, deadline=None)
@given(batches())
def test_build_operational_gains_row_equals_single(case):
    rng, _, rows, i = case
    cfg = ImpedanceConfig()
    kp = rng.uniform(0.0, 2.5 * cfg.k_max, (rows, 3))   # some clamped, some not
    gains, clamped = build_operational_gains(kp, cfg)
    want_gains, want_clamped = build_operational_gains(kp[i], cfg)
    assert_same_bits([(gains[i], want_gains), (clamped[i], want_clamped)])


@settings(max_examples=EXAMPLES, deadline=None)
@given(batches())
def test_interpolate_commands_row_equals_single(case):
    rng, _, rows, i = case
    r_prev = rotations(rng, rows)
    r_next = rotations(rng, rows)
    same = rng.random(rows) < 0.3   # rows that do not turn
    r_next[same] = r_prev[same]

    def command(rotation):
        return (pose_unchecked(rotation, rng.normal(size=(rows, 3))),
                rng.uniform(200.0, 2000.0, (rows, 3)))
    prev, nxt = command(r_prev), command(r_next)
    frac = rng.uniform(0.0, 1.0, rows)
    got, got_kp = interpolate_commands(prev, nxt, frac)

    def single(command):
        target, kp = command
        return pose_unchecked(target.rotation[i], target.translation[i]), kp[i]
    want, want_kp = interpolate_commands(single(prev), single(nxt), frac[i])
    assert_same_bits([(got.rotation[i], want.rotation),
                      (got.translation[i], want.translation), (got_kp[i], want_kp)])


@settings(max_examples=EXAMPLES, deadline=None)
@given(batches())
def test_execute_tick_row_equals_single(case):
    # two ticks, so that the second runs the qdot_d filter from the first
    rng, dof, rows, i = case
    model = random_model(rng, dof)
    cfg = ImpedanceConfig()
    q, qdot = states(rng, rows, dof)
    q_next, qdot_next = states(rng, rows, dof)
    targets = pose_unchecked(rotations(rng, rows), rng.uniform(-0.5, 0.5, (rows, 3)))
    gains, _ = build_operational_gains(rng.uniform(100.0, 3000.0, (rows, 3)), cfg)
    batched, alone = ImpedanceExecutor(model, cfg), ImpedanceExecutor(model, cfg)
    for qk, qdk in ((q, qdot), (q_next, qdot_next)):
        frames = chain_frames(model.chain, qk)
        _, bias = inverse_dynamics_terms(model, qk, qdk, frames)
        got = batched.execute_tick(SimState(qk, qdk), targets, gains, frames, bias)
        frames = chain_frames(model.chain, qk[i])
        _, bias = inverse_dynamics_terms(model, qk[i], qdk[i], frames)
        target = pose_unchecked(targets.rotation[i], targets.translation[i])
        want = alone.execute_tick(SimState(qk[i], qdk[i]), target, gains[i], frames,
                                  bias)
        # the tau, xi and limits_clamped of the tick
        assert_same_bits([(g[i], w) for g, w in zip(got, want)])
