import numpy as np
import pytest

from contactctl.compliance import (ACTION_SCHEMA, ActionChunk, ActionStep,
                                   ComplianceCommand, ComplianceError,
                                   RecedingHorizonScheduler, StiffnessSchedule,
                                   compile_chunk, compile_virtual_target,
                                   integrate_reference, interpolate_commands,
                                   schedule_stiffness)
from contactctl.geometry import Pose, Rot6D, rotation_about_axis
from conftest import random_rotation


def make_step(delta=(0.0, 0.0, 0.0), rotation=None, force=(0.0, 0.0, 0.0),
              width=0.05):
    rotation = np.eye(3) if rotation is None else rotation
    return ActionStep(np.asarray(delta, dtype=float), Rot6D.encode(rotation),
                      np.asarray(force, dtype=float), width)


# ---------------------------------------------------------------------------
# stiffness schedule

def test_schedule_zero_force_max_stiffness():
    sched = StiffnessSchedule(2000.0, 200.0, 20.0)
    assert np.allclose(schedule_stiffness(np.zeros(3), sched), 2000.0)


def test_schedule_saturation():
    sched = StiffnessSchedule(2000.0, 200.0, 20.0)
    kp = schedule_stiffness(np.array([25.0, -40.0, 20.0]), sched)
    assert np.allclose(kp, 200.0)


def test_schedule_linear_interpolation_example():
    sched = StiffnessSchedule(2000.0, 200.0, 20.0)
    kp = schedule_stiffness(np.array([0.0, 0.0, 10.0]), sched)
    assert np.allclose(kp, [2000.0, 2000.0, 1100.0])


def test_schedule_monotone_in_force(rng):
    sched = StiffnessSchedule(1800.0, 150.0, 25.0)
    for _ in range(100):
        f = rng.uniform(-30, 30, 3)
        g = f + rng.uniform(0, 10, 3) * np.sign(f + 1e-12)
        kf = schedule_stiffness(f, sched)
        kg = schedule_stiffness(g, sched)
        assert np.all(kf >= kg - 1e-12)


def test_schedule_magnitude_mode():
    sched = StiffnessSchedule(2000.0, 200.0, 20.0, per_axis=False)
    kp = schedule_stiffness(np.array([0.0, 0.0, 10.0]), sched)
    assert np.allclose(kp, 1100.0)   # every axis from |f| = 10


def test_schedule_validation():
    with pytest.raises(ComplianceError):
        StiffnessSchedule(100.0, 200.0, 20.0)
    with pytest.raises(ComplianceError):
        StiffnessSchedule(200.0, 100.0, 0.0)
    with pytest.raises(ComplianceError):
        schedule_stiffness(np.array([np.inf, 0, 0]), StiffnessSchedule())


# ---------------------------------------------------------------------------
# virtual target

def test_virtual_target_arithmetic_example():
    ref = Pose(np.eye(3), [0.4, 0.0, 0.2])
    target, delta = compile_virtual_target(ref, np.array([0.0, 0.0, 10.0]),
                                           np.array([1000.0, 1000.0, 500.0]))
    assert np.allclose(delta, [0.0, 0.0, 0.02])
    assert np.allclose(target.translation, [0.4, 0.0, 0.18])
    assert np.allclose(target.rotation, ref.rotation)


def test_virtual_target_zero_force_identity(rng):
    ref = Pose(random_rotation(rng), rng.normal(size=3))
    target, delta = compile_virtual_target(ref, np.zeros(3),
                                           np.array([500.0, 600.0, 700.0]))
    assert np.allclose(delta, 0.0)
    assert np.array_equal(target.translation, ref.translation)


def test_virtual_target_inverse_consistency(rng):
    for _ in range(100):
        kp = rng.uniform(100.0, 3000.0, 3)
        f = rng.uniform(-30.0, 30.0, 3)
        ref = Pose(random_rotation(rng), rng.normal(size=3))
        _, delta = compile_virtual_target(ref, f, kp)
        assert np.max(np.abs(kp * delta - f)) < 1e-12


def test_virtual_target_zero_stiffness_error():
    ref = Pose.identity()
    with pytest.raises(ComplianceError):
        compile_virtual_target(ref, np.array([0.0, 0.0, 1.0]),
                               np.array([100.0, 100.0, 0.0]))
    # zero force on the zero-stiffness axis is fine
    target, _ = compile_virtual_target(ref, np.array([1.0, 0.0, 0.0]),
                                       np.array([100.0, 100.0, 0.0]))
    assert np.allclose(target.translation, [-0.01, 0.0, 0.0])


# ---------------------------------------------------------------------------
# reference integration

def test_integrate_reference_identity_step():
    ref = Pose(rotation_about_axis(np.array([0.0, 0.0, 1.0]), 0.3), [1.0, 2.0, 3.0])
    out = integrate_reference(ref, make_step(rotation=ref.rotation))
    assert np.allclose(out.translation, ref.translation)
    assert np.allclose(out.rotation, ref.rotation, atol=1e-12)


def test_integrate_reference_additivity():
    ref = Pose.identity()
    step = make_step(delta=(0.01, 0.0, 0.0))
    for _ in range(10):
        ref = integrate_reference(ref, step)
    assert np.allclose(ref.translation, [0.10, 0.0, 0.0], atol=1e-12)


def test_integrate_reference_random_walk_matches_single_shot(rng):
    # oracle: translation is the sum of deltas; rotation is the last absolute
    ref = Pose.identity()
    deltas = rng.uniform(-0.02, 0.02, (100, 3))
    rotations = [random_rotation(rng) for _ in range(100)]
    for delta, rot in zip(deltas, rotations):
        ref = integrate_reference(ref, make_step(delta=delta, rotation=rot))
    assert np.allclose(ref.translation, deltas.sum(axis=0), atol=1e-12)
    assert np.allclose(ref.rotation, rotations[-1], atol=1e-9)


def test_integrate_reference_degenerate_rotation():
    step = ActionStep(np.zeros(3), Rot6D(np.zeros(3), np.array([0.0, 1.0, 0.0])),
                      np.zeros(3), 0.05)
    with pytest.raises(Exception):
        integrate_reference(Pose.identity(), step)


# ---------------------------------------------------------------------------
# chunk compilation

def test_compile_chunk_all_zero():
    sched = StiffnessSchedule(2000.0, 200.0, 20.0)
    start = Pose(np.eye(3), [0.3, 0.0, 0.1])
    chunk = ActionChunk([make_step() for _ in range(8)])
    commands = compile_chunk(chunk, start, sched)
    assert len(commands) == 8
    for cmd in commands:
        assert np.allclose(cmd.virtual_target.translation, start.translation)
        assert np.allclose(cmd.kp_diag, 2000.0)


def test_compile_chunk_constant_force():
    sched = StiffnessSchedule(2000.0, 200.0, 20.0)
    start = Pose(np.eye(3), [0.3, 0.0, 0.1])
    chunk = ActionChunk([make_step(force=(0.0, 0.0, 10.0)) for _ in range(4)])
    commands = compile_chunk(chunk, start, sched)
    for cmd in commands:
        # k_z(10 N) = 1100, so the target sits 10/1100 m below the reference
        assert np.allclose(cmd.kp_diag, [2000.0, 2000.0, 1100.0])
        assert np.isclose(cmd.virtual_target.translation[2], 0.1 - 10.0 / 1100.0)
        assert np.isclose(cmd.gripper_target_width, 0.05)


def test_zero_force_transparency_full_stream(rng):
    # with f = 0 everywhere the compiled stream is pure position control
    sched = StiffnessSchedule(2000.0, 200.0, 20.0)
    start = Pose(np.eye(3), [0.2, -0.1, 0.3])
    steps = [make_step(delta=rng.uniform(-0.01, 0.01, 3),
                       rotation=random_rotation(rng)) for _ in range(32)]
    commands = compile_chunk(ActionChunk(steps), start, sched)
    ref = start
    for step, cmd in zip(steps, commands):
        ref = integrate_reference(ref, step)
        assert np.array_equal(cmd.virtual_target.translation,
                              cmd.reference.translation)
        assert np.allclose(cmd.virtual_target.translation, ref.translation,
                           atol=1e-12)
        assert np.allclose(cmd.kp_diag, sched.k_max)


def test_bounded_displacement(rng):
    # within the saturation range the displacement cannot exceed f_sat / k_min
    sched = StiffnessSchedule(2000.0, 200.0, 20.0)
    bound = sched.f_sat / sched.k_min
    for _ in range(200):
        f = rng.uniform(-sched.f_sat, sched.f_sat, 3)
        kp = schedule_stiffness(f, sched)
        _, delta = compile_virtual_target(Pose.identity(), f, kp)
        assert np.max(np.abs(delta)) <= bound + 1e-12
    _, delta = compile_virtual_target(Pose.identity(), np.full(3, sched.f_sat),
                                      schedule_stiffness(np.full(3, sched.f_sat),
                                                         sched))
    assert np.allclose(np.abs(delta), bound)   # bound is attained exactly


# ---------------------------------------------------------------------------
# receding-horizon scheduling

def chunk_of(n, dx=0.01, force=(0.0, 0.0, 0.0)):
    return ActionChunk([make_step(delta=(dx, 0.0, 0.0), force=force)
                        for _ in range(n)])


def test_scheduler_consumes_horizon_prefix():
    sched = StiffnessSchedule()
    chunks = [chunk_of(16), chunk_of(16), chunk_of(16)]
    scheduler = RecedingHorizonScheduler(chunks, 8, Pose.identity(), sched)
    commands = list(scheduler)
    assert len(commands) == 24   # 8 per chunk
    assert not scheduler.starved


def test_scheduler_full_horizon_emits_everything():
    sched = StiffnessSchedule()
    scheduler = RecedingHorizonScheduler([chunk_of(5)], 5, Pose.identity(), sched)
    commands = list(scheduler)
    assert len(commands) == 5
    assert np.isclose(commands[-1].reference.translation[0], 0.05)


def test_scheduler_reference_continuity_at_seams():
    sched = StiffnessSchedule()
    chunks = [chunk_of(16, dx=0.005), chunk_of(16, dx=0.005)]
    scheduler = RecedingHorizonScheduler(chunks, 8, Pose.identity(), sched)
    commands = list(scheduler)
    positions = np.array([c.reference.translation for c in commands])
    steps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    assert np.max(steps) <= 0.005 + 1e-12   # no jump at the seam


def test_scheduler_starved_holds_last_command():
    sched = StiffnessSchedule()
    scheduler = RecedingHorizonScheduler([chunk_of(4)], 4, Pose.identity(),
                                         sched, min_commands=7)
    commands = list(scheduler)
    assert len(commands) == 7
    assert scheduler.starved
    assert all(c.held for c in commands[4:])
    assert not any(c.held for c in commands[:4])
    assert np.allclose(commands[-1].virtual_target.translation,
                       commands[3].virtual_target.translation)


def test_scheduler_rejects_long_horizon():
    sched = StiffnessSchedule()
    scheduler = RecedingHorizonScheduler([chunk_of(4)], 8, Pose.identity(), sched)
    with pytest.raises(ComplianceError):
        list(scheduler)


# ---------------------------------------------------------------------------
# command interpolation

def test_interpolate_commands_endpoints(rng):
    sched = StiffnessSchedule()
    a = ComplianceCommand(Pose(random_rotation(rng), [0.0, 0.0, 0.0]),
                          np.array([500.0, 600.0, 700.0]), 0.04, Pose.identity())
    b = ComplianceCommand(Pose(random_rotation(rng), [0.1, 0.0, 0.0]),
                          np.array([900.0, 800.0, 700.0]), 0.06, Pose.identity())
    end = interpolate_commands(a, b, 1.0)
    assert np.allclose(end.virtual_target.translation,
                       b.virtual_target.translation)
    assert np.allclose(end.virtual_target.rotation, b.virtual_target.rotation,
                       atol=1e-9)
    mid = interpolate_commands(a, b, 0.5)
    assert np.allclose(mid.virtual_target.translation, [0.05, 0.0, 0.0])
    assert np.allclose(mid.kp_diag, [700.0, 700.0, 700.0])
    assert np.isclose(mid.gripper_target_width, 0.05)


def test_interpolate_commands_clamps_frac(rng):
    a = ComplianceCommand(Pose(random_rotation(rng), [0.0, 0.0, 0.0]),
                          np.array([500.0, 600.0, 700.0]), 0.04, Pose.identity())
    b = ComplianceCommand(Pose(random_rotation(rng), [0.1, 0.0, 0.0]),
                          np.array([900.0, 800.0, 700.0]), 0.06, Pose.identity())
    for frac, edge in ((-0.5, 0.0), (2.0, 1.0)):
        got = interpolate_commands(a, b, frac)
        want = interpolate_commands(a, b, edge)
        assert np.array_equal(got.virtual_target.rotation, want.virtual_target.rotation)
        assert np.array_equal(got.virtual_target.translation,
                              want.virtual_target.translation)
        assert np.array_equal(got.kp_diag, want.kp_diag)
    for frac in np.linspace(0.0, 1.0, 7):
        rot = interpolate_commands(a, b, frac).virtual_target.rotation
        Pose(rot, np.zeros(3))   # raises unless orthonormal with det +1


# ---------------------------------------------------------------------------
# action serialization

def test_action_step_array_round_trip(rng):
    step = make_step(delta=rng.normal(size=3) * 0.01,
                     rotation=random_rotation(rng),
                     force=rng.normal(size=3), width=0.07)
    again = ActionStep.from_array(step.as_array())
    assert np.array_equal(again.as_array(), step.as_array())
    assert len(ACTION_SCHEMA) == 13


def test_action_chunk_array_round_trip(rng):
    chunk = chunk_of(5)
    again = ActionChunk.from_array(chunk.as_array())
    assert np.array_equal(again.as_array(), chunk.as_array())
    assert len(again) == 5


def test_action_step_validation():
    with pytest.raises(ComplianceError):
        make_step(width=-0.01)
    with pytest.raises(ComplianceError):
        ActionStep(np.array([np.nan, 0, 0]), Rot6D.encode(np.eye(3)),
                   np.zeros(3), 0.05)
    with pytest.raises(ComplianceError):
        ActionChunk([])
