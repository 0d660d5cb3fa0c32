import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import compliance_oracle
from contactctl.compliance import (ACTION_SCHEMA, ActionChunk, ActionStep,
                                   ComplianceError, RecedingHorizonScheduler,
                                   StiffnessSchedule, compile_step,
                                   interpolate_commands, schedule_stiffness)
from contactctl.episodes import Episode, StreamSpec, replay_actions
from contactctl.geometry import (GeometryError, Pose, check_rotations,
                                 encode_rot6d_rows, rotation_about_axis)
from conftest import random_rotation
from test_geometry import near_parallel_rows


def make_step(delta=(0.0, 0.0, 0.0), rotation=None, force=(0.0, 0.0, 0.0),
              width=0.05):
    rotation = np.eye(3) if rotation is None else rotation
    return ActionStep(np.asarray(delta, dtype=float), encode_rot6d_rows(rotation),
                      np.asarray(force, dtype=float), width)


def make_row(delta=(0.0, 0.0, 0.0), rotation=None, force=(0.0, 0.0, 0.0),
             width=0.05):
    return make_step(delta, rotation, force, width).as_array()


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
    sched = StiffnessSchedule(2000.0, 200.0, 20.0)
    start = Pose(np.eye(3), [0.4, 0.0, 0.2])
    target, kp = compile_step([make_row(force=(0.0, 0.0, 10.0))], start, sched)
    delta = start.translation - target.translation[0]
    assert np.allclose(kp, [2000.0, 2000.0, 1100.0])
    assert np.allclose(delta, [0.0, 0.0, 10.0 / 1100.0])
    assert np.allclose(target.translation, [0.4, 0.0, 0.2 - 10.0 / 1100.0])
    assert np.allclose(target.rotation, start.rotation)


def test_virtual_target_zero_force_identity(rng):
    start = Pose(random_rotation(rng), rng.normal(size=3))
    target, kp = compile_step([make_row(rotation=start.rotation)], start,
                           StiffnessSchedule(700.0, 500.0, 20.0))
    assert np.array_equal(target.translation[0], start.translation)


def test_virtual_target_inverse_consistency(rng):
    # rows with no delta hold the reference at the start pose
    sched = StiffnessSchedule(3000.0, 100.0, 25.0)
    start = Pose(random_rotation(rng), rng.normal(size=3))
    f = rng.uniform(-30.0, 30.0, (100, 3))
    target, kp = compile_step([make_row(rotation=random_rotation(rng), force=fi)
                            for fi in f], start, sched)
    delta = start.translation - target.translation
    assert np.max(np.abs(kp * delta - f)) < 1e-12


def test_bounded_displacement(rng):
    # within the saturation range the displacement cannot exceed f_sat / k_min
    sched = StiffnessSchedule(2000.0, 200.0, 20.0)
    bound = sched.f_sat / sched.k_min
    forces = np.vstack([rng.uniform(-sched.f_sat, sched.f_sat, (200, 3)),
                        np.full(3, sched.f_sat)])
    target, kp = compile_step([make_row(force=f) for f in forces], Pose.identity(), sched)
    delta = -target.translation
    assert np.max(np.abs(delta[:-1])) <= bound + 1e-12
    assert np.allclose(np.abs(delta[-1]), bound)   # bound is attained exactly


# ---------------------------------------------------------------------------
# reference integration

def test_integrate_reference_identity_step():
    ref = Pose(rotation_about_axis(np.array([0.0, 0.0, 1.0]), 0.3), [1.0, 2.0, 3.0])
    out = compile_step([make_row(rotation=ref.rotation)], ref,
                       StiffnessSchedule())[0]
    assert np.allclose(out.translation[0], ref.translation)
    assert np.allclose(out.rotation[0], ref.rotation, atol=1e-12)


def test_integrate_reference_additivity():
    rows = [make_row(delta=(0.01, 0.0, 0.0))] * 10
    out = compile_step(rows, Pose.identity(), StiffnessSchedule())[0]
    assert np.allclose(out.translation[-1], [0.10, 0.0, 0.0], atol=1e-12)


def test_integrate_reference_random_walk_matches_single_shot(rng):
    # oracle: translation is the sum of deltas; rotation is the last absolute
    deltas = rng.uniform(-0.02, 0.02, (100, 3))
    rotations = [random_rotation(rng) for _ in range(100)]
    rows = [make_row(delta=d, rotation=r) for d, r in zip(deltas, rotations)]
    out = compile_step(rows, Pose.identity(), StiffnessSchedule())[0]
    assert np.allclose(out.translation[-1], deltas.sum(axis=0), atol=1e-12)
    assert np.allclose(out.rotation[-1], rotations[-1], atol=1e-9)


def test_compile_step_rejects_what_the_per_step_path_rejects():
    good = make_row()
    cases = {
        "degenerate 6D rotation: first vector near zero": (3, 6, [0.0, 0.0, 0.0]),
        "degenerate 6D rotation: vectors near parallel": (6, 9, [2.0, 0.0, 0.0]),
        "non-finite force": (9, 12, [0.0, np.nan, 0.0]),
        "pose translation not finite": (0, 3, [np.inf, 0.0, 0.0]),
    }
    for message, (lo, hi, values) in cases.items():
        bad = good.copy()
        bad[lo:hi] = values
        rows = np.array([good, good, bad, good])
        for raw in (rows, rows[None]):
            with pytest.raises(ValueError, match=message):
                compile_step(raw, Pose.identity(), StiffnessSchedule())
        with pytest.raises(ValueError, match=message):
            ref = Pose.identity()
            for row in rows:
                step = object.__new__(ActionStep)   # skip ActionStep's own checks
                step.delta_xyz, step.rot6d = row[:3], row[3:9]
                step.force, step.gripper_width = row[9:12], row[12]
                _, ref = compliance_oracle.compile_one(step, ref, StiffnessSchedule())
    with pytest.raises(ComplianceError, match="13 columns"):
        compile_step(np.zeros((4, 12)), Pose.identity(), StiffnessSchedule())


def test_compile_step_checks_each_decoded_rotation(rng):
    # near-parallel 6D vectors pass the parallel test but not the rotation
    # check, which both paths make as they decode
    rows = np.array([make_row()] * 5)
    rows[3, 3:9] = near_parallel_rows(rng, 1)[0]
    step = ActionStep.from_array(rows[3])
    with pytest.raises(GeometryError) as per_step:
        compliance_oracle.integrate_reference(Pose.identity(), step)
    with pytest.raises(GeometryError) as one_pass:
        compile_step(rows, Pose.identity(), StiffnessSchedule())
    assert str(one_pass.value).split(" (")[0] == str(per_step.value).split(" (")[0]


# ---------------------------------------------------------------------------
# one pass against the per-step oracle

def chunks_of(rows, chunk_len):
    """The replayed ActionChunks and their (chunk_len, 13) arrays."""
    episode = Episode("acts", [StreamSpec("action", 20.0, ACTION_SCHEMA, "action")])
    episode.record_block("action", np.arange(len(rows)) / 20.0, rows)
    chunks = replay_actions(episode, chunk_len)
    return chunks, [np.array([s.as_array() for s in c.steps]) for c in chunks]


@st.composite
def action_streams(draw):
    n = draw(st.integers(1, 64))
    chunk_len = draw(st.integers(1, 20))
    horizon = draw(st.integers(1, chunk_len))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, chunk_len, horizon, seed


@settings(max_examples=200, deadline=None)
@given(action_streams())
def test_one_pass_compile_equals_per_step_oracle(case):
    n, chunk_len, horizon, seed = case
    rng = np.random.default_rng(seed)
    rows = np.column_stack([rng.uniform(-0.02, 0.02, (n, 3)), rng.normal(size=(n, 6)),
                            rng.uniform(-40.0, 40.0, (n, 3)), rng.uniform(0.0, 0.1, n)])
    start = Pose(random_rotation(rng), rng.normal(size=3))
    sched = StiffnessSchedule(rng.uniform(500.0, 3000.0), rng.uniform(50.0, 500.0),
                              rng.uniform(5.0, 30.0))
    chunks, arrays = chunks_of(rows, chunk_len)
    index, executed = zip(*RecedingHorizonScheduler(arrays, horizon))
    got = compile_step(np.array(executed), start, sched)
    want = compliance_oracle.compile_chunks(chunks, horizon, start, sched)
    assert len(want) == len(index) == -(-n // chunk_len) * horizon
    assert list(index) == [c * chunk_len + k for c in range(len(chunks))
                           for k in range(horizon)]
    got_target, got_kp = got
    for i, (target, kp) in enumerate(want):
        assert got_target.rotation[i].tobytes() == target.rotation.tobytes()
        assert got_target.translation[i].tobytes() == target.translation.tobytes()
        assert got_kp[i].tobytes() == kp.tobytes()


def test_compile_step_rows_of_a_stack_equal_single_streams(rng):
    # a (S, n, 13) stack compiles each stream as it compiles alone
    sched = StiffnessSchedule()
    streams = np.concatenate([rng.uniform(-0.02, 0.02, (3, 10, 3)),
                              rng.normal(size=(3, 10, 6)),
                              rng.uniform(-40.0, 40.0, (3, 10, 3)),
                              np.full((3, 10, 1), 0.05)], axis=-1)
    start = Pose(random_rotation(rng), rng.normal(size=3))
    got_target, got_kp = compile_step(streams, start, sched)
    for s, stream in enumerate(streams):
        target, kp = compile_step(stream, start, sched)
        assert got_target.rotation[s].tobytes() == target.rotation.tobytes()
        assert got_target.translation[s].tobytes() == target.translation.tobytes()
        assert got_kp[s].tobytes() == kp.tobytes()


# ---------------------------------------------------------------------------
# chunk compilation

def test_compile_chunk_all_zero():
    sched = StiffnessSchedule(2000.0, 200.0, 20.0)
    start = Pose(np.eye(3), [0.3, 0.0, 0.1])
    chunk = np.array([make_row() for _ in range(8)])
    _, rows = zip(*RecedingHorizonScheduler([chunk], 8))
    target, kp = compile_step(np.array(rows), start, sched)
    assert len(kp) == 8
    assert np.allclose(target.translation, start.translation)
    assert np.allclose(kp, 2000.0)


def test_compile_chunk_constant_force():
    sched = StiffnessSchedule(2000.0, 200.0, 20.0)
    start = Pose(np.eye(3), [0.3, 0.0, 0.1])
    chunk = np.array([make_row(force=(0.0, 0.0, 10.0)) for _ in range(4)])
    _, rows = zip(*RecedingHorizonScheduler([chunk], 4))
    target, kp = compile_step(np.array(rows), start, sched)
    # k_z(10 N) = 1100, so the target sits 10/1100 m below the reference
    assert np.allclose(kp, [2000.0, 2000.0, 1100.0])
    assert np.allclose(target.translation[:, 2], 0.1 - 10.0 / 1100.0)


def test_zero_force_transparency_full_stream(rng):
    # with f = 0 everywhere the compiled stream is pure position control
    sched = StiffnessSchedule(2000.0, 200.0, 20.0)
    start = Pose(np.eye(3), [0.2, -0.1, 0.3])
    steps = [make_step(delta=rng.uniform(-0.01, 0.01, 3),
                       rotation=random_rotation(rng)) for _ in range(32)]
    _, rows = zip(*RecedingHorizonScheduler(
        [np.array([s.as_array() for s in steps])], 32))
    target, kp = compile_step(np.array(rows), start, sched)
    ref = start
    for i, step in enumerate(steps):
        ref = compliance_oracle.integrate_reference(ref, step)
        assert np.array_equal(target.translation[i], ref.translation)
        assert np.allclose(kp[i], sched.k_max)


# ---------------------------------------------------------------------------
# receding-horizon scheduling

def chunk_of(n, dx=0.01, force=(0.0, 0.0, 0.0)):
    return np.array([make_row(delta=(dx, 0.0, 0.0), force=force) for _ in range(n)])


def test_scheduler_consumes_horizon_prefix():
    chunks = [chunk_of(16), chunk_of(16), chunk_of(16)]
    executed = list(RecedingHorizonScheduler(chunks, 8))
    assert len(executed) == 24   # 8 per chunk
    assert [i for i, _ in executed] == [*range(0, 8), *range(16, 24), *range(32, 40)]


def test_scheduler_full_horizon_emits_everything():
    _, rows = zip(*RecedingHorizonScheduler([chunk_of(5)], 5))
    target, kp = compile_step(np.array(rows), Pose.identity(), StiffnessSchedule())
    assert len(rows) == 5
    # with zero force the target is the reference
    assert np.isclose(target.translation[-1, 0], 0.05)


def test_scheduler_reference_continuity_at_seams():
    chunks = [chunk_of(16, dx=0.005), chunk_of(16, dx=0.005)]
    _, rows = zip(*RecedingHorizonScheduler(chunks, 8))
    target, kp = compile_step(np.array(rows), Pose.identity(), StiffnessSchedule())
    positions = target.translation
    steps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    assert np.max(steps) <= 0.005 + 1e-12   # no jump at the seam


def test_scheduler_rejects_long_horizon():
    scheduler = RecedingHorizonScheduler([chunk_of(4)], 8)
    with pytest.raises(ComplianceError):
        list(scheduler)
    with pytest.raises(ComplianceError):
        RecedingHorizonScheduler([chunk_of(4)], 0)


# ---------------------------------------------------------------------------
# command interpolation

def test_interpolate_commands_endpoints(rng):
    sched = StiffnessSchedule()
    a = (Pose(random_rotation(rng), [0.0, 0.0, 0.0]), np.array([500.0, 600.0, 700.0]))
    b = (Pose(random_rotation(rng), [0.1, 0.0, 0.0]), np.array([900.0, 800.0, 700.0]))
    end, _ = interpolate_commands(a, b, 1.0)
    assert np.allclose(end.translation, b[0].translation)
    assert np.allclose(end.rotation, b[0].rotation, atol=1e-9)
    mid, mid_kp = interpolate_commands(a, b, 0.5)
    assert np.allclose(mid.translation, [0.05, 0.0, 0.0])
    assert np.allclose(mid_kp, [700.0, 700.0, 700.0])


def test_interpolate_commands_clamps_frac(rng):
    a = (Pose(random_rotation(rng), [0.0, 0.0, 0.0]), np.array([500.0, 600.0, 700.0]))
    b = (Pose(random_rotation(rng), [0.1, 0.0, 0.0]), np.array([900.0, 800.0, 700.0]))
    for frac, edge in ((-0.5, 0.0), (2.0, 1.0)):
        got, got_kp = interpolate_commands(a, b, frac)
        want, want_kp = interpolate_commands(a, b, edge)
        assert np.array_equal(got.rotation, want.rotation)
        assert np.array_equal(got.translation, want.translation)
        assert np.array_equal(got_kp, want_kp)
    for frac in np.linspace(0.0, 1.0, 7):
        rot = interpolate_commands(a, b, frac)[0].rotation
        check_rotations(rot)


def test_interpolate_commands_array_frac_matches_scalar_calls(rng):
    # a (K, S) stack blended with one frac per entry gives every entry the
    # bits of blending it alone; random rotations take the geodesic branch,
    # one entry does not turn, and some fracs are clamped
    k, s = 6, 3

    def stack():
        rotation = np.array([[random_rotation(rng) for _ in range(s)]
                             for _ in range(k)])
        return (Pose(rotation, rng.normal(size=(k, s, 3))),
                rng.uniform(200.0, 2000.0, (k, s, 3)))

    prev, nxt = stack(), stack()
    nxt[0].rotation[0, 0] = prev[0].rotation[0, 0]
    frac = rng.uniform(-0.2, 1.2, (k, s))
    got, got_kp = interpolate_commands(prev, nxt, frac)

    def entry(command, i, j):
        target, kp = command
        return Pose(target.rotation[i, j], target.translation[i, j]), kp[i, j]

    for i in range(k):
        for j in range(s):
            want, want_kp = interpolate_commands(entry(prev, i, j), entry(nxt, i, j),
                                                 float(frac[i, j]))
            assert got.rotation[i, j].tobytes() == want.rotation.tobytes()
            assert got.translation[i, j].tobytes() == want.translation.tobytes()
            assert got_kp[i, j].tobytes() == want_kp.tobytes()


# ---------------------------------------------------------------------------
# action serialization

def test_action_step_array_round_trip(rng):
    step = make_step(delta=rng.normal(size=3) * 0.01,
                     rotation=random_rotation(rng),
                     force=rng.normal(size=3), width=0.07)
    again = ActionStep.from_array(step.as_array())
    assert np.array_equal(again.as_array(), step.as_array())
    assert len(ACTION_SCHEMA) == 13


def test_action_step_validation():
    with pytest.raises(ComplianceError):
        make_step(width=-0.01)
    with pytest.raises(ComplianceError):
        ActionStep(np.array([np.nan, 0, 0]), encode_rot6d_rows(np.eye(3)),
                   np.zeros(3), 0.05)
    with pytest.raises(ComplianceError):
        ActionChunk([])
