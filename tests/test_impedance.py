import warnings

import numpy as np
import pytest

from contactctl.dynamics import (ArmDynamicsModel, ContactPlane, SimState,
                                 inverse_dynamics_terms, load_arm_model,
                                 plane_contact_force, step)
from contactctl.geometry import Pose, rotation_about_axis
from contactctl.impedance import (ImpedanceConfig, ImpedanceExecutor,
                                  build_operational_gains, control_torque,
                                  fold_to_joint_gains)
from contactctl.kinematics import chain_frames, solve_ik
from contactctl.scenarios import load_scenario_config
from contactctl.scenarios.wiping import _control_targets, wiping_setup
from conftest import make_planar2


def planar2_model():
    chain = make_planar2()
    inertias = np.array([np.diag([0.002, 0.03, 0.03]),
                         np.diag([0.002, 0.022, 0.022])])
    return ArmDynamicsModel(chain, [1.5, 1.0],
                            [[0.25, 0.0, 0.0], [0.25, 0.0, 0.0]], inertias)


def floor_stack(kq_floor, kqd_floor, dof):
    """The (2, dof, dof) floors [Kq_floor; Kqd_floor] of scalar or per-joint
    floors."""
    return np.stack([np.diag(np.broadcast_to(kq_floor, dof)),
                     np.diag(np.broadcast_to(kqd_floor, dof))])


# ---------------------------------------------------------------------------
# operational gains

def test_critical_damping_values():
    cfg = ImpedanceConfig(zeta=1.0, m_eff=2.0, k_min=0.0, k_max=5000.0)
    gains, _ = build_operational_gains(np.array([1000.0, 1000.0, 500.0]), cfg)
    assert np.allclose(gains[1, :3], [89.44, 89.44, 63.25], atol=1e-2)
    assert np.allclose(gains[0, :3], [1000.0, 1000.0, 500.0])


def test_zero_stiffness_zero_damping():
    cfg = ImpedanceConfig(k_min=0.0, k_max=100.0)
    gains, _ = build_operational_gains(np.zeros(3), cfg)
    assert np.allclose(gains[0, :3], 0.0)
    assert np.allclose(gains[1, :3], 0.0)


@pytest.mark.parametrize("field", ["ik_damping", "dt", "qd_filter_cutoff", "m_eff"])
def test_config_rejects_nonpositive_timing_and_damping(field):
    for value in (0.0, -1.0):
        with pytest.raises(ValueError, match=field):
            ImpedanceConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("zeta", -1.0), ("k_rot", [50.0, -50.0, 50.0]), ("d_rot", [-5.0, 5.0, 5.0]),
    ("kq_floor", -1.0), ("kqd_floor", -0.1), ("zeta", float("nan"))])
def test_config_rejects_negative_gains(field, value):
    with pytest.raises(ValueError, match=field):
        ImpedanceConfig(**{field: value})
    # zero is allowed: no damping, no rotational stiffness, no floor
    ImpedanceConfig(**{field: np.zeros(3) if field in ("k_rot", "d_rot") else 0.0})


def test_out_of_range_stiffness_clamped_and_flagged():
    cfg = ImpedanceConfig(k_min=200.0, k_max=2000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gains, clamped = build_operational_gains(np.array([100.0, 500.0, 9000.0]),
                                                 cfg)
    assert np.allclose(gains[0, :3], [200.0, 500.0, 2000.0])
    assert clamped
    _, rows_clamped = build_operational_gains(np.array([[500.0, 600.0, 700.0],
                                                        [100.0, 500.0, 700.0]]), cfg)
    assert rows_clamped.tolist() == [False, True]


# ---------------------------------------------------------------------------
# joint-space folding

def test_fold_null_jacobian_gives_floor():
    cfg = ImpedanceConfig()
    cart, _ = build_operational_gains(np.array([1000.0, 1000.0, 1000.0]), cfg)
    gains = fold_to_joint_gains(np.zeros((6, 3)), cart, floor_stack(2.5, 0.3, 3))
    assert np.allclose(gains[0], np.diag([2.5] * 3))
    assert np.allclose(gains[1], np.diag([0.3] * 3))


def test_fold_identity_stiffness_matches_loop_oracle(rng):
    cart = np.array([np.ones(6), np.zeros(6)])   # unit stiffness, no damping
    for _ in range(25):
        dof = int(rng.integers(1, 7))
        j = rng.normal(size=(6, dof))
        gains = fold_to_joint_gains(j, cart, floor_stack(0.0, 0.0, dof))
        # independent oracle: explicit triple loop over J^T J
        expected = np.zeros((dof, dof))
        for a in range(dof):
            for b in range(dof):
                expected[a, b] = sum(j[k, a] * j[k, b] for k in range(6))
        assert np.max(np.abs(gains[0] - expected)) < 1e-10


def test_diagonal_fold_bit_equal_to_full_matrix_product(rng):
    cfg = ImpedanceConfig()
    cart, _ = build_operational_gains(np.array([800.0, 900.0, 1000.0]), cfg)
    planar = chain_frames(make_planar2(), [0.3, -0.7]).jacobian
    for j in [rng.normal(size=(6, dof)) for dof in range(1, 7)] + [planar]:
        dof = j.shape[1]
        floor_p = rng.uniform(0.5, 2.0, dof)
        floor_d = rng.uniform(0.05, 0.2, dof)
        gains = fold_to_joint_gains(j, cart, floor_stack(floor_p, floor_d, dof))
        for got, diagonal, floor in ((gains[0], cart[0], floor_p),
                                     (gains[1], cart[1], floor_d)):
            full = np.diag(diagonal)
            want = j.T @ full @ j + np.diag(floor)
            want = (want + want.T) / 2.0
            assert got.tobytes() == want.tobytes()


def test_fold_rejects_non_diagonal_gains():
    kx = np.eye(3)
    kx[0, 1] = kx[1, 0] = 0.5
    with pytest.raises(ValueError, match="diagonal"):
        fold_to_joint_gains(np.ones((6, 2)), np.stack([kx, np.eye(3)]),
                            floor_stack(1.0, 0.1, 2))
    # diagonals of a batch the Jacobian does not have
    with pytest.raises(ValueError, match="diagonal"):
        fold_to_joint_gains(np.ones((6, 2)), np.ones((3, 2, 6)), floor_stack(1.0, 0.1, 2))
    with pytest.raises(ValueError, match="diagonal"):
        fold_to_joint_gains(np.ones((4, 6, 2)), np.ones((3, 2, 6)),
                            floor_stack(1.0, 0.1, 2))


def test_fold_eigenvalues_at_least_floor(rng):
    cfg = ImpedanceConfig()
    cart, _ = build_operational_gains(np.array([800.0, 900.0, 1000.0]), cfg)
    for _ in range(10):
        j = rng.normal(size=(6, 4))
        gains = fold_to_joint_gains(j, cart, floor_stack(1.0, 0.1, 4))
        assert np.min(np.linalg.eigvalsh(gains[0])) >= 1.0 - 1e-9
        assert np.min(np.linalg.eigvalsh(gains[1])) >= 0.1 - 1e-9


def test_fold_symmetry_psd_random(rng):
    cfg = ImpedanceConfig()
    for _ in range(50):
        kp = rng.uniform(cfg.k_min, cfg.k_max, 3)
        cart, _ = build_operational_gains(kp, cfg)
        dof = int(rng.integers(1, 8))
        j = rng.normal(size=(6, dof))
        gains = fold_to_joint_gains(j, cart, floor_stack(cfg.kq_floor, cfg.kqd_floor, dof))
        assert np.array_equal(gains[0], gains[0].T)
        x = rng.normal(size=dof)
        assert x @ gains[0] @ x >= 0.0


def test_fold_rejects_bad_jacobian():
    cfg = ImpedanceConfig()
    cart, _ = build_operational_gains(np.full(3, 500.0), cfg)
    with pytest.raises(ValueError):
        fold_to_joint_gains(np.zeros((5, 3)), cart, floor_stack(1.0, 0.1, 3))


# ---------------------------------------------------------------------------
# control torque

def test_zero_error_returns_compensation_exactly(rng):
    gains = np.stack([np.diag([100.0, 80.0]), np.diag([10.0, 8.0])])
    q = rng.normal(size=2)
    qdot = rng.normal(size=2)
    bias = rng.normal(size=2)
    tau = control_torque(gains, q, q, qdot, qdot, bias)
    assert np.array_equal(tau, bias)


def test_unit_error_diagonal_gain():
    gains = np.stack([np.diag([100.0, 50.0]), np.zeros((2, 2))])
    tau = control_torque(gains, [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                         np.zeros(2))
    assert np.allclose(tau, [100.0, 0.0])


def test_closed_loop_converges_to_constant_target():
    model = planar2_model()
    chain = model.chain
    cfg = ImpedanceConfig(kq_floor=1.0, kqd_floor=0.1)
    q_d = np.array([0.5, 0.8])
    state = SimState(np.array([0.2, 0.4]), np.zeros(2))
    dt = 1e-3
    for _ in range(2000):   # 2 s
        frames = chain_frames(chain, state.q)
        terms = inverse_dynamics_terms(model, state.q, state.qdot, frames)
        cart, _ = build_operational_gains(np.full(3, 1500.0), cfg)
        gains = fold_to_joint_gains(frames.jacobian, cart, floor_stack(3.0, 0.5, 2))
        tau = control_torque(gains, q_d, state.q, np.zeros(2), state.qdot,
                             terms[1])
        state = step(state, tau, None, dt, terms=terms, frames=frames)
    assert np.linalg.norm(state.q - q_d) < 1e-3


# ---------------------------------------------------------------------------
# executor

def executor_setup(kp=None):
    model = planar2_model()
    cfg = ImpedanceConfig(dt=1e-3)
    executor = ImpedanceExecutor(model, cfg)
    return model, executor, cfg


def test_execute_tick_identity_command():
    model, executor, _ = executor_setup()
    q0 = np.array([0.4, 0.7])
    state = SimState(q0.copy(), np.zeros(2))
    target = chain_frames(model.chain, q0).ee_pose
    gains, _ = build_operational_gains(np.full(3, 1000.0), executor.config)
    frames = chain_frames(model.chain, q0)
    _, hold = inverse_dynamics_terms(model, q0, np.zeros(2), frames)
    tau, xi, _, _ = executor.execute_tick(state, target, gains, frames, hold, None)
    assert np.allclose(tau, hold, atol=1e-6)
    assert np.allclose(xi, 0.0, atol=1e-12)


def test_execute_tick_rest_drift_with_shared_terms():
    # compensation exactness: at rest with shared dyn terms the arm stays put
    model, executor, _ = executor_setup()
    q0 = np.array([0.4, 0.7])
    state = SimState(q0.copy(), np.zeros(2))
    target = chain_frames(model.chain, q0).ee_pose
    gains, _ = build_operational_gains(np.full(3, 1000.0), executor.config)
    filtered = None
    for _ in range(50):
        new_state, _, _, _, filtered = executor.closed_loop_tick(state, target, gains,
                                                                 None, filtered)
        assert np.max(np.abs(new_state.q - state.q)) < 1e-9
        state = new_state


def test_executor_error_norm_decreases_in_free_space():
    model, executor, _ = executor_setup()
    q0 = np.array([0.4, 0.7])
    start = chain_frames(model.chain, q0).ee_pose
    # a reachable pose about 5 cm away (2-dof arm: pose must come from FK)
    q_target = np.array([0.435, 0.73])
    target = chain_frames(model.chain, q_target).ee_pose
    offset = np.linalg.norm(target.translation - start.translation)
    assert 0.03 < offset < 0.08
    gains, _ = build_operational_gains(np.full(3, 1500.0), executor.config)
    state = SimState(q0.copy(), np.zeros(2))
    norms, filtered = [], None
    for _ in range(1500):
        state, _, xi, _, filtered = executor.closed_loop_tick(state, target, gains, None,
                                                              filtered)
        norms.append(np.linalg.norm(xi))
    norms = np.array(norms)
    assert norms[-1] < 1e-3
    # monotone within a tight tolerance for discrete-time wobble
    assert np.all(np.diff(norms) < 1e-5)


def wiping_rig(kp_z, plane_stiffness=2e4, depth=0.01):
    model = load_arm_model("configs/chains/planar3.ini")
    cfg = ImpedanceConfig(dt=1e-3)
    executor = ImpedanceExecutor(model, cfg)
    pitch = 0.7
    rot = rotation_about_axis(np.array([0.0, 1.0, 0.0]), pitch)
    surface = Pose(rot, [0.45, 0.0, 0.0])
    ik = solve_ik(model.chain, [0.3, 0.9, -0.5], surface, cfg.ik_damping, max_iters=300,
                  tol=1e-9)
    assert ik.converged
    plane = ContactPlane([0.0, 0.0, 1.0], 0.0, plane_stiffness, 250.0, 0.0)
    target = Pose(rot, [0.45, 0.0, -depth])
    gains, _ = build_operational_gains(np.array([2000.0, 2000.0, kp_z]), cfg)
    state, filtered = SimState(ik.q.copy(), np.zeros(3)), None
    for _ in range(1500):
        state, _, _, _, filtered = executor.closed_loop_tick(state, target, gains, plane,
                                                             filtered)
    frames = chain_frames(model.chain, state.q)
    _, f_n = plane_contact_force(plane, frames.ee_pose.translation, np.zeros(3))
    return f_n, frames.ee_pose.translation[2], state


def test_pressing_force_matches_static_balance():
    # virtual target depth d below a plane of stiffness k_p under arm
    # stiffness k: F = d * k * k_p / (k + k_p)
    kp_z, k_plane, depth = 1100.0, 2e4, 0.0091
    f_n, _, _ = wiping_rig(kp_z, k_plane, depth)
    expected = depth * kp_z * k_plane / (kp_z + k_plane)
    assert abs(f_n - expected) / expected < 0.15


def test_monotone_compliance_tracking_gap():
    # stiffer arm tracks the sub-surface virtual target more closely
    gaps = []
    for kp_z in (400.0, 1000.0, 2000.0):
        _, z_ee, _ = wiping_rig(kp_z, 2e4, 0.01)
        gaps.append(abs(z_ee - (-0.01)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_executor_reports_stiffness_clamp():
    model, executor, _ = executor_setup()
    q0 = np.array([0.4, 0.7])
    state = SimState(q0.copy(), np.zeros(2))
    target = chain_frames(model.chain, q0).ee_pose
    gains, clamped = build_operational_gains(np.array([1.0, 1000.0, 1000.0]),
                                             executor.config)
    executor.closed_loop_tick(state, target, gains, None, None)
    assert clamped


def test_execute_tick_clamps_without_warning_or_filter_changes(monkeypatch):
    # the warning filters are process-wide, so a tick must neither warn nor
    # touch them: independent executors may run concurrently
    model, executor, cfg = executor_setup()
    q0 = np.array([0.4, 0.7])
    state = SimState(q0.copy(), np.zeros(2))
    frames = chain_frames(model.chain, q0)
    _, bias = inverse_dynamics_terms(model, q0, np.zeros(2), frames)
    touched = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name in ("catch_warnings", "simplefilter", "filterwarnings"):
            monkeypatch.setattr(warnings, name,
                                lambda *a, name=name, **k: touched.append(name))
        # the one clamp is build_operational_gains', which reports it with the gains
        gains, clamped = build_operational_gains(np.array([1.0, 1000.0, 9000.0]), cfg)
        tau, _, _, _ = executor.execute_tick(state, frames.ee_pose, gains, frames, bias,
                                             None)
        monkeypatch.undo()
    assert touched == []
    assert clamped
    assert caught == []
    # the same torque as with the command clamped up front
    gains, clamped = build_operational_gains(np.array([cfg.k_min, 1000.0, cfg.k_max]), cfg)
    again, _, _, _ = executor.execute_tick(state, frames.ee_pose, gains, frames, bias,
                                           None)
    assert np.array_equal(tau, again)
    assert not clamped


def test_executor_single_code_path_in_contact_and_free_space():
    # identical diagnostics structure whether or not the plant is in contact
    f_n, _, state = wiping_rig(1100.0)
    model, executor, _ = executor_setup()
    free_state = SimState(np.array([0.4, 0.7]), np.zeros(2))
    target = chain_frames(model.chain, free_state.q).ee_pose
    gains, _ = build_operational_gains(np.full(3, 1000.0), executor.config)
    executor.closed_loop_tick(free_state, target, gains, None, None)
    assert f_n > 0.0   # contact case did make contact, same code path


def test_one_executor_ticks_two_loops():
    # the executor keeps no loop state: two one-row loops on wiping.ini's
    # targets, ticked in turn through one executor, get the bits each gets
    # from an executor of its own
    setup = wiping_setup(load_scenario_config("configs/wiping.ini"))
    _, (target, kp) = _control_targets(setup)
    gains, _ = build_operational_gains(kp, setup.gains)
    starts = (setup.q0, setup.q0 + 0.02)   # loop i runs stream i from starts[i]

    def run(executors):
        loops = [(SimState(q, np.zeros_like(q)), None) for q in starts]
        for k in range(200):
            for i, executor in enumerate(executors):
                state, filtered = loops[i]
                state, _, _, _, filtered = executor.closed_loop_tick(
                    state, Pose(target.rotation[i, k], target.translation[i, k]),
                    gains[i, k], setup.plane, filtered)
                loops[i] = (state, filtered)
        return loops

    shared = ImpedanceExecutor(setup.model, setup.gains)
    attributes = set(vars(shared))
    together = run([shared, shared])
    assert set(vars(shared)) == attributes   # ticking set no attribute
    apart = run([ImpedanceExecutor(setup.model, setup.gains) for _ in starts])
    for (state, filtered), (want, want_filtered) in zip(together, apart):
        for got, ref in ((state.q, want.q), (state.qdot, want.qdot),
                         (state.contact_force_ee, want.contact_force_ee),
                         (filtered[0], want_filtered[0]),
                         (filtered[1], want_filtered[1])):
            assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# trial axis

@pytest.mark.parametrize("name", ["planar3", "arm6"])
def test_single_state_shapes_and_batched_rows(rng, name):
    # a single (n,) state keeps the shapes it always had; a (T, n) batch gives
    # every result a leading trial axis, and each row equals the single call
    model = load_arm_model(f"configs/chains/{name}.ini")
    chain, n, rows = model.chain, model.chain.dof, 3
    cfg = ImpedanceConfig()
    q = rng.uniform(-1.0, 1.0, (rows, n))
    qdot = rng.normal(size=(rows, n))
    ee = [chain_frames(chain, q[i]).ee_pose for i in range(rows)]
    offsets = np.array([p.translation[2] + d for p, d in zip(ee, (0.01, -0.01, 0.0))])
    kp = rng.uniform(100.0, 3000.0, (rows, 3))

    def tick(qi, qdi, offset, kpi, target):
        executor = ImpedanceExecutor(model, cfg)
        plane = ContactPlane([0.0, 0.0, 1.0], offset, 2e4, 250.0, 0.4)
        gains, _ = build_operational_gains(kpi, cfg)
        state = SimState(qi, qdi)
        state, _, first_xi, _, filtered = executor.closed_loop_tick(state, target, gains,
                                                                    plane, None)
        return (first_xi,) + executor.closed_loop_tick(state, target, gains, plane,
                                                       filtered)

    targets = [Pose(p.rotation, p.translation + 0.01) for p in ee]
    singles = [tick(q[i], qdot[i], offsets[i], kp[i], targets[i]) for i in range(rows)]
    batched = tick(q, qdot, offsets, kp,
                   Pose(np.stack([t.rotation for t in targets]),
                        np.stack([t.translation for t in targets])))

    _, state, frames, xi, limits_clamped, _ = singles[0]
    assert state.q.shape == state.qdot.shape == (n,)
    assert state.contact_force_ee.shape == (3,)
    assert frames.jacobian.shape == (6, n)
    assert frames.joint_origins.shape == frames.joint_axes.shape == (n, 3)
    assert frames.link_rotations.shape == (n, 3, 3)
    assert frames.ee_pose.rotation.shape == (3, 3)
    assert xi.shape == (6,)
    assert np.ndim(build_operational_gains(kp[0], cfg)[1]) == 0
    assert np.ndim(limits_clamped) == 0
    mass_matrix, bias = inverse_dynamics_terms(model, q[0], qdot[0],
                                               chain_frames(chain, q[0]))
    assert mass_matrix.shape == (n, n) and bias.shape == (n,)
    force, f_n = plane_contact_force(ContactPlane([0.0, 0.0, 1.0], 0.0, 1e4, 0.0, 0.0),
                                     np.array([0.0, 0.0, -0.01]), np.zeros(3))
    assert force.shape == (3,) and isinstance(f_n, float) and f_n == 100.0

    b_first_xi, b_state, b_frames, b_xi, b_clamped, b_filtered = batched
    assert b_state.q.shape == (rows, n)
    assert b_state.contact_force_ee.shape == (rows, 3)
    assert b_frames.jacobian.shape == (rows, 6, n)
    assert b_xi.shape == (rows, 6) and b_clamped.shape == (rows,)
    assert build_operational_gains(kp, cfg)[1].shape == (rows,)
    for i, (s_first_xi, s_state, s_frames, s_xi, s_clamped, s_filtered) \
            in enumerate(singles):
        for got, want in ((b_first_xi[i], s_first_xi), (b_xi[i], s_xi),
                          (b_filtered[0][i], s_filtered[0]),
                          (b_filtered[1][i], s_filtered[1]),
                          (b_clamped[i], s_clamped),
                          (b_state.q[i], s_state.q), (b_state.qdot[i], s_state.qdot),
                          (b_state.contact_force_ee[i], s_state.contact_force_ee),
                          (b_frames.jacobian[i], s_frames.jacobian)):
            assert got.tobytes() == want.tobytes()
    # the rows straddle the plane: pressed into it, and clear of it
    assert np.linalg.norm(b_state.contact_force_ee[0]) > 0.0
    assert np.all(b_state.contact_force_ee[1] == 0.0)
