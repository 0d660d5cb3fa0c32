import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from contactctl.dynamics import (ArmDynamicsModel, ContactPlane,
                                 SimState, SimulationFault,
                                 grasp_slip_check, inverse_dynamics_terms,
                                 load_arm_model, plane_contact_force,
                                 read_ft_sensor)
from contactctl.geometry import Pose, rotation_about_axis, rotation_log
from contactctl.kinematics import ChainConfigError, ChainModel, chain_frames
from contactctl.sensing import Payload
from conftest import bias_split, dynamics_terms, plant_step, random_model
import rnea_oracle


def make_pendulum(length=1.0, mass=2.0):
    """Gravity raises the COM for positive q (axis -y); q=0 is horizontal +x."""
    chain = ChainModel([[0.0, -1.0, 0.0]], [np.eye(3)], [[0.0, 0.0, 0.0]],
                       [[-10.0, 10.0]], Pose(np.eye(3), [length, 0, 0]))
    inertia = np.diag([1e-6, mass * length ** 2 / 12.0, mass * length ** 2 / 12.0])
    return ArmDynamicsModel(chain, [mass], [[length / 2.0, 0.0, 0.0]], [inertia])


def potential_energy(model, q):
    frames = chain_frames(model.chain, q)
    u = 0.0
    for i in range(model.chain.dof):
        p_com = frames.joint_origins[i] + frames.link_rotations[i] @ model.link_coms[i]
        u -= model.link_masses[i] * (model.gravity @ p_com)
    return u


def kinetic_energy_fd(model, q, qdot, eps=1e-6):
    """Oracle: link COM/angular velocities by finite-differencing frames."""
    f1 = chain_frames(model.chain, q + eps * qdot)
    f0 = chain_frames(model.chain, q - eps * qdot)
    total = 0.0
    for i in range(model.chain.dof):
        p1 = f1.joint_origins[i] + f1.link_rotations[i] @ model.link_coms[i]
        p0 = f0.joint_origins[i] + f0.link_rotations[i] @ model.link_coms[i]
        v = (p1 - p0) / (2.0 * eps)
        w = rotation_log(f1.link_rotations[i] @ f0.link_rotations[i].T) / (2.0 * eps)
        r = chain_frames(model.chain, q).link_rotations[i]
        inertia_world = r @ model.link_inertias[i] @ r.T
        total += 0.5 * model.link_masses[i] * (v @ v) + 0.5 * w @ inertia_world @ w
    return total


# ---------------------------------------------------------------------------
# inverse dynamics terms

def test_no_velocity_no_coriolis(rng):
    model = random_model(rng, 3)
    q = rng.uniform(-1, 1, 3)
    assert np.allclose(bias_split(model, q, np.zeros(3))[0], 0.0, atol=1e-12)


def test_pendulum_gravity_torque():
    model = make_pendulum(length=1.0, mass=2.0)
    _, g_vec = bias_split(model, np.array([0.0]), np.array([0.0]))
    assert np.isclose(g_vec[0], 2.0 * 9.81 * 0.5, atol=1e-12)


def test_gravity_matches_potential_gradient(rng):
    for _ in range(8):
        dof = int(rng.integers(1, 5))
        model = random_model(rng, dof)
        q = rng.uniform(-1.5, 1.5, dof)
        _, g_vec = bias_split(model, q, np.zeros(dof))
        eps = 1e-6
        for i in range(dof):
            dq = np.zeros(dof)
            dq[i] = eps
            fd = (potential_energy(model, q + dq)
                  - potential_energy(model, q - dq)) / (2.0 * eps)
            assert abs(fd - g_vec[i]) < 1e-5


def test_mass_matrix_matches_momentum_fd(rng):
    for _ in range(6):
        dof = int(rng.integers(1, 4))
        model = random_model(rng, dof)
        q = rng.uniform(-1.5, 1.5, dof)
        qdot = rng.uniform(-1.0, 1.0, dof)
        m, _ = dynamics_terms(model, q, np.zeros(dof))
        # momentum p_i = dT/dqdot_i by central differences of the FD oracle
        eps = 1e-5
        for i in range(dof):
            dv = np.zeros(dof)
            dv[i] = eps
            p_fd = (kinetic_energy_fd(model, q, qdot + dv)
                    - kinetic_energy_fd(model, q, qdot - dv)) / (2.0 * eps)
            assert abs(p_fd - (m @ qdot)[i]) < 1e-4


def test_mass_matrix_spd(rng):
    for _ in range(6):
        dof = int(rng.integers(1, 5))
        model = random_model(rng, dof)
        m, _ = dynamics_terms(model, rng.uniform(-2, 2, dof), np.zeros(dof))
        assert np.allclose(m, m.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(m) > 0.0)


def test_inverse_dynamics_terms_bundle(rng):
    model = random_model(rng, 3)
    q = rng.uniform(-1, 1, 3)
    qdot = rng.uniform(-1, 1, 3)
    mass_matrix, bias = dynamics_terms(model, q, qdot)
    c_qdot, g_vec = bias_split(model, q, qdot)
    assert np.allclose(bias, c_qdot + g_vec, rtol=0.0, atol=1e-12)
    # M does not depend on the joint velocity
    assert np.allclose(mass_matrix, dynamics_terms(model, q, np.zeros(3))[0])
    with pytest.raises(ValueError):
        inverse_dynamics_terms(model, q[:2], qdot, chain_frames(model.chain, q))


def assert_matches_oracle(got, want, tol=1e-12):
    """Max-norm agreement within tol relative to the term's size (unit floor,
    since C qdot of a one-joint arm is zero up to round-off)."""
    assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


def check_against_rnea_oracle(model, q, qdot):
    dof = model.chain.dof
    zero = np.zeros(dof)
    mass_matrix, bias = dynamics_terms(model, q, qdot)
    at_rest, _ = dynamics_terms(model, q, zero)
    c_qdot, g_vec = bias_split(model, q, qdot)
    assert_matches_oracle(mass_matrix, rnea_oracle.mass_matrix(model, q))
    assert_matches_oracle(at_rest, rnea_oracle.mass_matrix(model, q))
    assert_matches_oracle(bias,
                          rnea_oracle.rnea(model, q, qdot, zero, model.gravity))
    assert_matches_oracle(g_vec, rnea_oracle.rnea(model, q, zero, zero, model.gravity))
    assert_matches_oracle(c_qdot, rnea_oracle.rnea(model, q, qdot, zero, np.zeros(3)))


@pytest.mark.parametrize("dof", range(1, 7))
def test_terms_match_link_frame_rnea_on_random_chains(rng, dof):
    for _ in range(4):
        model = random_model(rng, dof)
        check_against_rnea_oracle(model, rng.uniform(-2.0, 2.0, dof),
                                  rng.uniform(-2.0, 2.0, dof))


@pytest.mark.parametrize("name", ["planar2", "planar3", "arm6"])
def test_terms_match_link_frame_rnea_on_shipped_chains(rng, name):
    model = load_arm_model(f"configs/chains/{name}.ini")
    dof = model.chain.dof
    for _ in range(4):
        check_against_rnea_oracle(model, rng.uniform(-1.5, 1.5, dof),
                                  rng.uniform(-2.0, 2.0, dof))


def test_model_validation():
    pend = make_pendulum()
    with pytest.raises(ValueError):
        ArmDynamicsModel(pend.chain, [0.0], [[0, 0, 0]], [np.eye(3)])
    with pytest.raises(ValueError):
        ArmDynamicsModel(pend.chain, [1.0], [[0, 0, 0]], [np.diag([1, 1, -1])])


# ---------------------------------------------------------------------------
# stepping

def test_gravity_hold_static_equilibrium():
    model = make_pendulum()
    state = SimState(np.array([0.3]), np.array([0.0]))
    _, tau = bias_split(model, state.q, state.qdot)
    for _ in range(100):
        new = plant_step(model, state, tau, None, 1e-3)
        assert abs(new.q[0] - state.q[0]) < 1e-9
        state = new


def test_pendulum_energy_drift():
    model = make_pendulum(length=1.0, mass=2.0)
    state = SimState(np.array([0.0]), np.array([0.0]))   # released horizontal
    e0 = potential_energy(model, state.q)
    scale = 2.0 * 9.81 * 0.5   # peak energy swing
    worst = 0.0
    for _ in range(5000):
        state = plant_step(model, state, np.array([0.0]), None, 1e-3)
        m = dynamics_terms(model, state.q, np.zeros(1))[0][0, 0]
        energy = 0.5 * m * state.qdot[0] ** 2 + potential_energy(model, state.q)
        worst = max(worst, abs(energy - e0))
    assert worst / scale < 0.005


def test_hooke_penalty_force():
    plane = ContactPlane([0.0, 0.0, 1.0], 0.0, 1e4, 0.0, 0.0)
    force, f_n = plane_contact_force(plane, np.array([0.0, 0.0, -0.001]),
                                     np.zeros(3))
    assert np.isclose(f_n, 10.0, atol=1e-9)
    assert np.allclose(force, [0.0, 0.0, 10.0], atol=1e-9)


def test_contact_complementarity(rng):
    plane = ContactPlane([0.0, 0.0, 1.0], 0.0, 5e3, 100.0, 0.5)
    for _ in range(200):
        p = rng.uniform(-0.01, 0.01, 3)
        v = rng.uniform(-0.5, 0.5, 3)
        force, f_n = plane_contact_force(plane, p, v)
        if p[2] > 0.0:
            assert f_n == 0.0 and np.allclose(force, 0.0)
        else:
            assert f_n >= 0.0


def _vectors(low, high, rows):
    return st.lists(st.floats(low, high), min_size=3 * rows, max_size=3 * rows) \
        .map(lambda v: np.reshape(v, (-1, 3)))


@st.composite
def contact_cases(draw):
    """(plane, points, velocities): a unit-normal plane and 1-4 rows."""
    normal = draw(_vectors(-1.0, 1.0, 1))[0]
    assume(np.linalg.norm(normal) > 0.1)
    plane = ContactPlane(normal / np.linalg.norm(normal), draw(st.floats(-1.0, 1.0)),
                         draw(st.floats(1.0, 1e6)), draw(st.floats(0.0, 1e3)),
                         draw(st.sampled_from([0.0, 0.01, 0.3, 2.0])))
    rows = draw(st.integers(1, 4))
    return plane, draw(_vectors(-1.0, 1.0, rows)), draw(_vectors(-10.0, 10.0, rows))


@settings(max_examples=200, deadline=None)
@given(contact_cases())
def test_friction_opposes_slip_within_the_coulomb_cone(case):
    # per row: the tangential force points against the tangential velocity,
    # is at most mu f_n, and the whole force is zero off contact
    plane, points, velocities = case
    force, f_n = plane_contact_force(plane, points, velocities)
    n, mu = plane.normal, plane.friction_mu
    for p, v, f, fn in zip(points, velocities, force, np.atleast_1d(f_n)):
        tol = 1e-12 * fn
        assert fn >= 0.0
        if p @ n - plane.offset >= 0.0 or fn == 0.0:
            assert fn == 0.0 and np.all(f == 0.0)
            continue
        f_t = f - fn * n
        v_t = v - (v @ n) * n
        speed = np.linalg.norm(v_t)
        # scaled by fn: the norm of a force below ~1e-154 N underflows
        assert np.linalg.norm(f_t / fn) <= mu * (1.0 + 1e-12)
        if speed == 0.0:
            continue
        along = f_t @ v_t / speed
        assert along <= tol
        assert np.linalg.norm(f_t - along * v_t / speed) <= tol


def test_determinism_bitwise(rng):
    model = random_model(np.random.default_rng(7), 3)
    plane = ContactPlane([0.0, 0.0, 1.0], -0.2, 5e3, 50.0, 0.3)

    def run():
        state = SimState(np.array([0.1, 0.2, -0.1]), np.zeros(3))
        trace = []
        for i in range(400):
            tau = bias_split(model, state.q, state.qdot)[1] * 0.98
            state = plant_step(model, state, tau, plane, 1e-3)
            trace.append(state.q.copy())
        return np.array(trace)

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_passive_plant_energy_nonincreasing(rng):
    model = random_model(np.random.default_rng(11), 2)
    model.gravity = np.zeros(3)
    state = SimState(np.array([0.2, -0.3]), np.array([0.8, -0.5]))
    prev = None
    for _ in range(500):
        state = plant_step(model, state, np.zeros(2), None, 1e-3)
        m, _ = dynamics_terms(model, state.q, np.zeros(2))
        ke = 0.5 * state.qdot @ m @ state.qdot
        if prev is not None:
            assert ke <= prev * (1.0 + 1e-6)
        prev = ke


def test_step_rejects_bad_input():
    model = make_pendulum()
    state = SimState(np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        plant_step(model, state, np.zeros(1), None, 0.02)
    with pytest.raises(SimulationFault, match=r"^non-finite torque at t=0\.000000"):
        plant_step(model, state, np.array([np.nan]), None, 1e-3)


def test_batched_fault_names_the_first_bad_row():
    # only the faulting row's state goes into the message, not the whole batch
    state = SimState(np.array([[0.1], [0.2], [0.3]]), np.zeros((3, 1)))
    with pytest.raises(SimulationFault) as raised:
        plant_step(make_pendulum(), state, np.array([[0.0], [np.nan], [1.0]]), None,
                   1e-3)
    assert str(raised.value) == ("non-finite torque in row 1 of 3 at t=0.000000: "
                                 "q=[0.2], qdot=[0.], tau=[nan]")
    # a light pendulum's acceleration overflows under the largest torque
    with pytest.raises(SimulationFault) as raised:
        plant_step(make_pendulum(mass=0.1), state, np.array([[0.0], [1e308], [1.0]]),
                   None, 1e-3)
    assert str(raised.value) == ("state diverged in row 1 of 3 at t=0.000000: "
                                 "q=[0.2], qdot=[0.], tau=[1.e+308]")


# ---------------------------------------------------------------------------
# F/T sensor

NO_CONTACT = np.zeros(6)   # the end-effector wrench of a state out of contact


def test_ft_sensor_payload_on_axis():
    payload = Payload(0.5, [0.0, 0.0, 0.05], np.zeros(6))
    raw = read_ft_sensor(NO_CONTACT, payload, np.eye(3), 0.0, None)
    assert np.allclose(raw[:3], [0.0, 0.0, -4.905], atol=1e-12)
    assert np.allclose(raw[3:], 0.0, atol=1e-12)


def test_ft_sensor_off_axis_torque():
    payload = Payload(0.5, [0.05, 0.0, 0.0], np.zeros(6))
    raw = read_ft_sensor(NO_CONTACT, payload, np.eye(3), 0.0, None)
    assert np.allclose(raw[3:], [0.0, 0.24525, 0.0], atol=1e-6)


def test_ft_sensor_rotated_frame_oracle(rng):
    payload = Payload(0.7, np.zeros(3), np.zeros(6))
    for _ in range(10):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = rotation_about_axis(axis, rng.uniform(-np.pi, np.pi))
        raw = read_ft_sensor(NO_CONTACT, payload, r, 0.0, None)
        assert np.allclose(raw[:3], r.T @ np.array([0.0, 0.0, -0.7 * 9.81]),
                           atol=1e-12)


def test_ft_sensor_affine_in_mass():
    rotation = rotation_about_axis(np.array([1.0, 0, 0]), 0.7)
    readings = []
    for mass in (0.0, 0.5, 1.0):
        payload = Payload(mass, [0.01, 0.02, 0.03], np.array([1, 2, 3, 4, 5, 6.0]))
        readings.append(read_ft_sensor(NO_CONTACT, payload, rotation, 0.0, None))
    r0, r1, r2 = readings
    assert np.allclose(r2 - r1, r1 - r0, atol=1e-12)


def test_ft_sensor_noise_is_seeded():
    payload = Payload(0.5, np.zeros(3), np.zeros(6))
    a = read_ft_sensor(NO_CONTACT, payload, np.eye(3), 0.1,
                       np.random.default_rng(5))
    b = read_ft_sensor(NO_CONTACT, payload, np.eye(3), 0.1,
                       np.random.default_rng(5))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        read_ft_sensor(NO_CONTACT, payload, np.eye(3), 0.1, None)


# ---------------------------------------------------------------------------
# slip model

def test_slip_static_balance_holds():
    # 2 * 0.5 * 10 = 10 >= 0.55 * 9.81 = 5.3955
    assert not grasp_slip_check(10.0, 0.55, 0.5, 0.0)


def test_slip_zero_force():
    assert grasp_slip_check(0.0, 0.1, 0.5, 0.0)
    assert grasp_slip_check(0.0, 1e-9, 0.9, 0.0)


def test_slip_boundary_tie_holds():
    mass, mu = 0.55, 0.5
    boundary = mass * 9.81 / (2.0 * mu)
    assert not grasp_slip_check(boundary, mass, mu, 0.0)
    assert grasp_slip_check(boundary * 0.999999, mass, mu, 0.0)


def test_slip_downward_accel_ignored():
    # 6 N holds statically (needs 5.40); downward accel must not help further
    assert not grasp_slip_check(6.0, 0.55, 0.5, -5.0)
    assert grasp_slip_check(6.0, 0.55, 0.5, 2.0)


# ---------------------------------------------------------------------------
# model loading

def test_load_arm_model_planar3():
    model = load_arm_model("configs/chains/planar3.ini")
    assert model.chain.dof == 3
    assert np.all(model.link_masses > 0.0)
    _, g_vec = bias_split(model, np.zeros(3), np.zeros(3))
    assert g_vec.shape == (3,)


def test_load_arm_model_reads_the_chain_file_once(monkeypatch):
    # the chain and the inertias come from one parse of the file
    import configparser
    reads = []
    real = configparser.ConfigParser.read

    def counting(self, *args, **kwargs):
        reads.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(configparser.ConfigParser, "read", counting)
    model = load_arm_model("configs/chains/arm6.ini")
    assert len(reads) == 1 and model.chain.dof == 6


def test_load_arm_model_reports_the_first_joints_defect_first(tmp_path):
    # each joint is read whole, geometry and inertial keys, before the next
    path = tmp_path / "two_defects.ini"
    path.write_text("[chain]\nname = bad\n"
                    "[joint.1]\naxis = 0 0 1\n"           # no mass
                    "[joint.2]\naxis = 0 0 0\nmass = 1\n")
    with pytest.raises(ChainConfigError, match=r"\[joint\.1\]: missing mass for dynamics"):
        load_arm_model(path)


@pytest.mark.parametrize("chain_lines, message", [
    ("tool_rot6d = 0 0 0 0 1 0\n",
     r"chain tool_rot6d: degenerate 6D rotation: first vector near zero"),
    ("tool_translaton = 0.5 0 0\n", r"\[chain\] tool_translaton is not a chain file key")],
    ids=["zero_tool_rot6d", "misspelt_tool_key"])
def test_load_arm_model_names_the_chain_key_at_fault(tmp_path, chain_lines, message):
    # the [chain] section's tool keys are checked like a joint's
    path = tmp_path / "bad_tool.ini"
    path.write_text("[chain]\nname = bad\n" + chain_lines
                    + "[joint.1]\naxis = 0 0 1\nmass = 1\n")
    with pytest.raises(ChainConfigError, match=message):
        load_arm_model(path)
