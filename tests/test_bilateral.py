import math

import numpy as np
import pytest

from contactctl.bilateral import (BILATERAL_SCHEMA, BilateralFault,
                                  BilateralState, GraspContactModel,
                                  GripperParams, angle_from_width,
                                  bilateral_record, estimate_internal_force,
                                  grasp_contact_force, low_pass, master_torque,
                                  slave_torque, step_bilateral,
                                  width_from_angle)


PARAMS = GripperParams()


def drive_to(state, theta_ref, params, dt, kp=8.0, kd=0.1):
    """Operator PD standing in for the hand: torque toward a master setpoint.

    Gains respect the discrete damping bound dt kd / J < 2 at dt = 1 ms."""
    return kp * (theta_ref - state.theta_m) - kd * state.thetadot_m


# ---------------------------------------------------------------------------
# torque laws (exact arithmetic)

def test_slave_torque_tracking_equilibrium():
    params = GripperParams(b=0.8, delta=0.1)
    state = BilateralState(theta_m=1.0, theta_s=0.8 * 1.0 - 0.1)
    assert slave_torque(state, params) == pytest.approx(0.0, abs=1e-15)


def test_slave_torque_pd_arithmetic():
    params = GripperParams(kp=5.0, kd=0.0, b=1.0, delta=0.0)
    state = BilateralState(theta_m=0.1, theta_s=0.0)
    assert slave_torque(state, params) == pytest.approx(0.5)


def test_master_torque_free_and_still():
    state = BilateralState()
    assert master_torque(state, PARAMS) == 0.0


def test_master_torque_reflection_arithmetic():
    params = GripperParams(a=2.0, b_l=0.0)
    state = BilateralState(tau_s_filtered=0.4)
    assert master_torque(state, params) == pytest.approx(-0.2)


def test_estimate_internal_force():
    assert estimate_internal_force(0.0, PARAMS) == 0.0
    params = GripperParams(k_tau=0.05, r_g=0.01)
    assert estimate_internal_force(2.0, params) == pytest.approx(10.0)


def test_force_estimate_identity_every_step():
    # F r_g = k_tau i is an exact identity of the estimator
    params = GripperParams()
    state = BilateralState()
    contact = GraspContactModel(0.05, 5000.0)
    for i in range(500):
        drive = drive_to(state, 5.5, params, 1e-3)
        state = step_bilateral(state, drive, contact, params, 1e-3)
        f = estimate_internal_force(state.current_s, params)
        assert f * params.r_g == pytest.approx(params.k_tau * state.current_s,
                                               abs=1e-12)


# ---------------------------------------------------------------------------
# filter

def test_low_pass_dc_convergence():
    # first-order settling: e^-5 ~ 0.67% after five time constants, and the
    # DC error keeps shrinking toward zero (unity DC gain)
    dt, cutoff = 1e-3, 20.0
    tau_c = 1.0 / (2.0 * math.pi * cutoff)
    y = 0.0
    for _ in range(int(5.0 * tau_c / dt)):
        y = low_pass(y, 1.0, dt, cutoff)
    assert abs(y - 1.0) < 0.01
    for _ in range(int(5.0 * tau_c / dt)):
        y = low_pass(y, 1.0, dt, cutoff)
    assert abs(y - 1.0) < 1e-3


def test_low_pass_zero_stays_zero():
    y = 0.0
    for _ in range(100):
        y = low_pass(y, 0.0, 1e-3, 20.0)
    assert y == 0.0


def test_low_pass_bode_attenuation():
    # sine at 10x cutoff: analytic first-order gain is 1/sqrt(1 + 100)
    dt, cutoff = 1e-4, 20.0
    freq = 10.0 * cutoff
    y = 0.0
    out = []
    n = int(50.0 / freq / dt)   # 50 cycles
    for i in range(n):
        x = math.sin(2.0 * math.pi * freq * i * dt)
        y = low_pass(y, x, dt, cutoff)
        out.append(y)
    tail = np.array(out[n // 2:])
    gain = tail.max()
    analytic = 1.0 / math.sqrt(1.0 + (freq / cutoff) ** 2)
    db_diff = abs(20.0 * math.log10(gain / analytic))
    assert db_diff < 3.0


def test_low_pass_requires_positive_cutoff():
    with pytest.raises(ValueError):
        low_pass(0.0, 1.0, 1e-3, 0.0)


# ---------------------------------------------------------------------------
# closed-loop stepping

def test_rest_stays_at_rest():
    state = BilateralState()
    for _ in range(200):
        state = step_bilateral(state, 0.0, None, PARAMS, 1e-3)
    assert state.theta_m == 0.0 and state.theta_s == 0.0


def test_step_response_settles_within_half_second():
    params = GripperParams(kp=5.0, kd=0.045, b=1.0, delta=0.0)
    state = BilateralState()
    dt = 1e-3
    target = 1.0
    settle_time = None
    for i in range(int(1.0 / dt)):
        drive = drive_to(state, target, params, dt, kp=12.0, kd=0.12)
        state = step_bilateral(state, drive, None, params, dt)
        t = (i + 1) * dt
        err = abs(state.theta_s - (params.b * state.theta_m - params.delta))
        if settle_time is None and t > 0.05 and err < 0.02 * target:
            settle_time = t
    assert settle_time is not None and settle_time < 0.5


def test_free_motion_tracking_offset():
    # steady state must satisfy theta_s = b theta_m - delta
    params = GripperParams(b=0.9, delta=0.15)
    state = BilateralState()
    dt = 1e-3
    for _ in range(4000):
        drive = drive_to(state, 2.0, params, dt)
        state = step_bilateral(state, drive, None, params, dt)
    assert abs(state.theta_s - (params.b * state.theta_m - params.delta)) < 1e-4


def test_grasp_force_monotone_and_matches_spring():
    params = GripperParams()
    contact = GraspContactModel(0.05, 5000.0)
    state = BilateralState()
    dt = 1e-3
    theta_contact = angle_from_width(contact.object_width, params)
    estimates = []
    for i in range(4000):
        theta_ref = min(theta_contact + 0.4, 8.0 * (i * dt))   # steady closing
        drive = drive_to(state, theta_ref, params, dt)
        state = step_bilateral(state, drive, contact, params, dt)
        estimates.append(estimate_internal_force(state.current_s, params))
    width = width_from_angle(state.theta_s, params)
    spring = grasp_contact_force(width, contact)
    assert spring > 1.0   # gripper is squeezing
    assert abs(estimates[-1] - spring) / spring < 0.10
    # monotone rise through the squeeze (after contact, before settling)
    settled = np.array(estimates[-500:])
    assert settled.std() < 0.05 * max(1.0, settled.mean())


def test_steady_state_reflection_identity():
    params = GripperParams(a=2.5)
    contact = GraspContactModel(0.05, 5000.0)
    state = BilateralState()
    dt = 1e-3
    theta_hold = angle_from_width(contact.object_width, params) + 0.3
    for _ in range(6000):
        drive = drive_to(state, theta_hold, params, dt, kp=10.0, kd=0.12)
        state = step_bilateral(state, drive, contact, params, dt)
    tau_s = slave_torque(state, params)
    tau_m = master_torque(state, params)
    assert abs(state.thetadot_m) < 1e-6 and abs(state.thetadot_s) < 1e-6
    assert abs(tau_m - (-tau_s / params.a)) / abs(tau_s / params.a) < 0.02


def test_velocity_compensation_reduces_operator_drag():
    # constant-velocity closing against contact: positive B_l strictly lowers
    # the mean operator drive torque
    contact = GraspContactModel(0.05, 3000.0)
    dt = 1e-3

    def mean_drive(b_l):
        params = GripperParams(b_l=b_l)
        state = BilateralState()
        drives = []
        for i in range(3000):
            theta_ref = 1.0 * i * dt + 3.0   # past contact, steady closing
            drive = drive_to(state, theta_ref, params, dt, kp=10.0, kd=0.12)
            state = step_bilateral(state, drive, contact, params, dt)
            if i > 1500:
                drives.append(drive)
        return float(np.mean(drives))

    assert 0.0 < mean_drive(0.03) < mean_drive(0.0)


def test_filter_bounded_by_history():
    params = GripperParams()
    contact = GraspContactModel(0.05, 5000.0)
    state = BilateralState()
    dt = 1e-3
    max_raw = 0.0
    for i in range(2000):
        drive = drive_to(state, 6.0 * min(1.0, i * dt), params, dt)
        tau_raw = slave_torque(state, params)
        max_raw = max(max_raw, abs(tau_raw))
        state = step_bilateral(state, drive, contact, params, dt)
        assert abs(state.tau_s_filtered) <= max_raw + 1e-12


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["theta_m", "theta_s", "thetadot_m",
                                   "thetadot_s", "tau_s_filtered"])
def test_step_bilateral_validates(field, value):
    with pytest.raises(ValueError):
        step_bilateral(BilateralState(), 0.0, None, PARAMS, 0.01)
    # a non-finite field makes the value checked after the step non-finite
    with pytest.raises(BilateralFault, match="bilateral state diverged"):
        step_bilateral(BilateralState(**{field: value}), 0.0, None, PARAMS, 1e-3)


BIG = 1.7976931348623157e308   # the largest float


# with no position scaling, no damping and a tiny Kp, one angle can overflow
# while every other new value stays finite
ISOLATING = GripperParams(kp=1e-300, kd=0.0, b=0.0, viscous=0.0)


@pytest.mark.parametrize("state, bad", [
    (BilateralState(theta_m=BIG, thetadot_m=1e300), 0),
    (BilateralState(theta_s=BIG, thetadot_s=1e300), 1),
])
def test_step_bilateral_faults_on_one_overflowing_angle(state, bad):
    with pytest.raises(BilateralFault) as fault:
        step_bilateral(state, 0.0, None, ISOLATING, 1e-3)
    values = [float(v) for v in str(fault.value).split(": ", 1)[1].strip("()").split(",")]
    assert [math.isfinite(v) for v in values] == [i != bad for i in range(5)]


def test_params_validation():
    with pytest.raises(ValueError):
        GripperParams(k_tau=0.0)
    with pytest.raises(ValueError):
        GripperParams(kd=-1.0)


@pytest.mark.parametrize("field, value", [("kd", math.nan), ("k_tau", math.nan),
                                          ("viscous", math.nan), ("b", math.nan),
                                          ("delta", math.inf)])
def test_params_reject_non_finite(field, value):
    # each of these once passed the checks and diverged in the loop
    with pytest.raises(ValueError):
        GripperParams(**{field: value})


def test_bilateral_record_schema():
    row = bilateral_record(BilateralState(), PARAMS)
    assert len(row) == len(BILATERAL_SCHEMA)
    assert row[-1] == pytest.approx(PARAMS.w_max)   # width at zero angle


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_bilateral_record_of_a_stack_equals_scalar_calls(rng, n):
    # a state of (n,) arrays gives, row by row, the bits of one call per state
    params = GripperParams(b=1.3, delta=0.02, b_l=0.01, kd=0.07)
    log = rng.normal(size=(n, 6)) * 10.0 ** rng.integers(-8, 8, (n, 6))
    rows = bilateral_record(BilateralState(*log.T), params)
    assert rows.shape == (n, len(BILATERAL_SCHEMA))
    for i, fields_i in enumerate(log.tolist()):
        assert rows[i].tobytes() == np.array(
            bilateral_record(BilateralState(*fields_i), params)).tobytes()


def test_width_angle_round_trip():
    w = 0.063
    assert width_from_angle(angle_from_width(w, PARAMS), PARAMS) == pytest.approx(w)
