"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line. Run with `pytest tests/test_acceptance.py
-v -s` to see the lines; the assertions carry the same conditions.
"""

import time

import numpy as np

import compliance_oracle
from contactctl.compliance import (ActionStep, RecedingHorizonScheduler,
                                   StiffnessSchedule, compile_step)
from contactctl.dynamics import SimState
from contactctl.episodes import Episode, StreamSpec, export_csv, load_episode
from contactctl.geometry import Pose, encode_rot6d_rows, rotation_about_axis
from contactctl.impedance import (ImpedanceConfig, build_operational_gains,
                                  control_torque, fold_to_joint_gains)
from contactctl.bilateral import (BilateralState, GraspContactModel,
                                  GripperParams, angle_from_width,
                                  master_torque, slave_torque, step_bilateral)
from contactctl.kinematics import chain_frames, solve_ik
from contactctl.scenarios import (load_scenario_config, run_bottle_pick,
                                  run_gravity_verification,
                                  run_selective_release, run_wiping)
from contactctl.sensing import gravity_model, identify_payload
from conftest import (bias_split, dynamics_terms, make_planar2, plant_step,
                      random_rotation)
from test_dynamics import make_pendulum, potential_energy
from test_kinematics import planar2_analytic_ik


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_gravity_compensation():
    config = load_scenario_config("configs/gravity_verification.ini")
    t0 = time.perf_counter()
    result, = run_gravity_verification(config)
    elapsed = time.perf_counter() - t0
    m = result.metrics
    ok = (m["compensated_span_max"] < 0.5 and m["residual_rms_max"] < 0.15
          and elapsed < 5.0 and result.trials == 100)
    report("1 gravity-compensation", ok,
           f"comp_span={m['compensated_span_max']:.3f} N (<0.5), "
           f"residual={m['residual_rms_max']:.4f} N (<0.15), "
           f"raw_span={m['raw_span_mean']:.2f} N, {elapsed:.2f} s (<5)")


def test_criterion_02_identification_round_trip():
    rng = np.random.default_rng(9)
    mass, com = 0.342, np.array([0.01, 0.02, 0.05])
    bias = np.array([0.3, -0.2, 0.1, 0.04, -0.02, 0.01])
    orientations = np.array([random_rotation(rng) for _ in range(10)])
    readings = gravity_model(mass, com, bias, orientations)
    t0 = time.perf_counter()
    payload = identify_payload(orientations, readings)
    elapsed = time.perf_counter() - t0
    rel = max(abs(payload.mass - mass) / mass,
              np.max(np.abs(payload.com - com)) / np.max(np.abs(com)),
              np.max(np.abs(payload.bias - bias)) / np.max(np.abs(bias)))
    ok = rel < 1e-9 and elapsed < 1.0
    report("2 identification-round-trip", ok,
           f"max_rel_err={rel:.2e} (<1e-9), {elapsed*1e3:.1f} ms (<1 s)")


def test_criterion_03_wiping_force_regulation():
    config = load_scenario_config("configs/wiping.ini")
    t0 = time.perf_counter()
    with_wrench, without = run_wiping(config)
    elapsed = time.perf_counter() - t0
    mw = with_wrench.metrics
    mo = without.metrics
    ok = (abs(mw["mean_fz"] - 10.0) <= 1.5
          and mw["mean_fz_min"] >= 8.5 and mw["mean_fz_max"] <= 11.5
          and mw["frac_above_floor_min"] >= 0.95
          and mw["residual_max"] < 0.05
          and mw["success_rate_5pct"] == 100.0
          and mo["mean_fz_max"] < 1.0
          and mo["success_rate_5pct"] == 0.0
          and elapsed < 60.0)
    report("3 wiping-force-regulation", ok,
           f"mean_fz={mw['mean_fz']:.2f} N (10 +-15%), "
           f"frac>=7N={mw['frac_above_floor_min']:.3f} (>=0.95), "
           f"residual={mw['residual_max']:.3f} (<0.05), table 100.0/"
           f"{mo['success_rate_5pct']:.1f} @5%, baseline "
           f"F={mo['mean_fz_max']:.2f} N (<1), {elapsed:.1f} s (<60)")


def test_criterion_03_wiping_on_arm6():
    # the six-joint arm meets criterion 3's config thresholds at its own seed
    config = load_scenario_config("configs/wiping_arm6.ini")
    with_wrench, without = run_wiping(config)
    mw = with_wrench.metrics
    ok = with_wrench.success and without.success and config.trials == 10
    report("3 wiping-on-arm6", ok,
           f"mean_fz={mw['mean_fz']:.2f} N, min={mw['mean_fz_min']:.3f} N (>=8.5), "
           f"frac>=7N={mw['frac_above_floor_min']:.3f} (>=0.95), "
           f"residual={mw['residual_max']:.3f} (<0.05), baseline "
           f"F={without.metrics['mean_fz_max']:.2f} N (<1)")


def test_criterion_04_bottle_pick_slip():
    config = load_scenario_config("configs/bottle_pick.ini")
    t0 = time.perf_counter()
    force, width = run_bottle_pick(config)
    elapsed = time.perf_counter() - t0
    ok = (force.metrics["success_rate"] == 100.0
          and force.metrics["slippage_rate"] == 0.0
          and width.metrics["success_rate"] == 0.0
          and width.metrics["slippage_rate"] == 100.0
          and elapsed < 60.0)
    report("4 bottle-pick-slip", ok,
           f"force-aware {force.metrics['success_rate']:.0f}/"
           f"{force.metrics['slippage_rate']:.0f}, width-only "
           f"{width.metrics['success_rate']:.0f}/"
           f"{width.metrics['slippage_rate']:.0f}, {elapsed:.1f} s (<60)")


def test_criterion_05_selective_release():
    config = load_scenario_config("configs/selective_release.ini")
    t0 = time.perf_counter()
    tactile, fixed = run_selective_release(config)
    elapsed = time.perf_counter() - t0
    ok = (tactile.metrics["selective_rate"] == 100.0
          and tactile.metrics["both_retained_rate"] == 0.0
          and fixed.metrics["selective_rate"] <= 30.0
          and elapsed < 30.0)
    report("5 selective-release", ok,
           f"tactile {tactile.metrics['selective_rate']:.0f}/"
           f"{tactile.metrics['both_retained_rate']:.0f}, fixed-width "
           f"{fixed.metrics['selective_rate']:.0f}/"
           f"{fixed.metrics['both_retained_rate']:.0f}, {elapsed:.1f} s (<30)")


def test_criterion_06_ik_oracle_equivalence():
    chain = make_planar2()
    rng = np.random.default_rng(123)
    z_axis = np.array([0.0, 0.0, 1.0])
    times = []
    worst = 0.0
    for _ in range(1000):
        radius = rng.uniform(0.25, 0.92)
        angle = rng.uniform(-np.pi, np.pi)
        x, y = radius * np.cos(angle), radius * np.sin(angle)
        q1, q2 = planar2_analytic_ik(x, y)
        target = Pose(rotation_about_axis(z_axis, q1 + q2), [x, y, 0.0])
        q0 = np.array([np.arctan2(y, x) - 0.5, 1.0])
        t0 = time.perf_counter()
        res = solve_ik(chain, q0, target, 0.05, max_iters=200, tol=1e-6)
        times.append(time.perf_counter() - t0)
        pos = chain_frames(chain, res.q).ee_pose.translation
        worst = max(worst, float(np.linalg.norm(pos - np.array([x, y, 0.0]))))
        if not res.converged or worst >= 1e-4:
            break
    median_ms = float(np.median(np.array(times)) * 1e3)
    ok = worst < 1e-4 and median_ms < 1.0
    report("6 ik-oracle-equivalence", ok,
           f"worst position err={worst:.2e} m (<1e-4) over 1000 targets, "
           f"median solve={median_ms:.3f} ms (<1 typical)")


def test_criterion_07_controller_identities():
    rng = np.random.default_rng(77)
    cfg = ImpedanceConfig()
    worst_fold = 0.0
    for _ in range(1000):
        dof = int(rng.integers(1, 8))
        j = rng.normal(size=(6, dof))
        kp = rng.uniform(cfg.k_min, cfg.k_max, 3)
        cart, _ = build_operational_gains(kp, cfg)
        floors = (rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.5))
        gains = fold_to_joint_gains(j, cart, np.stack([np.eye(dof) * f for f in floors]))
        # independent dense oracle via explicit block expansion
        kx = np.zeros((6, 6))
        kx[:3, :3] = np.diag(cart[0, :3])
        kx[3:, 3:] = np.diag(cfg.k_rot)
        oracle = np.einsum("ka,kl,lb->ab", j, kx, j) + np.eye(dof) * floors[0]
        worst_fold = max(worst_fold, float(np.max(np.abs(gains[0] - oracle))))
        # zero-error torque equals compensation exactly
        q = rng.normal(size=dof)
        qdot = rng.normal(size=dof)
        bias = rng.normal(size=dof)
        tau = control_torque(gains, q, q, qdot, qdot, bias)
        assert np.array_equal(tau, bias)
    ok = worst_fold < 1e-10
    report("7 controller-identities", ok,
           f"fold max err={worst_fold:.2e} (<1e-10) on 1000 random (J, gains); "
           "zero-error torque == bias (C qdot + g) exactly")


def test_criterion_08_bilateral_loop_properties():
    dt = 1e-3

    def operator(state, ref, kp=10.0, kd=0.12):
        return kp * (ref - state.theta_m) - kd * state.thetadot_m

    # tracking offset
    params = GripperParams(b=0.9, delta=0.15)
    state = BilateralState()
    for _ in range(4000):
        state = step_bilateral(state, operator(state, 2.0), None, params, dt)
    track_err = abs(state.theta_s - (params.b * state.theta_m - params.delta))

    # steady-state reflection
    params_r = GripperParams(a=2.5)
    contact = GraspContactModel(0.05, 5000.0)
    state = BilateralState()
    hold = angle_from_width(contact.object_width, params_r) + 0.3
    for _ in range(6000):
        state = step_bilateral(state, operator(state, hold), contact, params_r, dt)
    tau_s = slave_torque(state, params_r)
    tau_m = master_torque(state, params_r)
    refl_err = abs(tau_m - (-tau_s / params_r.a)) / abs(tau_s / params_r.a)

    # velocity-compensation drag reduction
    def mean_drive(b_l):
        p = GripperParams(b_l=b_l)
        s = BilateralState()
        drives = []
        for i in range(3000):
            ref = 3.0 + 1.0 * i * dt
            d = operator(s, ref)
            s = step_bilateral(s, d, GraspContactModel(0.05, 3000.0), p, dt)
            if i > 1500:
                drives.append(d)
        return float(np.mean(drives))

    drag_with = mean_drive(0.03)
    drag_without = mean_drive(0.0)
    ok = track_err < 1e-4 and refl_err < 0.02 and drag_with < drag_without
    report("8 bilateral-loop", ok,
           f"tracking err={track_err:.2e} rad (<1e-4), reflection err="
           f"{refl_err*100:.2f}% (<2%), drive {drag_with:.4f} < "
           f"{drag_without:.4f} N*m with B_l>0")


def test_criterion_09_dynamics_sanity():
    model = make_pendulum(length=1.0, mass=2.0)
    state = SimState(np.array([0.0]), np.array([0.0]))
    e0 = potential_energy(model, state.q)
    scale = 2.0 * 9.81 * 0.5
    worst = 0.0
    for _ in range(5000):
        state = plant_step(model, state, np.array([0.0]), None, 1e-3)
        m = dynamics_terms(model, state.q, np.zeros(1))[0][0, 0]
        energy = 0.5 * m * state.qdot[0] ** 2 + potential_energy(model, state.q)
        worst = max(worst, abs(energy - e0))
    drift = worst / scale

    hold_state = SimState(np.array([0.35]), np.array([0.0]))
    _, tau = bias_split(model, hold_state.q, hold_state.qdot)
    max_step_drift = 0.0
    for _ in range(1000):
        new = plant_step(model, hold_state, tau, None, 1e-3)
        max_step_drift = max(max_step_drift, abs(new.q[0] - hold_state.q[0]))
        hold_state = new
    ok = drift < 0.005 and max_step_drift < 1e-9
    report("9 dynamics-sanity", ok,
           f"pendulum energy drift={drift*100:.3f}% (<0.5% over 5 s), "
           f"gravity-hold drift={max_step_drift:.2e} rad/step (<1e-9)")


def test_criterion_10_compliance_compiler():
    rng = np.random.default_rng(21)
    sched = StiffnessSchedule(2000.0, 200.0, 20.0)
    # force reconstruction: rows without a delta hold the reference at the origin
    held = np.zeros((1000, 13))
    held[:, 3:9] = encode_rot6d_rows(np.eye(3))
    held[:, 9:12] = rng.uniform(-40.0, 40.0, (1000, 3))
    target, kp = compile_step(held, Pose.identity(), sched)
    delta = -target.translation
    worst = float(np.max(np.abs(kp * delta - held[:, 9:12])))
    # zero-force transparency on a full command stream
    start = Pose(np.eye(3), [0.3, 0.0, 0.2])
    stream = np.array([np.concatenate([rng.uniform(-0.01, 0.01, 3),
                                       encode_rot6d_rows(random_rotation(rng)),
                                       np.zeros(3), [0.05]])
                       for _ in range(64)])
    _, rows = zip(*RecedingHorizonScheduler([stream], len(stream)))
    target, kp = compile_step(np.array(rows), start, sched)
    ref = start
    transparent = True
    for i, row in enumerate(stream):
        ref = compliance_oracle.integrate_reference(ref, ActionStep.from_array(row))
        transparent &= bool(np.array_equal(target.translation[i], ref.translation))
        transparent &= bool(np.all(kp[i] == sched.k_max))
    ok = worst < 1e-12 and transparent
    report("10 compliance-compiler", ok,
           f"force reconstruction err={worst:.2e} (<1e-12) on 1000 inputs; "
           f"zero-force transparency={'holds' if transparent else 'broken'}")


def test_criterion_11_episode_format(tmp_path):
    rng = np.random.default_rng(3)
    episode = Episode("acc11", [StreamSpec("pose", 100.0, ("x", "y", "z"), "pose"),
                                StreamSpec("wrench", 500.0,
                                           tuple("abcdef"), "wrench")])
    for i in range(200):
        episode.record("pose", i / 100.0, rng.normal(size=3))
    for i in range(1000):
        episode.record("wrench", i / 500.0 + 1e-4, rng.normal(size=6))
    export_csv(episode, tmp_path / "ep")
    loaded = load_episode(tmp_path / "ep")
    exact = all(np.array_equal(loaded.values(n), episode.values(n))
                and np.array_equal(loaded.times(n), episode.times(n))
                for n in ("pose", "wrench"))

    # jittered fixture: staleness in [0, period * (1 + jitter)) exhaustively
    period, jitter = 0.01, 0.2
    jit = Episode("jit", [StreamSpec("s", 100.0, ("v",), "wrench")])
    t, times = 0.0, []
    for i in range(300):
        jit.record("s", t, [float(i)])
        times.append(t)
        t += period * (1.0 + rng.uniform(-jitter, jitter))
    tq = np.arange(int(times[0] * 1000), int(times[-1] * 1000)) / 1000.0
    index, staleness = jit.align(tq, ["s"])["s"]
    bound_ok = bool(np.all((0.0 <= staleness) & (staleness < period * (1.0 + jitter))
                           & (jit.times("s")[index] <= tq)))
    ok = exact and bound_ok
    report("11 episode-format", ok,
           f"round trip value-exact={exact}, staleness bound (0 <= s < "
           f"period*(1+jitter)) exhaustively={'holds' if bound_ok else 'broken'}")
