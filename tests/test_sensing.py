import numpy as np
import pytest

import episode_csv_oracle
from contactctl.geometry import Pose, Rot6D, Wrench, rotation_about_axis
from contactctl.sensing import (CalibrationSample, IdentificationError,
                                IdentifiedPayload, TactileFrame,
                                WrenchFrameModel, compensate_wrench,
                                gravity_model, gravity_wrench, identify_payload,
                                load_calibration_csv, load_payload,
                                marker_motion_magnitude, save_calibration_csv,
                                save_payload, transform_wrench)
from conftest import random_rotation


def synthetic_samples(mass, com, bias, orientations, sigma=0.0, rng=None):
    samples = []
    for r in orientations:
        wrench = gravity_model(mass, com, bias, r).as_array()
        if sigma > 0.0:
            wrench = wrench + rng.normal(0.0, sigma, 6)
        samples.append(CalibrationSample(r, Wrench.from_array(wrench, "sensor")))
    return samples


def spread_orientations(n, rng):
    return [random_rotation(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# gravity model

def test_gravity_wrench_identity_orientation():
    payload = IdentifiedPayload(0.5, [0.0, 0.0, 0.05], np.zeros(6))
    w = gravity_wrench(payload, np.eye(3))
    assert np.allclose(w.force, [0.0, 0.0, -4.905], atol=1e-12)
    assert np.allclose(w.torque, 0.0, atol=1e-12)


def test_gravity_wrench_rotation_oracle(rng):
    payload = IdentifiedPayload(0.5, np.zeros(3), np.zeros(6))
    r = rotation_about_axis(np.array([1.0, 0.0, 0.0]), np.pi / 2)
    w = gravity_wrench(payload, r)
    assert np.allclose(w.force, r.T @ np.array([0.0, 0.0, -0.5 * 9.81]),
                       atol=1e-12)


def test_gravity_model_and_transform_bit_equal_to_np_cross(rng):
    for _ in range(10):
        mass = rng.uniform(0.1, 2.0)
        com = rng.normal(size=3) * 0.05
        bias = rng.normal(size=6)
        r = random_rotation(rng)
        force = r.T @ (mass * np.array([0.0, 0.0, -9.81]))
        grav = gravity_model(mass, com, bias, r)
        assert grav.force.tobytes() == (force + bias[:3]).tobytes()
        assert grav.torque.tobytes() == (np.cross(com, force) + bias[3:]).tobytes()

        wrench = Wrench(rng.normal(size=3), rng.normal(size=3), "sensor")
        transform = Pose(random_rotation(rng), rng.normal(size=3) * 0.1)
        moved = transform_wrench(wrench, transform, "ee")
        f = transform.rotation @ wrench.force
        t = transform.rotation @ wrench.torque + np.cross(transform.translation, f)
        assert moved.force.tobytes() == f.tobytes()
        assert moved.torque.tobytes() == t.tobytes()


def test_sensing_rows_of_a_stack_equal_single_calls(rng):
    # a (N, ...) stack of orientations and wrenches gives, row by row, the
    # bits of one call per row; the stacked noise is the per-row draws
    from contactctl.dynamics import PayloadSpec, read_ft_sensor
    n = 50
    rotations = np.array([random_rotation(rng) for _ in range(n)])
    contact = Wrench(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)), "ee")
    spec = PayloadSpec(0.3, rng.normal(size=3) * 0.05, rng.normal(size=6))
    payload = IdentifiedPayload(0.31, rng.normal(size=3) * 0.05, rng.normal(size=6))
    frame = WrenchFrameModel(Pose(random_rotation(rng), rng.normal(size=3) * 0.1))
    raw = read_ft_sensor(contact, spec, rotations, 0.02, np.random.default_rng(9))
    comp = compensate_wrench(raw, payload, rotations, frame)
    noise = np.random.default_rng(9)
    for i in range(n):
        raw_i = read_ft_sensor(Wrench(contact.force[i], contact.torque[i], "ee"),
                               spec, rotations[i], 0.02, noise)
        comp_i = compensate_wrench(raw_i, payload, rotations[i], frame)
        assert raw.as_array()[i].tobytes() == raw_i.as_array().tobytes()
        assert comp.as_array()[i].tobytes() == comp_i.as_array().tobytes()


def test_gravity_wrench_massless_is_bias():
    bias = np.array([0.1, -0.2, 0.3, 0.01, -0.02, 0.03])
    payload = IdentifiedPayload(0.0, [0.1, 0.2, 0.3], bias)
    w = gravity_wrench(payload, random_rotation(np.random.default_rng(2)))
    assert np.allclose(w.as_array(), bias, atol=1e-15)


# ---------------------------------------------------------------------------
# identification

def test_identify_exact_round_trip(rng):
    mass, com = 0.342, np.array([0.01, 0.02, 0.05])
    bias = np.array([0.3, -0.2, 0.1, 0.0, 0.0, 0.0])
    samples = synthetic_samples(mass, com, bias, spread_orientations(10, rng))
    payload = identify_payload(samples)
    assert abs(payload.mass - mass) < 1e-9
    assert np.max(np.abs(payload.com - com)) < 1e-9
    assert np.max(np.abs(payload.bias - bias)) < 1e-9
    assert np.max(payload.residual_rms) < 1e-9


def test_identify_noise_monte_carlo():
    mass, com = 0.342, np.array([0.01, 0.02, 0.05])
    bias = np.array([0.3, -0.2, 0.1, 0.05, -0.03, 0.02])
    sigma = 0.05
    mass_errors, residuals = [], []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        samples = synthetic_samples(mass, com, bias,
                                    spread_orientations(10, rng), sigma, rng)
        payload = identify_payload(samples)
        mass_errors.append(abs(payload.mass - mass) / mass)
        residuals.append(np.mean(payload.residual_rms))
    assert max(mass_errors) < 0.02
    mean_resid = np.mean(residuals)
    assert sigma / 2.0 < mean_resid < sigma * 2.0


def test_identify_rank_deficiency_named():
    samples = synthetic_samples(0.3, [0.01, 0.0, 0.0], np.zeros(6),
                                [np.eye(3)] * 6)
    with pytest.raises(IdentificationError) as excinfo:
        identify_payload(samples)
    assert "unobservable" in str(excinfo.value)
    assert "mass" in str(excinfo.value) or "bias" in str(excinfo.value)


def test_identify_requires_four_poses(rng):
    samples = synthetic_samples(0.3, np.zeros(3), np.zeros(6),
                                spread_orientations(3, rng))
    with pytest.raises(IdentificationError):
        identify_payload(samples)


def test_identify_residual_matches_recomputation(rng):
    mass, com = 0.5, np.array([0.02, -0.01, 0.04])
    bias = np.array([0.1, 0.2, -0.1, 0.01, 0.0, -0.02])
    samples = synthetic_samples(mass, com, bias, spread_orientations(8, rng),
                                0.03, rng)
    payload = identify_payload(samples)
    errs = np.array([s.wrench.as_array()
                     - gravity_wrench(payload, s.orientation).as_array()
                     for s in samples])
    assert np.allclose(payload.residual_rms, np.sqrt(np.mean(errs ** 2, axis=0)),
                       atol=1e-12)


# ---------------------------------------------------------------------------
# compensation

def test_compensation_round_trip(rng):
    payload = IdentifiedPayload(0.45, [0.01, -0.03, 0.06],
                                np.array([0.2, -0.1, 0.3, 0.02, 0.01, -0.03]))
    frame = WrenchFrameModel()
    for _ in range(20):
        r = random_rotation(rng)
        w_true = rng.normal(size=6)
        raw = Wrench.from_array(gravity_wrench(payload, r).as_array() + w_true,
                                "sensor")
        out = compensate_wrench(raw, payload, r, frame)
        assert np.max(np.abs(out.as_array() - w_true)) < 1e-9
        assert out.frame == "ee"


def test_compensation_identity_transform_is_subtraction(rng):
    payload = IdentifiedPayload(0.3, [0.0, 0.01, 0.02], np.zeros(6))
    r = random_rotation(rng)
    raw = Wrench.from_array(rng.normal(size=6), "sensor")
    out = compensate_wrench(raw, payload, r, WrenchFrameModel())
    expected = raw.as_array() - gravity_wrench(payload, r).as_array()
    assert np.allclose(out.as_array(), expected, atol=1e-12)


def test_adjoint_lever_arm_oracle():
    lever = np.array([0.1, 0.0, 0.0])
    frame = WrenchFrameModel(Pose(np.eye(3), lever))
    force = np.array([0.0, 0.0, 5.0])
    out = transform_wrench(Wrench(force, np.zeros(3), "sensor"),
                           frame.t_sensor_to_ee, "ee")
    assert np.allclose(out.force, force)
    assert np.allclose(out.torque, np.cross(lever, force), atol=1e-12)


def test_frame_covariance_linearity(rng):
    # compensate-then-transform equals transform-both-then-subtract
    payload = IdentifiedPayload(0.4, [0.02, 0.01, -0.01],
                                np.array([0.1, 0.0, -0.2, 0.0, 0.01, 0.0]))
    transform = Pose(random_rotation(rng), rng.normal(size=3) * 0.1)
    frame = WrenchFrameModel(transform)
    r = random_rotation(rng)
    raw = Wrench.from_array(rng.normal(size=6), "sensor")
    a = compensate_wrench(raw, payload, r, frame).as_array()
    raw_t = transform_wrench(raw, transform, "ee").as_array()
    grav_t = transform_wrench(gravity_wrench(payload, r), transform, "ee").as_array()
    assert np.allclose(a, raw_t - grav_t, atol=1e-12)


def test_pose_variation_reduction():
    # raw span sized to ~6.7 N collapses to the noise scale after compensation
    from contactctl.scenarios.gravity import calibration_orientations
    mass = 6.7 / (2.0 * 9.81)
    com = np.array([0.01, 0.02, 0.05])
    bias = np.array([0.3, -0.2, 0.1, 0.05, -0.03, 0.02])
    sigma = 0.02
    rng = np.random.default_rng(17)
    orientations = calibration_orientations(10)
    samples = synthetic_samples(mass, com, bias, orientations, sigma, rng)
    payload = identify_payload(samples)
    raw_forces = np.array([s.wrench.force for s in samples])
    comp_forces = np.array([compensate_wrench(s.wrench, payload, s.orientation,
                                              WrenchFrameModel()).force
                            for s in samples])
    raw_span = np.max(raw_forces.max(axis=0) - raw_forces.min(axis=0))
    comp_span = np.max(comp_forces.max(axis=0) - comp_forces.min(axis=0))
    assert raw_span > 6.0
    assert comp_span < 10.0 * sigma


# ---------------------------------------------------------------------------
# tactile metric

def test_marker_motion_magnitude_values():
    assert marker_motion_magnitude(np.zeros(126)) == 0.0
    single = np.zeros(126)
    single[17] = 1.0
    assert marker_motion_magnitude(single) == 1.0
    assert np.isclose(marker_motion_magnitude(np.ones(126)), np.sqrt(126.0))
    assert np.isclose(marker_motion_magnitude(TactileFrame(np.ones(126))),
                      np.sqrt(126.0))


def test_marker_motion_magnitude_rejects_wrong_length():
    with pytest.raises(ValueError):
        marker_motion_magnitude(np.zeros(125))


# ---------------------------------------------------------------------------
# files

def test_calibration_csv_round_trip(tmp_path, rng):
    samples = synthetic_samples(0.33, [0.01, 0.0, 0.02],
                                np.array([0.1, 0.0, -0.2, 0.0, 0.01, 0.0]),
                                spread_orientations(6, rng), 0.01, rng)
    path = tmp_path / "cal.csv"
    save_calibration_csv(path, samples)
    loaded = load_calibration_csv(path)
    assert len(loaded) == len(samples)
    for a, b in zip(samples, loaded):
        assert np.allclose(a.orientation, b.orientation, atol=1e-12)
        assert np.array_equal(a.wrench.as_array(), b.wrench.as_array())


def test_calibration_csv_bytes_are_the_csv_writer_bytes(tmp_path, rng):
    samples = synthetic_samples(0.3, np.array([0.0, 0.01, 0.04]), np.zeros(6),
                                spread_orientations(6, rng), 0.01, rng)
    samples.append(CalibrationSample(np.eye(3), Wrench(np.array([-0.0, 1.0, 2.0]),
                                                       np.zeros(3), "sensor")))
    path = tmp_path / "cal.csv"
    save_calibration_csv(path, samples)
    rows = [np.concatenate([Rot6D.encode(s.orientation).as_array(), s.wrench.as_array()])
            for s in samples]
    assert path.read_bytes() == episode_csv_oracle.float_table_bytes(
        ["r6_0", "r6_1", "r6_2", "r6_3", "r6_4", "r6_5",
         "fx", "fy", "fz", "tx", "ty", "tz"], rows)


def test_calibration_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(IdentificationError):
        load_calibration_csv(empty)
    short = tmp_path / "short.csv"
    short.write_text("a,b,c\n")
    with pytest.raises(IdentificationError):
        load_calibration_csv(short)


def test_payload_file_round_trip(tmp_path):
    payload = IdentifiedPayload(0.342, [0.01, 0.02, 0.05],
                                np.array([0.3, -0.2, 0.1, 0.0, 0.0, 0.0]),
                                np.full(6, 1e-3))
    path = tmp_path / "payload.ini"
    save_payload(path, payload)
    loaded = load_payload(path)
    assert loaded.mass == payload.mass
    assert np.array_equal(loaded.com, payload.com)
    assert np.array_equal(loaded.bias, payload.bias)
    assert np.array_equal(loaded.residual_rms, payload.residual_rms)
