import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import episode_csv_oracle
import payload_oracle
from contactctl.geometry import rotation_about_axis
from contactctl.sensing import (IdentificationError, Payload,
                                compensate_wrench, gravity_model,
                                identify_payload,
                                load_calibration_csv, load_payload,
                                marker_motion_magnitude, save_calibration_csv,
                                save_payload)
from conftest import random_rotation


def synthetic_readings(mass, com, bias, orientations, sigma=0.0, rng=None):
    """(orientations, readings): the payload's wrench at each pose, plus one
    (P, 6) noise draw."""
    orientations = np.array(orientations)
    readings = gravity_model(mass, com, bias, orientations)
    if sigma > 0.0:
        readings = readings + rng.normal(0.0, sigma, readings.shape)
    return orientations, readings


def predicted(payload, orientation):
    """The gravity wrench a payload induces at an orientation."""
    return gravity_model(payload.mass, payload.com, payload.bias, orientation)


def spread_orientations(n, rng):
    return [random_rotation(rng) for _ in range(n)]


# the 24 rotations whose columns are signed unit axes: R^T g holds exact zeros
AXIS_ALIGNED = [m for m in (np.diag(signs)[list(perm)]
                            for perm in itertools.permutations(range(3))
                            for signs in itertools.product((-1.0, 1.0), repeat=3))
                if np.linalg.det(m) > 0.0]


# ---------------------------------------------------------------------------
# gravity model

def test_gravity_model_identity_orientation():
    w = gravity_model(0.5, [0.0, 0.0, 0.05], np.zeros(6), np.eye(3))
    assert np.allclose(w[:3], [0.0, 0.0, -4.905], atol=1e-12)
    assert np.allclose(w[3:], 0.0, atol=1e-12)


def test_gravity_model_rotation_oracle(rng):
    r = rotation_about_axis(np.array([1.0, 0.0, 0.0]), np.pi / 2)
    w = gravity_model(0.5, np.zeros(3), np.zeros(6), r)
    assert np.allclose(w[:3], r.T @ np.array([0.0, 0.0, -0.5 * 9.81]),
                       atol=1e-12)


def test_gravity_model_bit_equal_to_np_cross(rng):
    for _ in range(10):
        mass = rng.uniform(0.1, 2.0)
        com = rng.normal(size=3) * 0.05
        bias = rng.normal(size=6)
        r = random_rotation(rng)
        force = r.T @ (mass * np.array([0.0, 0.0, -9.81]))
        grav = gravity_model(mass, com, bias, r)
        assert grav[:3].tobytes() == (force + bias[:3]).tobytes()
        assert grav[3:].tobytes() == (np.cross(com, force) + bias[3:]).tobytes()


def test_sensing_rows_of_a_stack_equal_single_calls(rng):
    # a (N, ...) stack of orientations and wrenches gives, row by row, the
    # bits of one call per row; the stacked noise is the per-row draws
    from contactctl.dynamics import read_ft_sensor
    n = 50
    rotations = np.array([random_rotation(rng) for _ in range(n)])
    contact = np.concatenate([rng.normal(size=(n, 3)), rng.normal(size=(n, 3))],
                             axis=1)
    spec = Payload(0.3, rng.normal(size=3) * 0.05, rng.normal(size=6))
    payload = Payload(0.31, rng.normal(size=3) * 0.05, rng.normal(size=6))
    raw = read_ft_sensor(contact, spec, rotations, 0.02, np.random.default_rng(9))
    comp = compensate_wrench(raw, payload, rotations)
    noise = np.random.default_rng(9)
    for i in range(n):
        raw_i = read_ft_sensor(contact[i], spec, rotations[i], 0.02, noise)
        comp_i = compensate_wrench(raw_i, payload, rotations[i])
        assert raw[i].tobytes() == raw_i.tobytes()
        assert comp[i].tobytes() == comp_i.tobytes()


def test_gravity_model_massless_is_bias():
    bias = np.array([0.1, -0.2, 0.3, 0.01, -0.02, 0.03])
    w = gravity_model(0.0, [0.1, 0.2, 0.3], bias,
                      random_rotation(np.random.default_rng(2)))
    assert np.allclose(w, bias, atol=1e-15)


# ---------------------------------------------------------------------------
# identification

def test_identify_exact_round_trip(rng):
    mass, com = 0.342, np.array([0.01, 0.02, 0.05])
    bias = np.array([0.3, -0.2, 0.1, 0.0, 0.0, 0.0])
    payload = identify_payload(*synthetic_readings(mass, com, bias,
                                                   spread_orientations(10, rng)))
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
        payload = identify_payload(*synthetic_readings(
            mass, com, bias, spread_orientations(10, rng), sigma, rng))
        mass_errors.append(abs(payload.mass - mass) / mass)
        residuals.append(np.mean(payload.residual_rms))
    assert max(mass_errors) < 0.02
    mean_resid = np.mean(residuals)
    assert sigma / 2.0 < mean_resid < sigma * 2.0


def test_identify_rank_deficiency_named():
    samples = synthetic_readings(0.3, [0.01, 0.0, 0.0], np.zeros(6),
                                 [np.eye(3)] * 6)
    with pytest.raises(IdentificationError) as excinfo:
        identify_payload(*samples)
    assert "unobservable" in str(excinfo.value)
    assert "mass" in str(excinfo.value) or "bias" in str(excinfo.value)


def test_identify_requires_four_poses(rng):
    samples = synthetic_readings(0.3, np.zeros(3), np.zeros(6),
                                 spread_orientations(3, rng))
    with pytest.raises(IdentificationError):
        identify_payload(*samples)


def test_identify_residual_matches_recomputation(rng):
    mass, com = 0.5, np.array([0.02, -0.01, 0.04])
    bias = np.array([0.1, 0.2, -0.1, 0.01, 0.0, -0.02])
    orientations, readings = synthetic_readings(
        mass, com, bias, spread_orientations(8, rng), 0.03, rng)
    payload = identify_payload(orientations, readings)
    errs = np.array([w - predicted(payload, r)
                     for r, w in zip(orientations, readings)])
    assert np.allclose(payload.residual_rms, np.sqrt(np.mean(errs ** 2, axis=0)),
                       atol=1e-12)


@st.composite
def calibration_sets(draw):
    """4-64 poses: random and axis-aligned rotations, each one or more times
    in a shuffled order, so that one or two distinct poses leave the fit
    rank deficient; readings of a random payload with or without noise."""
    n = draw(st.integers(4, 64))
    kinds = draw(st.lists(st.sampled_from(("random", "axis")), min_size=1, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    distinct = np.array([random_rotation(rng) if kind == "random"
                         else AXIS_ALIGNED[rng.integers(len(AXIS_ALIGNED))]
                         for kind in kinds])
    picks = np.concatenate([np.arange(len(distinct)),
                            rng.integers(len(distinct), size=n - len(distinct))])
    sigma = draw(st.sampled_from((0.0, 0.05)))
    return synthetic_readings(rng.uniform(0.0, 2.0), rng.normal(size=3) * 0.05,
                              rng.normal(size=6) * 0.3,
                              distinct[rng.permutation(picks)], sigma, rng)


def _fit_outcome(identify, orientations, readings):
    try:
        payload = identify(orientations, readings)
    except IdentificationError as exc:
        return str(exc)
    return (np.float64(payload.mass).tobytes(), payload.com.tobytes(),
            payload.bias.tobytes(), payload.residual_rms.tobytes())


@settings(max_examples=200, deadline=None)
@given(calibration_sets())
def test_identify_gets_the_per_pose_oracle_bits(calibration):
    assert len(AXIS_ALIGNED) == 24
    assert _fit_outcome(identify_payload, *calibration) \
        == _fit_outcome(payload_oracle.identify_payload, *calibration)


# ---------------------------------------------------------------------------
# compensation

def test_compensation_round_trip(rng):
    payload = Payload(0.45, [0.01, -0.03, 0.06],
                      np.array([0.2, -0.1, 0.3, 0.02, 0.01, -0.03]))
    for _ in range(20):
        r = random_rotation(rng)
        w_true = rng.normal(size=6)
        raw = predicted(payload, r) + w_true
        out = compensate_wrench(raw, payload, r)
        assert np.max(np.abs(out - w_true)) < 1e-9


def test_compensation_is_subtraction(rng):
    # the sensor is collocated with the end-effector: no frame change
    payload = Payload(0.3, [0.0, 0.01, 0.02], np.zeros(6))
    r = random_rotation(rng)
    raw = rng.normal(size=6)
    out = compensate_wrench(raw, payload, r)
    assert out.tobytes() == (raw - predicted(payload, r)).tobytes()


def test_pose_variation_reduction():
    # raw span sized to ~6.7 N collapses to the noise scale after compensation
    from contactctl.scenarios.gravity import calibration_orientations
    mass = 6.7 / (2.0 * 9.81)
    com = np.array([0.01, 0.02, 0.05])
    bias = np.array([0.3, -0.2, 0.1, 0.05, -0.03, 0.02])
    sigma = 0.02
    rng = np.random.default_rng(17)
    orientations, readings = synthetic_readings(
        mass, com, bias, calibration_orientations(10), sigma, rng)
    payload = identify_payload(orientations, readings)
    raw_forces = readings[:, :3]
    comp_forces = compensate_wrench(readings, payload, orientations)[:, :3]
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


def test_marker_motion_magnitude_rows_equal_per_row_norm(rng):
    # each row of a stack gets the bits of np.linalg.norm of that row alone
    offsets = rng.normal(size=(500, 126)) * rng.uniform(1e-3, 1e3, size=(500, 1))
    norms = marker_motion_magnitude(offsets)
    assert norms.shape == (500,)
    assert norms.tobytes() == np.array([np.linalg.norm(row)
                                        for row in offsets]).tobytes()
    assert marker_motion_magnitude(np.zeros((0, 126))).shape == (0,)


def test_marker_motion_magnitude_rejects_wrong_length():
    with pytest.raises(ValueError):
        marker_motion_magnitude(np.zeros(125))
    with pytest.raises(ValueError):
        marker_motion_magnitude(np.zeros((4, 127)))


# ---------------------------------------------------------------------------
# files

def test_calibration_csv_round_trip(tmp_path, rng):
    orientations, readings = synthetic_readings(
        0.33, [0.01, 0.0, 0.02], np.array([0.1, 0.0, -0.2, 0.0, 0.01, 0.0]),
        spread_orientations(6, rng), 0.01, rng)
    path = tmp_path / "cal.csv"
    save_calibration_csv(path, orientations, readings)
    loaded_orientations, loaded_readings = load_calibration_csv(path)
    assert loaded_orientations.shape == (6, 3, 3)
    assert np.allclose(loaded_orientations, orientations, atol=1e-12)
    assert np.array_equal(loaded_readings, readings)


def test_calibration_csv_bytes_are_the_csv_writer_bytes(tmp_path, rng):
    orientations, readings = synthetic_readings(
        0.3, np.array([0.0, 0.01, 0.04]), np.zeros(6),
        spread_orientations(6, rng), 0.01, rng)
    orientations = np.concatenate([orientations, [np.eye(3)]])
    readings = np.concatenate([readings, [[-0.0, 1.0, 2.0, 0.0, 0.0, 0.0]]])
    path = tmp_path / "cal.csv"
    save_calibration_csv(path, orientations, readings)
    rows = [np.concatenate([r[:, 0], r[:, 1], w])
            for r, w in zip(orientations, readings)]
    assert path.read_bytes() == episode_csv_oracle.float_table_bytes(
        ["r6_0", "r6_1", "r6_2", "r6_3", "r6_4", "r6_5",
         "fx", "fy", "fz", "tx", "ty", "tz"], rows)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc", ""])
def test_calibration_csv_rejects_a_value_naming_its_line(tmp_path, value):
    lines = ["r6_0,r6_1,r6_2,r6_3,r6_4,r6_5,fx,fy,fz,tx,ty,tz"] \
        + ["1,0,0,0,1,0,0.1,0.2,0.3,0,0,0"] * 4
    for column in (0, 8):   # a rotation and a wrench value
        bad = list(lines)
        bad[3] = ",".join(value if i == column else v
                          for i, v in enumerate(bad[3].split(",")))
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(IdentificationError) as excinfo:
            load_calibration_csv(path)
        assert str(excinfo.value).startswith(f"{path}:4: ")


def test_calibration_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(IdentificationError):
        load_calibration_csv(empty)
    short = tmp_path / "short.csv"
    short.write_text("a,b,c\n")
    with pytest.raises(IdentificationError):
        load_calibration_csv(short)


@pytest.mark.parametrize("mass", ["nan", "-0.5"])
def test_payload_file_with_nan_or_negative_mass_is_rejected(tmp_path, mass):
    path = tmp_path / "payload.ini"
    save_payload(path, Payload(0.342, np.zeros(3), np.zeros(6)))
    path.write_text(path.read_text().replace("mass = 0.342", f"mass = {mass}"))
    with pytest.raises(ValueError, match="payload mass must be nonnegative"):
        load_payload(path)


@pytest.mark.parametrize("old, new, named", [
    ("com = 0.0 0.0 0.0", "com = nan 0 0", "payload com needs 3 finite numbers"),
    ("bias = 0.0 0.0 0.0 0.0 0.0 0.0", "bias = inf 0 0 0 0 0", "payload bias"),
    ("mass = 0.342", "mass = inf", "payload mass"),
    ("com = 0.0 0.0 0.0", "com = 0 0", "payload com needs 3 finite numbers"),
    ("com = 0.0 0.0 0.0", "com = 0 zero 0", "'zero'"),
    ("bias = 0.0 0.0 0.0 0.0 0.0 0.0", "", "'bias'"),
    ("[payload]", "[other]", "'payload'"),
    ("[payload]", "", "no section headers"),
], ids=["com-nan", "bias-inf", "mass-inf", "com-count", "com-word", "bias-missing",
        "section-missing", "not-ini"])
def test_payload_file_with_a_bad_key_names_file_and_key(tmp_path, old, new, named):
    path = tmp_path / "payload.ini"
    save_payload(path, Payload(0.342, np.zeros(3), np.zeros(6)))
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(ValueError) as excinfo:
        load_payload(path)
    assert str(excinfo.value).startswith(f"{path}: ") and named in str(excinfo.value)


def test_payload_file_round_trip(tmp_path):
    payload = Payload(0.342, [0.01, 0.02, 0.05],
                      np.array([0.3, -0.2, 0.1, 0.0, 0.0, 0.0]),
                      np.full(6, 1e-3))
    path = tmp_path / "payload.ini"
    save_payload(path, payload)
    loaded = load_payload(path)
    assert loaded.mass == payload.mass
    assert np.array_equal(loaded.com, payload.com)
    assert np.array_equal(loaded.bias, payload.bias)
    assert np.array_equal(loaded.residual_rms, payload.residual_rms)
