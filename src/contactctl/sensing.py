"""Force/torque wrench pipeline and the tactile marker-motion metric.

Payload identification fits {mass, center of mass, constant bias} to static
readings taken at several sensor orientations. The model is linear once the
COM is folded into s = mass * com:

    force  = (R^T g) m            + bias_f
    torque = -skew(R^T g) s       + bias_t

so a single least-squares solve recovers all ten parameters. Compensation
subtracts the fitted gravity wrench and maps the remainder into the
end-effector frame with the full adjoint wrench transform (rotation plus
lever-arm torque).

Gravity, compensation and the wrench transform take a leading axis: a
(..., 3, 3) stack of orientations and (..., 3) wrench stacks give one result
per row, with the same bits as one call per row.
"""

from dataclasses import dataclass, field
from pathlib import Path
import configparser
import csv

import numpy as np

from .episodes import write_float_rows
from .geometry import GRAVITY_WORLD, Pose, Rot6D, Wrench, cross_rows, skew

MARKER_DIM = 126   # 63 tactile markers x 2D offsets

_PARAM_NAMES = ("mass",
                "force_bias_x", "force_bias_y", "force_bias_z",
                "mass_com_x", "mass_com_y", "mass_com_z",
                "torque_bias_x", "torque_bias_y", "torque_bias_z")


class IdentificationError(ValueError):
    """Calibration pose set does not determine the payload parameters."""


@dataclass
class WrenchFrameModel:
    """Fixed sensor-to-end-effector transform."""

    t_sensor_to_ee: Pose = field(default_factory=Pose.identity)


@dataclass
class IdentifiedPayload:
    mass: float
    com: np.ndarray
    bias: np.ndarray
    residual_rms: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def __post_init__(self):
        self.com = np.asarray(self.com, dtype=float).reshape(3)
        self.bias = np.asarray(self.bias, dtype=float).reshape(6)
        self.residual_rms = np.asarray(self.residual_rms, dtype=float).reshape(6)
        if self.mass < 0.0:
            raise ValueError("identified mass must be nonnegative")


@dataclass
class TactileFrame:
    marker_offsets: np.ndarray

    def __post_init__(self):
        self.marker_offsets = np.asarray(self.marker_offsets, dtype=float).reshape(-1)
        if self.marker_offsets.shape[0] != MARKER_DIM:
            raise ValueError(
                f"tactile frame must have {MARKER_DIM} values, got {self.marker_offsets.shape[0]}")


@dataclass
class CalibrationSample:
    orientation: np.ndarray   # 3x3 sensor orientation in the world frame
    wrench: Wrench            # raw sensor reading


def gravity_model(mass: float, com: np.ndarray, bias: np.ndarray,
                  orientation: np.ndarray,
                  gravity: np.ndarray = GRAVITY_WORLD) -> Wrench:
    """Sensor-frame wrench a rigid payload induces at orientation R."""
    orientation = np.asarray(orientation, dtype=float)
    com = np.asarray(com, dtype=float).reshape(3)
    bias = np.asarray(bias, dtype=float).reshape(6)
    force = orientation.swapaxes(-1, -2) @ (mass * np.asarray(gravity, dtype=float))
    torque = cross_rows(com, force)
    return Wrench(force + bias[:3], torque + bias[3:], "sensor")


def gravity_wrench(payload: IdentifiedPayload, sensor_orientation: np.ndarray) -> Wrench:
    """Pose-dependent gravity bias predicted by an identified payload."""
    return gravity_model(payload.mass, payload.com, payload.bias, sensor_orientation)


def identify_payload(samples: list) -> IdentifiedPayload:
    """Least-squares fit of {mass, com, bias} to static calibration samples.

    Raises IdentificationError when the pose set leaves parameter directions
    unobservable (e.g. all poses at one orientation), naming the deficient
    subspace.
    """
    if len(samples) < 4:
        raise IdentificationError("need at least 4 calibration poses")
    rows = []
    rhs = []
    for sample in samples:
        r = np.asarray(sample.orientation, dtype=float)
        u = r.T @ GRAVITY_WORLD
        force_block = np.zeros((3, 10))
        force_block[:, 0] = u
        force_block[:, 1:4] = np.eye(3)
        torque_block = np.zeros((3, 10))
        torque_block[:, 4:7] = -skew(u)
        torque_block[:, 7:10] = np.eye(3)
        rows.append(force_block)
        rows.append(torque_block)
        rhs.append(sample.wrench.force)
        rhs.append(sample.wrench.torque)
    a = np.vstack(rows)
    b = np.concatenate(rhs)

    _, sing, vt = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(sing > sing[0] * 1e-8))
    if rank < 10:
        null_vectors = vt[rank:]
        involved = sorted({_PARAM_NAMES[i]
                           for vec in null_vectors
                           for i in np.flatnonzero(np.abs(vec) > 0.3)})
        raise IdentificationError(
            "rank-deficient calibration pose set; unobservable directions involve: "
            + ", ".join(involved))

    theta, *_ = np.linalg.lstsq(a, b, rcond=None)
    mass = float(theta[0])
    bias = np.concatenate([theta[1:4], theta[7:10]])
    com = theta[4:7] / mass if abs(mass) > 1e-12 else np.zeros(3)

    residuals = np.array([s.wrench.as_array() for s in samples]) - gravity_model(
        mass, com, bias, np.array([s.orientation for s in samples])).as_array()
    rms = np.sqrt(np.mean(residuals ** 2, axis=0))
    return IdentifiedPayload(max(mass, 0.0), com, bias, rms)


def transform_wrench(wrench: Wrench, transform: Pose, frame: str) -> Wrench:
    """Adjoint wrench map: rotate, then add the lever-arm torque of the
    frame-origin shift."""
    rotation = transform.rotation
    force = (rotation @ wrench.force[..., None])[..., 0]
    torque = (rotation @ wrench.torque[..., None])[..., 0] \
        + cross_rows(transform.translation, force)
    return Wrench(force, torque, frame)


def compensate_wrench(raw: Wrench, payload: IdentifiedPayload,
                      sensor_orientation: np.ndarray,
                      frame: WrenchFrameModel) -> Wrench:
    """w_ee = adjoint(T_sensor_to_ee) (w_raw - w_grav)."""
    grav = gravity_wrench(payload, sensor_orientation)
    net = Wrench(raw.force - grav.force, raw.torque - grav.torque, "sensor")
    return transform_wrench(net, frame.t_sensor_to_ee, "ee")


def marker_motion_magnitude(frame) -> float:
    """L2 norm of the 126-dimensional tactile marker offset vector."""
    offsets = frame.marker_offsets if isinstance(frame, TactileFrame) \
        else TactileFrame(frame).marker_offsets
    return float(np.linalg.norm(offsets))


# ---------------------------------------------------------------------------
# calibration sample and payload files

def save_calibration_csv(path, samples: list) -> None:
    """Rows: rot6d (6 columns) then raw wrench (6 columns)."""
    rows = [np.concatenate([Rot6D.encode(s.orientation).as_array(), s.wrench.as_array()])
            for s in samples]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["r6_0", "r6_1", "r6_2", "r6_3", "r6_4", "r6_5",
                                 "fx", "fy", "fz", "tx", "ty", "tz"])
        write_float_rows(fh, np.array(rows).tolist())


def load_calibration_csv(path) -> list:
    path = Path(path)
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IdentificationError(f"{path}: empty calibration file")
        if len(header) != 12:
            raise IdentificationError(f"{path}: expected 12 columns, got {len(header)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 12:
                raise IdentificationError(f"{path}:{lineno}: expected 12 values")
            values = np.array([float(v) for v in row])
            samples.append(CalibrationSample(Rot6D.from_array(values[:6]).decode(),
                                             Wrench.from_array(values[6:], "sensor")))
    if not samples:
        raise IdentificationError(f"{path}: no calibration rows")
    return samples


def save_payload(path, payload: IdentifiedPayload) -> None:
    cfg = configparser.ConfigParser()
    cfg["payload"] = {
        "mass": repr(payload.mass),
        "com": " ".join(repr(float(v)) for v in payload.com),
        "bias": " ".join(repr(float(v)) for v in payload.bias),
        "residual_rms": " ".join(repr(float(v)) for v in payload.residual_rms),
    }
    with open(path, "w") as fh:
        cfg.write(fh)


def load_payload(path) -> IdentifiedPayload:
    cfg = configparser.ConfigParser()
    if not cfg.read(path):
        raise FileNotFoundError(f"payload file not found: {path}")
    sec = cfg["payload"]
    return IdentifiedPayload(
        float(sec["mass"]),
        np.array([float(v) for v in sec["com"].split()]),
        np.array([float(v) for v in sec["bias"].split()]),
        np.array([float(v) for v in sec["residual_rms"].split()]),
    )
