"""Force/torque wrench pipeline and the tactile marker-motion metric.

Payload identification fits {mass, center of mass, constant bias} to static
readings taken at several sensor orientations. The model is linear once the
COM is folded into s = mass * com:

    force  = (R^T g) m            + bias_f
    torque = -skew(R^T g) s       + bias_t

so a single least-squares solve recovers all ten parameters. Compensation
subtracts the fitted gravity wrench. The sensor is collocated with the
end-effector, so the remainder is the end-effector wrench as it stands.

Wrenches are (..., 6) arrays, force then torque. Gravity and compensation
give one result per row of (..., 3, 3) orientation and (..., 6) wrench
stacks, with the same bits as one call per row.
"""

from dataclasses import dataclass, field
from pathlib import Path
import configparser
import csv

import numpy as np

from .episodes import write_float_rows
from .geometry import (GRAVITY_WORLD, cross_rows, decode_rot6d_rows, dot_rows,
                       encode_rot6d_rows)

MARKER_DIM = 126   # 63 tactile markers x 2D offsets

_PARAM_NAMES = ("mass",
                "force_bias_x", "force_bias_y", "force_bias_z",
                "mass_com_x", "mass_com_y", "mass_com_z",
                "torque_bias_x", "torque_bias_y", "torque_bias_z")


class IdentificationError(ValueError):
    """Calibration pose set does not determine the payload parameters."""


@dataclass
class Payload:
    """A rigid payload at the F/T sensor: mass, center of mass and constant
    bias in the sensor frame, plus the per-axis fit residual when it was
    identified from calibration readings. Every number is finite and the
    mass nonnegative."""

    mass: float
    com: np.ndarray
    bias: np.ndarray
    residual_rms: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def __post_init__(self):
        if not 0.0 <= self.mass < np.inf:   # NaN fails too
            raise ValueError(f"payload mass must be nonnegative and finite, got {self.mass}")
        for name, count in (("com", 3), ("bias", 6), ("residual_rms", 6)):
            value = np.asarray(getattr(self, name), dtype=float).ravel()
            if value.size != count or not np.isfinite(value).all():
                raise ValueError(f"payload {name} needs {count} finite numbers, got {value}")
            setattr(self, name, value)


def gravity_model(mass: float, com: np.ndarray, bias: np.ndarray,
                  orientation: np.ndarray) -> np.ndarray:
    """Sensor-frame wrench (..., 6) a rigid payload induces at orientation R."""
    orientation = np.asarray(orientation, dtype=float)
    com = np.asarray(com, dtype=float).reshape(3)
    bias = np.asarray(bias, dtype=float).reshape(6)
    force = orientation.swapaxes(-1, -2) @ (mass * GRAVITY_WORLD)
    torque = cross_rows(com, force)
    return np.concatenate([force + bias[:3], torque + bias[3:]], axis=-1)


def identify_payload(orientations: np.ndarray, readings: np.ndarray) -> Payload:
    """Least-squares fit of {mass, com, bias} to static calibration readings.

    `orientations` is a (P, 3, 3) stack of sensor orientations in the world
    frame and `readings` the (P, 6) raw wrenches taken there. Raises
    IdentificationError when the pose set leaves parameter directions
    unobservable (e.g. all poses at one orientation), naming the deficient
    subspace.
    """
    orientations = np.asarray(orientations, dtype=float)
    readings = np.asarray(readings, dtype=float)
    if len(orientations) < 4:
        raise IdentificationError("need at least 4 calibration poses")
    u = orientations.swapaxes(-1, -2) @ GRAVITY_WORLD
    x, y, z = u.T
    zero = np.full_like(x, -0.0)   # negating skew(u)'s 0.0 diagonal gives -0.0
    neg_skew = np.stack([zero, z, -y, -z, zero, x, y, -x, zero], axis=-1)
    # per pose: force rows [u, I, 0, 0], torque rows [0, 0, -skew(u), I]
    a = np.zeros((len(u), 6, 10))
    a[:, :3, 0] = u
    a[:, :3, 1:4] = a[:, 3:, 7:10] = np.eye(3)
    a[:, 3:, 4:7] = neg_skew.reshape(-1, 3, 3)
    a = a.reshape(-1, 10)

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

    theta, *_ = np.linalg.lstsq(a, readings.reshape(-1), rcond=None)
    mass = float(theta[0])
    bias = np.concatenate([theta[1:4], theta[7:10]])
    com = theta[4:7] / mass if abs(mass) > 1e-12 else np.zeros(3)

    residuals = readings - gravity_model(mass, com, bias, orientations)
    rms = np.sqrt(np.mean(residuals ** 2, axis=0))
    return Payload(max(mass, 0.0), com, bias, rms)


def compensate_wrench(raw: np.ndarray, payload: Payload,
                      sensor_orientation: np.ndarray) -> np.ndarray:
    """End-effector wrench w_raw - w_grav of (..., 6) sensor-frame readings."""
    return raw - gravity_model(payload.mass, payload.com, payload.bias,
                               sensor_orientation)


def marker_motion_magnitude(offsets: np.ndarray) -> np.ndarray:
    """L2 norms of (..., 126) tactile marker offset vectors, one per row;
    each row gets the bits of np.linalg.norm of that row alone."""
    offsets = np.asarray(offsets, dtype=float)
    if offsets.shape[-1:] != (MARKER_DIM,):
        raise ValueError(f"tactile frame must have {MARKER_DIM} values, "
                         f"got shape {offsets.shape}")
    return np.sqrt(dot_rows(offsets, offsets))


# ---------------------------------------------------------------------------
# calibration sample and payload files

def save_calibration_csv(path, orientations: np.ndarray, readings: np.ndarray) -> None:
    """Rows: rot6d (6 columns) then raw wrench (6 columns)."""
    rows = np.concatenate([encode_rot6d_rows(orientations),
                           np.asarray(readings, dtype=float)], axis=1)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["r6_0", "r6_1", "r6_2", "r6_3", "r6_4", "r6_5",
                                 "fx", "fy", "fz", "tx", "ty", "tz"])
        write_float_rows(fh, rows)


def load_calibration_csv(path) -> tuple:
    """(orientations (P, 3, 3), readings (P, 6)) of a calibration file.

    Every value must be a finite number; an error names its line.
    """
    path = Path(path)
    orientations, readings = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IdentificationError(f"{path}: empty calibration file")
        if len(header) != 12:
            raise IdentificationError(f"{path}: expected 12 columns, got {len(header)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                if len(row) != 12:
                    raise ValueError("expected 12 values")
                values = np.array([float(v) for v in row])
                if not np.isfinite(values).all():
                    raise ValueError("values must be finite")
                orientations.append(decode_rot6d_rows(values[:3], values[3:6]))
            except ValueError as exc:
                raise IdentificationError(f"{path}:{lineno}: {exc}") from None
            readings.append(values[6:])
    if not readings:
        raise IdentificationError(f"{path}: no calibration rows")
    return np.array(orientations), np.array(readings)


def save_payload(path, payload: Payload) -> None:
    cfg = configparser.ConfigParser()
    cfg["payload"] = {
        "mass": repr(payload.mass),
        "com": " ".join(repr(float(v)) for v in payload.com),
        "bias": " ".join(repr(float(v)) for v in payload.bias),
        "residual_rms": " ".join(repr(float(v)) for v in payload.residual_rms),
    }
    with open(path, "w") as fh:
        cfg.write(fh)


def load_payload(path) -> Payload:
    """The payload a `save_payload` file holds. A file that is not INI text or
    a value that is not a number is a ValueError naming the file; a missing
    section or key, or a value `Payload` rejects, names that one too."""
    cfg = configparser.ConfigParser()
    try:
        if not cfg.read(path):
            raise FileNotFoundError(f"payload file not found: {path}")
        text = [cfg.get("payload", key) for key in ("mass", "com", "bias", "residual_rms")]
    except configparser.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    try:
        return Payload(float(text[0]), *(np.array([float(v) for v in t.split()])
                                         for t in text[1:]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
