"""Per-pose payload identification, the reference for the stacked
`sensing.identify_payload`.

The 6P x 10 design matrix is built one pose at a time: a force block
[u, I, 0, 0] and a torque block [0, 0, -skew(u), I] with u = R^T g, each
stacked in pose order, as is the right-hand side. The solve, the rank check
and the residuals are those of `identify_payload`.
"""

import numpy as np

from contactctl.geometry import GRAVITY_WORLD, skew
from contactctl.sensing import (_PARAM_NAMES, IdentificationError, Payload,
                                gravity_model)


def identify_payload(orientations, readings) -> Payload:
    if len(orientations) < 4:
        raise IdentificationError("need at least 4 calibration poses")
    rows = []
    rhs = []
    for r, reading in zip(orientations, readings):
        r = np.asarray(r, dtype=float)
        u = r.T @ GRAVITY_WORLD
        force_block = np.zeros((3, 10))
        force_block[:, 0] = u
        force_block[:, 1:4] = np.eye(3)
        torque_block = np.zeros((3, 10))
        torque_block[:, 4:7] = -skew(u)
        torque_block[:, 7:10] = np.eye(3)
        rows.append(force_block)
        rows.append(torque_block)
        rhs.append(reading[:3])
        rhs.append(reading[3:])
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

    residuals = np.asarray(readings, dtype=float) - gravity_model(
        mass, com, bias, np.asarray(orientations, dtype=float)).as_array()
    rms = np.sqrt(np.mean(residuals ** 2, axis=0))
    return Payload(max(mass, 0.0), com, bias, rms)
