"""Per-step compliance compilation, the reference for the one-pass
`compliance.compile_step`.

Each executed action step is compiled on its own, in stream order: the
reference pose advances by the step's delta and takes the step's absolute
orientation, the stiffness is scheduled from the step's force, and the
target is displaced by Kp^-1 f. Each step's orientation is checked as it is
decoded, and each target's translation as it is built.
"""

import numpy as np

from contactctl.compliance import ActionStep, ComplianceError, StiffnessSchedule
from contactctl.geometry import GeometryError, Pose, decode_rot6d_rows


def schedule_stiffness(force: np.ndarray, sched: StiffnessSchedule) -> np.ndarray:
    """Stiffness of one 3-vector force."""
    force = np.asarray(force, dtype=float).reshape(3)
    if not np.all(np.isfinite(force)):
        raise ComplianceError("non-finite force")
    frac = np.minimum(np.abs(force) / sched.f_sat, 1.0)
    return sched.k_max - (sched.k_max - sched.k_min) * frac


def compile_virtual_target(ref_pose: Pose, force: np.ndarray,
                           kp_diag: np.ndarray) -> tuple:
    """Displace the reference position by Kp^-1 f; rotation stays the reference's."""
    force = np.asarray(force, dtype=float).reshape(3)
    kp = np.asarray(kp_diag, dtype=float).reshape(3)
    delta_p = np.zeros(3)
    for i in range(3):
        if kp[i] > 0.0:
            delta_p[i] = force[i] / kp[i]
        elif force[i] != 0.0:
            raise ComplianceError(
                f"zero stiffness on axis {i} with nonzero force {force[i]}")
    target = Pose(ref_pose.rotation.copy(), ref_pose.translation - delta_p)
    if not np.all(np.isfinite(target.translation)):
        raise GeometryError(f"pose translation not finite: {target.translation}")
    return target, delta_p


def integrate_reference(prev_ref: Pose, step: ActionStep) -> Pose:
    """Advance the reference: translation accumulates deltas, rotation is the
    step's absolute 6D-encoded orientation."""
    return Pose(decode_rot6d_rows(step.rot6d[:3], step.rot6d[3:]),
                prev_ref.translation + step.delta_xyz)


def compile_one(step: ActionStep, prev_ref: Pose, sched: StiffnessSchedule) -> tuple:
    """((target, kp) command, reference) of one step compiled from the
    previous reference."""
    ref = integrate_reference(prev_ref, step)
    kp = schedule_stiffness(step.force, sched)
    target, _ = compile_virtual_target(ref, step.force, kp)
    return (target, kp), ref


def compile_chunks(chunks: list, horizon: int, start: Pose,
                   sched: StiffnessSchedule) -> list:
    """Commands of the first `horizon` steps of each ActionChunk, in order,
    with the reference carried across chunk seams."""
    commands, ref = [], start
    for chunk in chunks:
        if horizon > len(chunk):
            raise ComplianceError(f"horizon {horizon} exceeds chunk length {len(chunk)}")
        for step in chunk.steps[:horizon]:
            command, ref = compile_one(step, ref, sched)
            commands.append(command)
    return commands
