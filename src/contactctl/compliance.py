"""Compliance compiler: policy action steps to controller-facing commands.

An action step carries an end-effector translation delta, an absolute target
orientation in the 6D encoding, a predicted Cartesian interaction force, and
a gripper width. Compilation integrates the reference pose, schedules the
diagonal translational stiffness down as predicted force grows, and displaces
the reference into a virtual target,

    dp = Kp^-1 f,    p_vt = p_ref - dp,    T_vt = (R_ref, p_vt),

so the impedance tracking error implicitly produces the commanded force.
Force never switches a control mode; it only moves the target.

A command's fields may carry leading axes. `interpolate_commands` blends
such stacks entry by entry, so a batched control loop can upsample every
command stream to the control rate in one call before it starts ticking.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .geometry import (Pose, Rot6D, as_vec3, dot_rows, pose_unchecked,
                       rotation_about_axis, rotation_log_between)

# serialized action-step layout (the policy/controller boundary)
ACTION_SCHEMA = ("dx", "dy", "dz",
                 "r6_0", "r6_1", "r6_2", "r6_3", "r6_4", "r6_5",
                 "fx", "fy", "fz", "width")


class ComplianceError(ValueError):
    pass


@dataclass
class ActionStep:
    delta_xyz: np.ndarray       # m, reference translation increment
    rot6d: Rot6D                # absolute target orientation
    force: np.ndarray           # N, predicted interaction force
    gripper_width: float        # m

    def __post_init__(self):
        self.delta_xyz = np.asarray(self.delta_xyz, dtype=float).reshape(3)
        self.force = np.asarray(self.force, dtype=float).reshape(3)
        values = np.concatenate([self.delta_xyz, self.rot6d.as_array(),
                                 self.force, [self.gripper_width]])
        if not np.all(np.isfinite(values)):
            raise ComplianceError("non-finite action step")
        if self.gripper_width < 0.0:
            raise ComplianceError("gripper width must be nonnegative")

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.delta_xyz, self.rot6d.as_array(),
                               self.force, [self.gripper_width]])

    @staticmethod
    def from_array(values: np.ndarray) -> "ActionStep":
        values = np.asarray(values, dtype=float).reshape(len(ACTION_SCHEMA))
        return ActionStep(values[0:3], Rot6D.from_array(values[3:9]),
                          values[9:12], float(values[12]))


@dataclass
class ActionChunk:
    steps: list

    def __post_init__(self):
        if len(self.steps) < 1:
            raise ComplianceError("action chunk must contain at least one step")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class StiffnessSchedule:
    """Linear per-axis ramp from k_max at zero force to k_min at f_sat."""

    k_max: float = 2000.0
    k_min: float = 200.0
    f_sat: float = 20.0
    per_axis: bool = True   # False: schedule every axis from ||f||

    def __post_init__(self):
        if not 0.0 < self.k_min <= self.k_max:
            raise ComplianceError("need 0 < k_min <= k_max")
        if not self.f_sat > 0.0:
            raise ComplianceError("f_sat must be positive")


@dataclass
class ComplianceCommand:
    """One command, or a stack of them with (..., 3, 3) and (..., 3) fields."""

    virtual_target: Pose
    kp_diag: np.ndarray          # N/m

    def __post_init__(self):
        self.kp_diag = as_vec3(self.kp_diag)


def schedule_stiffness(force: np.ndarray, sched: StiffnessSchedule) -> np.ndarray:
    """Per-axis stiffness, monotonically non-increasing in predicted force."""
    force = np.asarray(force, dtype=float).reshape(3)
    if not np.all(np.isfinite(force)):
        raise ComplianceError("non-finite force")
    if sched.per_axis:
        load = np.abs(force)
    else:
        load = np.full(3, np.linalg.norm(force))
    frac = np.minimum(load / sched.f_sat, 1.0)
    return sched.k_max - (sched.k_max - sched.k_min) * frac


def compile_virtual_target(ref_pose: Pose, force: np.ndarray,
                           kp_diag: np.ndarray) -> tuple[Pose, np.ndarray]:
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
    return target, delta_p


def integrate_reference(prev_ref: Pose, step: ActionStep) -> Pose:
    """Advance the reference: translation accumulates deltas, rotation is the
    step's absolute 6D-encoded orientation."""
    return Pose(step.rot6d.decode(), prev_ref.translation + step.delta_xyz)


def compile_step(step: ActionStep, prev_ref: Pose,
                 sched: StiffnessSchedule) -> tuple[ComplianceCommand, Pose]:
    ref = integrate_reference(prev_ref, step)
    kp = schedule_stiffness(step.force, sched)
    target, _ = compile_virtual_target(ref, step.force, kp)
    return ComplianceCommand(target, kp), ref


def interpolate_commands(prev: ComplianceCommand, nxt: ComplianceCommand,
                         frac: float | np.ndarray) -> ComplianceCommand:
    """Blend two successive commands for execution at a faster control rate.

    Positions and stiffness interpolate linearly, orientation along the
    geodesic; frac = 1 returns `nxt` exactly. Keeps a staircase command
    stream from exciting the plant at the action rate. Stacked commands
    blend entry by entry, with one shared frac or a frac per entry (an
    array shaped like the stack); each entry gets the bits of blending it
    alone.
    """
    frac = np.clip(frac, 0.0, 1.0)
    r_prev = prev.virtual_target.rotation
    r_next = nxt.virtual_target.rotation
    # equal orientations need no geodesic (their log is below 1e-12 anyway)
    rot = r_next
    if not (r_prev == r_next).all():
        rel = rotation_log_between(r_prev, r_next)
        angle = np.sqrt(dot_rows(rel, rel))
        turning = angle > 1e-12
        if turning.any():
            axis = rel / np.where(turning, angle, 1.0)[..., None]
            turned = r_prev @ rotation_about_axis(axis, frac * angle)
            rot = np.where(turning[..., None, None], turned, r_next)
    vec_frac = frac[..., None]
    pos = (1.0 - vec_frac) * prev.virtual_target.translation \
        + vec_frac * nxt.virtual_target.translation
    kp = (1.0 - vec_frac) * prev.kp_diag + vec_frac * nxt.kp_diag
    # a product of validated rotations needs no re-validation
    return ComplianceCommand(pose_unchecked(rot, pos), kp)


class RecedingHorizonScheduler:
    """Consume a prefix of each chunk, then switch to the next.

    The integrated reference pose carries across chunk boundaries, so the
    compiled command stream never jumps by more than one step's delta at a
    seam.
    """

    def __init__(self, chunks: Iterable, execute_horizon: int, start_ref: Pose,
                 sched: StiffnessSchedule):
        if execute_horizon < 1:
            raise ComplianceError("execute_horizon must be >= 1")
        self._chunks = iter(chunks)
        self.horizon = execute_horizon
        self._ref = start_ref
        self._sched = sched

    def __iter__(self) -> Iterator[ComplianceCommand]:
        for chunk in self._chunks:
            if self.horizon > len(chunk):
                raise ComplianceError(
                    f"execute_horizon {self.horizon} exceeds chunk length {len(chunk)}")
            for step in chunk.steps[:self.horizon]:
                command, self._ref = compile_step(step, self._ref, self._sched)
                yield command
