"""Compliance compiler: policy action rows to controller-facing commands.

An action row carries an end-effector translation delta, an absolute target
orientation in the 6D encoding, a predicted Cartesian interaction force, and
a gripper width. Compilation integrates the reference pose, schedules the
diagonal translational stiffness down as predicted force grows, and displaces
the reference into a virtual target,

    dp = Kp^-1 f,    p_vt = p_ref - dp,    T_vt = (R_ref, p_vt),

so the impedance tracking error implicitly produces the commanded force.
Force never switches a control mode; it only moves the target.

Action streams are (..., n, 13) arrays, and `compile_step` compiles them
into one command stack. `interpolate_commands` blends such stacks entry by
entry, so a batched control loop can upsample every command stream to the
control rate in one call before it starts ticking.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .geometry import (GeometryError, Pose, as_vec3, decode_rot6d_rows,
                       dot_rows, rotation_about_axis, rotation_log)

# serialized action-step layout (the policy/controller boundary)
ACTION_SCHEMA = ("dx", "dy", "dz",
                 "r6_0", "r6_1", "r6_2", "r6_3", "r6_4", "r6_5",
                 "fx", "fy", "fz", "width")


class ComplianceError(ValueError):
    pass


@dataclass
class ActionStep:
    delta_xyz: np.ndarray       # m, reference translation increment
    rot6d: np.ndarray           # absolute target orientation, 6D encoding
    force: np.ndarray           # N, predicted interaction force
    gripper_width: float        # m

    def __post_init__(self):
        self.delta_xyz = np.asarray(self.delta_xyz, dtype=float).reshape(3)
        self.rot6d = np.asarray(self.rot6d, dtype=float).reshape(6)
        self.force = np.asarray(self.force, dtype=float).reshape(3)
        if not np.all(np.isfinite(self.as_array())):
            raise ComplianceError("non-finite action step")
        if self.gripper_width < 0.0:
            raise ComplianceError("gripper width must be nonnegative")

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.delta_xyz, self.rot6d, self.force,
                               [self.gripper_width]])

    @staticmethod
    def from_array(values: np.ndarray) -> "ActionStep":
        values = np.asarray(values, dtype=float).reshape(len(ACTION_SCHEMA))
        return ActionStep(values[0:3], values[3:9], values[9:12], float(values[12]))


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

    def __post_init__(self):
        if not 0.0 < self.k_min <= self.k_max:
            raise ComplianceError("need 0 < k_min <= k_max")
        if not self.f_sat > 0.0:
            raise ComplianceError("f_sat must be positive")


def schedule_stiffness(force: np.ndarray, sched: StiffnessSchedule) -> np.ndarray:
    """Per-axis stiffness of (..., 3) forces, non-increasing in predicted force."""
    force = as_vec3(force)
    if not np.isfinite(force).all():
        raise ComplianceError("non-finite force")
    frac = np.minimum(np.abs(force) / sched.f_sat, 1.0)
    return sched.k_max - (sched.k_max - sched.k_min) * frac


def compile_step(actions: np.ndarray, start: Pose,
                 sched: StiffnessSchedule) -> tuple:
    """One command per row of (..., n, 13) action streams, executed in row
    order from the `start` reference: the (target, kp) pair of the virtual
    targets, a Pose of (..., n, 3, 3) rotations and (..., n, 3) positions,
    and the (..., n, 3) diagonal stiffness in N/m.

    The reference translation accumulates the rows' deltas from the start's,
    the reference rotation is each row's absolute 6D orientation, and the
    target sits Kp^-1 f from the reference. A row gets the bits, and fails
    the checks, of compiling the stream one row at a time.
    """
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    if actions.shape[-1] != len(ACTION_SCHEMA):
        raise ComplianceError(f"action rows need 13 columns, got {actions.shape[-1]}")
    rotation = decode_rot6d_rows(actions[..., 3:6], actions[..., 6:9])
    first = np.broadcast_to(start.translation, actions.shape[:-2] + (1, 3))
    ref = np.cumsum(np.concatenate([first, actions[..., :3]], axis=-2),
                    axis=-2)[..., 1:, :]
    force = actions[..., 9:12]
    kp = schedule_stiffness(force, sched)
    target = ref - force / kp
    if not np.isfinite(target).all():
        raise GeometryError("pose translation not finite")
    return Pose(rotation, target), kp


def interpolate_commands(prev: tuple, nxt: tuple,
                         frac: float | np.ndarray) -> tuple:
    """Blend two successive (target, kp) commands for execution at a faster
    control rate.

    Positions and stiffness interpolate linearly, orientation along the
    geodesic; frac = 1 returns `nxt` exactly. Keeps a staircase command
    stream from exciting the plant at the action rate. Stacked commands
    blend entry by entry, with one shared frac or a frac per entry (an
    array shaped like the stack); each entry gets the bits of blending it
    alone.
    """
    (target_prev, kp_prev), (target_next, kp_next) = prev, nxt
    frac = np.clip(frac, 0.0, 1.0)
    r_prev = target_prev.rotation
    r_next = target_next.rotation
    # equal orientations need no geodesic (their log is below 1e-12 anyway)
    rot = r_next
    if not (r_prev == r_next).all():
        rel = rotation_log(r_prev.swapaxes(-1, -2) @ r_next)
        angle = np.sqrt(dot_rows(rel, rel))
        turning = angle > 1e-12
        if turning.any():
            axis = rel / np.where(turning, angle, 1.0)[..., None]
            turned = r_prev @ rotation_about_axis(axis, frac * angle)
            rot = np.where(turning[..., None, None], turned, r_next)
    vec_frac = frac[..., None]
    pos = (1.0 - vec_frac) * target_prev.translation \
        + vec_frac * target_next.translation
    kp = (1.0 - vec_frac) * kp_prev + vec_frac * kp_next
    return Pose(rot, pos), kp


class RecedingHorizonScheduler:
    """Execute a prefix of each chunk, then switch to the next.

    Iterating yields (index in the replayed stream, row) for the first
    `horizon` rows of each (chunk_len, 13) chunk, chunks laid end to end.
    """

    def __init__(self, chunks: Iterable, horizon: int):
        if horizon < 1:
            raise ComplianceError("horizon must be >= 1")
        self._chunks = iter(chunks)
        self.horizon = horizon

    def __iter__(self) -> Iterator[tuple]:
        start = 0
        for chunk in self._chunks:
            if self.horizon > len(chunk):
                raise ComplianceError(
                    f"horizon {self.horizon} exceeds chunk length {len(chunk)}")
            for k in range(self.horizon):
                yield start + k, chunk[k]
            start += len(chunk)
