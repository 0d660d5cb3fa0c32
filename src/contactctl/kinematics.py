"""Serial-chain kinematics: FK, geometric Jacobian, and damped-least-squares IK.

A chain is an ordered list of revolute joints, held as arrays with one row
per joint: a unit rotation axis in the joint's own frame, a fixed offset
transform from the parent frame, and joint limits; an optional tool offset
places the end-effector after the last joint. Joint limits are enforced by
the iterative solver, not by the single-step update. Chain files are read by
`dynamics.load_arm_model`.

`chain_frames`, `ChainFrames.jacobian`, `pose_error` and `dls_step` take a
leading trial axis: joint vectors (..., n) give frames, Jacobians (..., 6, n)
and errors (..., 6) with the same leading axes, one row per trial.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import (Pose, check_rotations, cross_rows, rodrigues,
                       rotation_log, skew_rows)

AXIS_UNIT_TOL = 1e-9


class ChainConfigError(ValueError):
    """Malformed chain definition (file or constructor input)."""


@dataclass
class ChainModel:
    """Serial chain of n revolute joints with per-joint limits and a tool offset.

    The joint arrays are read-only, so the constants of the forward pass,
    built from them once at construction, always match them.
    """

    axes: np.ndarray                  # (n, 3) unit axes in the joint frames
    offset_rotations: np.ndarray      # (n, 3, 3) fixed rotation from the parent
    offset_translations: np.ndarray   # (n, 3) fixed translation from the parent
    joint_limits: np.ndarray          # (n, 2) min, max
    tool_offset: Pose = field(default_factory=Pose.identity)
    name: str = "chain"

    def __post_init__(self):
        axes = np.array(self.axes, dtype=float).reshape(-1, 3)
        n = len(axes)
        if n < 1:
            raise ChainConfigError("chain needs at least one joint")
        # written as `not ...` so that a non-finite axis fails too
        unit = np.abs(np.linalg.norm(axes, axis=1) - 1.0) <= AXIS_UNIT_TOL
        if not unit.all():
            raise ChainConfigError(f"joint axis {axes[np.argmin(unit)]} is not unit norm")
        rotations = np.array(self.offset_rotations, dtype=float).reshape(n, 3, 3)
        check_rotations(rotations)
        translations = np.array(self.offset_translations, dtype=float).reshape(n, 3)
        if not np.isfinite(translations).all():
            raise ChainConfigError(f"joint offset translation not finite: {translations}")
        tool = Pose(np.array(self.tool_offset.rotation, dtype=float).reshape(3, 3),
                    np.array(self.tool_offset.translation, dtype=float).reshape(3))
        check_rotations(tool.rotation)
        if not np.isfinite(tool.translation).all():
            raise ChainConfigError(f"tool offset translation not finite: {tool.translation}")
        limits = np.array(self.joint_limits, dtype=float).reshape(n, 2)
        # written as `not ...` so that NaN limits fail too
        if not np.all(limits[:, 0] < limits[:, 1]):
            raise ChainConfigError("joint limits must satisfy min < max")
        for a in (axes, rotations, translations, limits):
            a.flags.writeable = False
        self.axes, self.offset_rotations = axes, rotations
        self.offset_translations, self.joint_limits = translations, limits
        self.tool_offset = tool
        self.skews = skew_rows(axes)                        # (n, 3, 3) skew(axis)
        self.outers = axes[:, :, None] * axes[:, None, :]   # (n, 3, 3) axis axis^T
        # per joint: its offset rotation, or None for the identity, whose
        # product r @ I could flip the sign of a zero
        self.turn_offsets = [None if np.array_equal(r, np.eye(3)) else r
                             for r in rotations]

    @property
    def dof(self) -> int:
        return len(self.axes)

    def clamp_to_limits(self, q: np.ndarray) -> np.ndarray:
        limits = self.joint_limits
        return np.minimum(np.maximum(q, limits[:, 0]), limits[:, 1])


@dataclass
class ChainFrames:
    """World-frame quantities of every joint, computed in one forward pass.

    For a batch of joint vectors every array carries the batch's leading
    axes, and `ee_pose` holds (..., 3, 3) rotations and (..., 3) positions.
    """

    joint_origins: np.ndarray    # (..., dof, 3)
    joint_axes: np.ndarray       # (..., dof, 3) world-frame rotation axes
    link_rotations: np.ndarray   # (..., dof, 3, 3) world rotation of each link frame
    ee_pose: Pose

    @cached_property
    def jacobian(self) -> np.ndarray:
        """Geometric Jacobian at the end-effector, rows [linear; angular].

        Column i for a revolute joint is [axis_i x (p_ee - p_i); axis_i] with
        all quantities in the world frame. Built once per forward pass and
        shared by every reader of these frames, so it is read-only.
        """
        axes = self.joint_axes
        lever = self.ee_pose.translation[..., None, :] - self.joint_origins
        j = np.empty(axes.shape[:-2] + (6, axes.shape[-2]))
        j[..., :3, :] = cross_rows(axes, lever).swapaxes(-1, -2)
        j[..., 3:, :] = axes.swapaxes(-1, -2)
        j.flags.writeable = False
        return j


def _check_q(chain: ChainModel, q: np.ndarray) -> np.ndarray:
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.shape[-1] != chain.dof:
        raise ChainConfigError(f"expected {chain.dof} joint values, got {q.shape[-1]}")
    return q


def chain_frames(chain: ChainModel, q: np.ndarray) -> ChainFrames:
    """Forward pass returning world joint origins, axes, and link rotations.

    The joint rotations of every joint (and row) come from one Rodrigues
    evaluation; only the product down the chain loops over the joints.
    """
    q = _check_q(chain, q)
    turns = rodrigues(np.cos(q), np.sin(q), chain.skews, chain.outers)
    shape = q.shape + (3, 3)
    # frame each joint turns in (parent link after the fixed offset), and link
    turning = np.empty(shape)
    rotations = np.empty(shape)
    r = np.eye(3)
    for i, offset in enumerate(chain.turn_offsets):
        turning[..., i, :, :] = r if offset is None else r @ offset
        r = np.matmul(turning[..., i, :, :], turns[..., i, :, :],
                      out=rotations[..., i, :, :])
    # origin_i = origin_{i-1} + R_{i-1} offset_i, with R_{-1} = I
    steps = np.empty(q.shape + (3,))
    steps[..., 0, :] = chain.offset_translations[0]
    steps[..., 1:, :] = (rotations[..., :-1, :, :]
                         @ chain.offset_translations[1:, :, None])[..., 0]
    origins = np.cumsum(steps, axis=-2)
    axes = (turning @ chain.axes[:, :, None])[..., 0]
    tool = chain.tool_offset
    p_ee = r @ tool.translation + origins[..., -1, :]
    r_ee = r @ tool.rotation
    return ChainFrames(origins, axes, rotations, Pose(r_ee, p_ee))


def pose_error(target: Pose, current: Pose) -> np.ndarray:
    """Task-space error 6-vector: [translation diff; rotation-log of R_t R_c^T]."""
    return np.concatenate(
        (target.translation - current.translation,
         rotation_log(target.rotation @ current.rotation.swapaxes(-1, -2))),
        axis=-1)


_DIAG6 = np.arange(6)


def dls_step(j: np.ndarray, xi: np.ndarray, lam: float) -> np.ndarray:
    """Damped-least-squares update: dq = J^T (J J^T + lam^2 I)^-1 xi.

    The damping term keeps the solve well-posed at singularities.
    """
    if lam <= 0.0:
        raise ValueError("damping must be positive")
    jt = j.swapaxes(-1, -2)
    jjt = j @ jt
    jjt[..., _DIAG6, _DIAG6] += lam * lam
    return (jt @ np.linalg.solve(jjt, xi[..., None]))[..., 0]


@dataclass
class IKResult:
    q: np.ndarray
    converged: bool
    iterations: int
    error_norm: float


def solve_ik(chain: ChainModel, q0: np.ndarray, target: Pose,
             lam: float, max_iters: int, tol: float) -> IKResult:
    """Iterate dls_step with joint-limit clamping until ||xi|| < tol.

    Each step is backtracked (halved) until it does not increase ||xi||,
    which kills the two-cycle the raw update falls into on unreachable
    targets. Non-convergence is reported in the result, not raised; the
    returned q is the last (clamped) iterate either way.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    q = chain.clamp_to_limits(_check_q(chain, q0))
    frames = chain_frames(chain, q)
    xi = pose_error(target, frames.ee_pose)
    err_norm = float(np.linalg.norm(xi))
    iterations = 0
    for it in range(max_iters):
        if err_norm < tol:
            return IKResult(q, True, it, err_norm)
        iterations = it + 1
        dq = dls_step(frames.jacobian, xi, lam)
        scale = 1.0
        while True:
            q_try = chain.clamp_to_limits(q + scale * dq)
            frames_try = chain_frames(chain, q_try)
            xi_try = pose_error(target, frames_try.ee_pose)
            err_try = float(np.linalg.norm(xi_try))
            if err_try <= err_norm or scale < 1.0 / 1024.0:
                break
            scale *= 0.5
        step_size = float(np.max(np.abs(q_try - q)))
        q, frames, xi, err_norm = q_try, frames_try, xi_try, err_try
        if step_size < 1e-14:
            break   # stationary: no progress possible at any scale
    return IKResult(q, err_norm < tol, iterations, err_norm)
