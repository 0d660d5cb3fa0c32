"""Serial-chain kinematics: FK, geometric Jacobian, and damped-least-squares IK.

A chain is an ordered list of revolute joints. Each joint carries a fixed
offset transform from its parent frame and a unit rotation axis expressed in
the joint's own frame; an optional tool offset places the end-effector after
the last joint. Joint limits are enforced by the iterative solver, not by the
single-step update.
"""

import configparser
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .geometry import (Pose, Rot6D, cross_rows, pose_unchecked,
                       rotation_about_axis, rotation_log)

DEFAULT_DAMPING = 0.05

AXIS_UNIT_TOL = 1e-9


class ChainConfigError(ValueError):
    """Malformed chain definition (file or constructor input)."""


@dataclass
class ChainLink:
    """One revolute joint: unit axis in the joint frame, fixed parent offset."""

    axis: np.ndarray
    offset: Pose
    joint_type: str = "revolute"

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float).reshape(3)
        if abs(np.linalg.norm(self.axis) - 1.0) > AXIS_UNIT_TOL:
            raise ChainConfigError(f"joint axis {self.axis} is not unit norm")
        if self.joint_type != "revolute":
            raise ChainConfigError(f"unsupported joint type {self.joint_type!r}")


@dataclass
class ChainModel:
    """Serial chain of revolute joints with per-joint limits and a tool offset."""

    links: list
    joint_limits: np.ndarray
    tool_offset: Pose = field(default_factory=Pose.identity)
    name: str = "chain"

    def __post_init__(self):
        if len(self.links) < 1:
            raise ChainConfigError("chain needs at least one joint")
        self.joint_limits = np.asarray(self.joint_limits, dtype=float).reshape(len(self.links), 2)
        if np.any(self.joint_limits[:, 0] >= self.joint_limits[:, 1]):
            raise ChainConfigError("joint limits must satisfy min < max")

    @property
    def dof(self) -> int:
        return len(self.links)

    def clamp_to_limits(self, q: np.ndarray) -> np.ndarray:
        return np.clip(q, self.joint_limits[:, 0], self.joint_limits[:, 1])


@dataclass
class ChainFrames:
    """World-frame quantities of every joint, computed in one forward pass."""

    joint_origins: np.ndarray    # (dof, 3)
    joint_axes: np.ndarray       # (dof, 3) world-frame rotation axes
    link_rotations: np.ndarray   # (dof, 3, 3) world rotation of each link frame
    ee_pose: Pose

    @cached_property
    def jacobian(self) -> np.ndarray:
        """Geometric Jacobian at the end-effector, rows [linear; angular].

        Column i for a revolute joint is [axis_i x (p_ee - p_i); axis_i] with
        all quantities in the world frame. Built once per forward pass and
        shared by every reader of these frames, so it is read-only.
        """
        axes = self.joint_axes
        j = np.empty((6, len(axes)))
        j[:3] = cross_rows(axes, self.ee_pose.translation - self.joint_origins).T
        j[3:] = axes.T
        j.flags.writeable = False
        return j


def _check_q(chain: ChainModel, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape[0] != chain.dof:
        raise ChainConfigError(f"expected {chain.dof} joint values, got {q.shape[0]}")
    return q


def chain_frames(chain: ChainModel, q: np.ndarray) -> ChainFrames:
    """Forward pass returning world joint origins, axes, and link rotations."""
    q = _check_q(chain, q)
    n = chain.dof
    origins = np.zeros((n, 3))
    axes = np.zeros((n, 3))
    rotations = np.zeros((n, 3, 3))
    r = np.eye(3)
    p = np.zeros(3)
    for i, link in enumerate(chain.links):
        p = r @ link.offset.translation + p
        r = r @ link.offset.rotation
        origins[i] = p
        axes[i] = r @ link.axis
        r = r @ rotation_about_axis(link.axis, q[i])
        rotations[i] = r
    tool = chain.tool_offset
    p_ee = r @ tool.translation + p
    r_ee = r @ tool.rotation
    return ChainFrames(origins, axes, rotations, pose_unchecked(r_ee, p_ee))


def forward_kinematics(chain: ChainModel, q: np.ndarray) -> Pose:
    """End-effector pose as the composed product of link transforms."""
    return chain_frames(chain, q).ee_pose


def jacobian(chain: ChainModel, q: np.ndarray) -> np.ndarray:
    """Geometric Jacobian at the end-effector, rows [linear; angular]."""
    return chain_frames(chain, q).jacobian


def pose_error(target: Pose, current: Pose) -> np.ndarray:
    """Task-space error 6-vector: [translation diff; rotation-log of R_t R_c^T]."""
    xi = np.empty(6)
    xi[:3] = target.translation - current.translation
    xi[3:] = rotation_log(target.rotation @ current.rotation.T)
    return xi


def dls_step(j: np.ndarray, xi: np.ndarray, lam: float) -> np.ndarray:
    """Damped-least-squares update: dq = J^T (J J^T + lam^2 I)^-1 xi.

    The damping term keeps the solve well-posed at singularities.
    """
    if lam <= 0.0:
        raise ValueError("damping must be positive")
    jjt = j @ j.T
    jjt[np.diag_indices(6)] += lam * lam
    return j.T @ np.linalg.solve(jjt, xi)


def dls_ik_step(chain: ChainModel, q: np.ndarray, target: Pose,
                lam: float = DEFAULT_DAMPING) -> np.ndarray:
    """One dls_step toward `target` from q.

    The caller forms q_d = q + dq (and clamps to limits if it cares about them).
    """
    frames = chain_frames(chain, q)
    return dls_step(frames.jacobian, pose_error(target, frames.ee_pose), lam)


@dataclass
class IKResult:
    q: np.ndarray
    converged: bool
    iterations: int
    limited: bool        # any joint clamped at its limit on the final iterate
    error_norm: float


def solve_ik(chain: ChainModel, q0: np.ndarray, target: Pose,
             lam: float = DEFAULT_DAMPING, max_iters: int = 100,
             tol: float = 1e-6) -> IKResult:
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
    limited = False
    iterations = 0
    for it in range(max_iters):
        if err_norm < tol:
            return IKResult(q, True, it, limited, err_norm)
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
        limited = bool(np.any(q_try != q + scale * dq))
        q, frames, xi, err_norm = q_try, frames_try, xi_try, err_try
        if step_size < 1e-14:
            break   # stationary: no progress possible at any scale
    return IKResult(q, err_norm < tol, iterations, limited, err_norm)


# ---------------------------------------------------------------------------
# chain config files

def _parse_vector(text: str, n: int, what: str) -> np.ndarray:
    parts = text.replace(",", " ").split()
    if len(parts) != n:
        raise ChainConfigError(f"{what}: expected {n} numbers, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ChainConfigError(f"{what}: {exc}") from exc


def _parse_pose(section, prefix: str, what: str) -> Pose:
    trans = _parse_vector(section.get(f"{prefix}translation", "0 0 0"), 3, what)
    rot6d = _parse_vector(section.get(f"{prefix}rot6d", "1 0 0 0 1 0"), 6, what)
    return Pose(Rot6D.from_array(rot6d).decode(), trans)


def load_chain(path) -> ChainModel:
    """Load a chain from a key-value config file (see docs/formats.md)."""
    path = Path(path)
    if not path.exists():
        raise ChainConfigError(f"chain config not found: {path}")
    cfg = configparser.ConfigParser()
    try:
        cfg.read(path)
    except configparser.Error as exc:
        raise ChainConfigError(f"{path}: {exc}") from exc
    if "chain" not in cfg:
        raise ChainConfigError(f"{path}: missing [chain] section")
    joint_sections = sorted((s for s in cfg.sections() if s.startswith("joint.")),
                            key=lambda s: int(s.split(".", 1)[1]))
    if not joint_sections:
        raise ChainConfigError(f"{path}: no [joint.N] sections")
    links = []
    limits = []
    for name in joint_sections:
        sec = cfg[name]
        if "axis" not in sec:
            raise ChainConfigError(f"{path} [{name}]: missing axis")
        axis = _parse_vector(sec["axis"], 3, f"{name} axis")
        norm = np.linalg.norm(axis)
        if norm < 1e-12:
            raise ChainConfigError(f"{path} [{name}]: zero axis")
        links.append(ChainLink(axis / norm, _parse_pose(sec, "offset_", f"{name} offset")))
        limits.append(_parse_vector(sec.get("limits", "-6.2832 6.2832"), 2, f"{name} limits"))
    tool = _parse_pose(cfg["chain"], "tool_", "tool offset")
    return ChainModel(links, np.array(limits), tool, cfg["chain"].get("name", path.stem))
