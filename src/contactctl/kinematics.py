"""Serial-chain kinematics: FK, geometric Jacobian, and damped-least-squares IK.

A chain is an ordered list of revolute joints. Each joint carries a fixed
offset transform from its parent frame and a unit rotation axis expressed in
the joint's own frame; an optional tool offset places the end-effector after
the last joint. Joint limits are enforced by the iterative solver, not by the
single-step update.

`chain_frames`, `ChainFrames.jacobian`, `pose_error` and `dls_step` take a
leading trial axis: joint vectors (..., n) give frames, Jacobians (..., 6, n)
and errors (..., 6) with the same leading axes, one row per trial.
"""

import configparser
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .geometry import (Pose, cross_rows, decode_rot6d_rows, pose_unchecked,
                       rodrigues, rotation_log, skew_rows)

DEFAULT_DAMPING = 0.05

AXIS_UNIT_TOL = 1e-9


class ChainConfigError(ValueError):
    """Malformed chain definition (file or constructor input)."""


@dataclass
class ChainLink:
    """One revolute joint: unit axis in the joint frame, fixed parent offset."""

    axis: np.ndarray
    offset: Pose

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float).reshape(3)
        # written as `not ...` so that a non-finite axis fails too
        if not abs(np.linalg.norm(self.axis) - 1.0) <= AXIS_UNIT_TOL:
            raise ChainConfigError(f"joint axis {self.axis} is not unit norm")


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
        # written as `not ...` so that NaN limits fail too
        if not np.all(self.joint_limits[:, 0] < self.joint_limits[:, 1]):
            raise ChainConfigError("joint limits must satisfy min < max")

    @property
    def dof(self) -> int:
        return len(self.links)

    def clamp_to_limits(self, q: np.ndarray) -> np.ndarray:
        limits = self.joint_limits
        return np.minimum(np.maximum(q, limits[:, 0]), limits[:, 1])

    @cached_property
    def joint_terms(self) -> "_JointTerms":
        """Constants of the forward pass, built once per chain (whose links
        are not changed after its first use)."""
        axes = np.array([link.axis for link in self.links])
        offset_rotations = [None if np.array_equal(link.offset.rotation, np.eye(3))
                            else link.offset.rotation for link in self.links]
        return _JointTerms(axes, skew_rows(axes), axes[:, :, None] * axes[:, None, :],
                           np.array([link.offset.translation for link in self.links]),
                           offset_rotations)


@dataclass
class _JointTerms:
    axes: np.ndarray              # (dof, 3) joint axes in the joint frames
    skews: np.ndarray             # (dof, 3, 3) skew(axis)
    outers: np.ndarray            # (dof, 3, 3) axis axis^T
    offset_translations: np.ndarray   # (dof, 3)
    offset_rotations: list        # per joint: 3x3, or None for the identity


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
    terms = chain.joint_terms
    turns = rodrigues(np.cos(q), np.sin(q), terms.skews, terms.outers)
    shape = q.shape + (3, 3)
    # frame each joint turns in (parent link after the fixed offset), and link
    turning = np.empty(shape)
    rotations = np.empty(shape)
    r = np.eye(3)
    for i, offset in enumerate(terms.offset_rotations):
        turning[..., i, :, :] = r if offset is None else r @ offset
        r = np.matmul(turning[..., i, :, :], turns[..., i, :, :],
                      out=rotations[..., i, :, :])
    # origin_i = origin_{i-1} + R_{i-1} offset_i, with R_{-1} = I
    steps = np.empty(q.shape + (3,))
    steps[..., 0, :] = terms.offset_translations[0]
    steps[..., 1:, :] = (rotations[..., :-1, :, :]
                         @ terms.offset_translations[1:, :, None])[..., 0]
    origins = np.cumsum(steps, axis=-2)
    axes = (turning @ terms.axes[:, :, None])[..., 0]
    tool = chain.tool_offset
    p_ee = r @ tool.translation + origins[..., -1, :]
    r_ee = r @ tool.rotation
    return ChainFrames(origins, axes, rotations, pose_unchecked(r_ee, p_ee))


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
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ChainConfigError(f"{what}: {exc}") from exc
    if not np.isfinite(values).all():
        raise ChainConfigError(f"{what}: non-finite value in {text.strip()!r}")
    return values


def _parse_pose(section, prefix: str, what: str) -> Pose:
    trans = _parse_vector(section.get(f"{prefix}translation", "0 0 0"), 3, what)
    rot6d = _parse_vector(section.get(f"{prefix}rot6d", "1 0 0 0 1 0"), 6, what)
    return Pose(decode_rot6d_rows(rot6d[:3], rot6d[3:]), trans)


def _read_chain_file(path) -> tuple:
    """The parsed chain file and its joint sections, [joint.1] to [joint.N].

    Joints are numbered 1, 2, ... without gaps, repeats or leading zeros; a
    [joint.*] section outside that list is a ChainConfigError naming it.
    """
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
    found = [s for s in cfg.sections() if s.startswith("joint.")]
    if not found:
        raise ChainConfigError(f"{path}: no [joint.N] sections")
    names = [f"joint.{i}" for i in range(1, len(found) + 1)]
    for name in found:
        if name not in names:
            raise ChainConfigError(
                f"{path} [{name}]: the {len(found)} joint sections must be "
                f"[joint.1] to [joint.{len(found)}], numbered without gaps, "
                f"repeats or leading zeros")
    return cfg, [cfg[name] for name in names]


def load_chain(path, parsed=None) -> ChainModel:
    """Load a chain from a key-value config file (see docs/formats.md).

    `parsed` is what `_read_chain_file(path)` returned, when already read.
    """
    cfg, joints = parsed or _read_chain_file(path)
    links = []
    limits = []
    for sec in joints:
        name = sec.name
        if "axis" not in sec:
            raise ChainConfigError(f"{path} [{name}]: missing axis")
        axis = _parse_vector(sec["axis"], 3, f"{name} axis")
        norm = np.linalg.norm(axis)
        if norm < 1e-12:
            raise ChainConfigError(f"{path} [{name}]: zero axis")
        links.append(ChainLink(axis / norm, _parse_pose(sec, "offset_", f"{name} offset")))
        limits.append(_parse_vector(sec.get("limits", "-6.2832 6.2832"), 2, f"{name} limits"))
    tool = _parse_pose(cfg["chain"], "tool_", "tool offset")
    return ChainModel(links, np.array(limits), tool,
                      cfg["chain"].get("name", Path(path).stem))
