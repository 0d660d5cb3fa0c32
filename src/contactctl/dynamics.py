"""Deterministic fixed-step rigid-body plant for a serial arm.

Dynamics terms (M and the bias C qdot + g) come from one vectorised pass
over the world-frame link Jacobians of a forward pass that the controller
shares; integration is semi-implicit Euler, which is symplectic and stays
stable against the stiff penalty contact used for the surface tasks.
Contact is a spring-damper on the plane normal plus tanh-regularized Coulomb
friction, so trajectories are smooth and bitwise reproducible.

`load_arm_model` is the one reader of chain files: it reads each joint's
geometry and inertial keys in one pass (format in docs/formats.md).

The plant takes a leading trial axis: a SimState with (T, n) joint arrays,
a ContactPlane whose offset is a (T,) array, and (T, n) torques advance T
independent trials in one call. Each row goes through the same operations
as a single (n,) state, so its bits do not depend on the batch around it.
"""

import configparser
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .geometry import (GRAVITY_WORLD, Pose, cross_rows, decode_rot6d_rows,
                       dot_rows, skew_rows)
from .kinematics import ChainConfigError, ChainFrames, ChainModel, chain_frames
from .sensing import Payload, gravity_model

FRICTION_V_EPS = 1e-3   # m/s, tanh regularization of Coulomb friction


class SimulationFault(RuntimeError):
    """Non-finite state encountered while stepping the plant."""


@dataclass
class ArmDynamicsModel:
    """Chain plus per-link mass, COM (link frame), and COM inertia (link frame)."""

    chain: ChainModel
    link_masses: np.ndarray
    link_coms: np.ndarray        # (dof, 3)
    link_inertias: np.ndarray    # (dof, 3, 3), about the COM
    gravity: np.ndarray = field(default_factory=lambda: GRAVITY_WORLD.copy())

    def __post_init__(self):
        n = self.chain.dof
        self.link_masses = np.asarray(self.link_masses, dtype=float).reshape(n)
        self.link_coms = np.asarray(self.link_coms, dtype=float).reshape(n, 3)
        self.link_inertias = np.asarray(self.link_inertias, dtype=float).reshape(n, 3, 3)
        self.gravity = np.asarray(self.gravity, dtype=float).reshape(3)
        if not np.all(self.link_masses > 0.0):   # NaN fails too
            raise ValueError("link masses must be positive")
        for i, inertia in enumerate(self.link_inertias):
            if np.max(np.abs(inertia - inertia.T)) > 1e-9:
                raise ValueError(f"link {i} inertia not symmetric")
            if np.any(np.linalg.eigvalsh(inertia) <= 0.0):
                raise ValueError(f"link {i} inertia not positive definite")


@dataclass
class ContactPlane:
    """Penalty plane {x : normal . x = offset}; contact when normal . p < offset.

    `offset` may be a (T,) array: one plane per row of a batched state.
    """

    normal: np.ndarray
    offset: float
    stiffness: float
    damping: float = 0.0
    friction_mu: float = 0.0

    def __post_init__(self):
        self.normal = np.asarray(self.normal, dtype=float).reshape(3)
        norm = np.linalg.norm(self.normal)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("plane normal must be a unit vector")
        # written as `not ...` so that NaN fails too
        if not self.stiffness > 0.0:
            raise ValueError("plane stiffness must be positive")
        if not (self.damping >= 0.0 and self.friction_mu >= 0.0):
            raise ValueError("plane damping and friction must be nonnegative")


@dataclass
class SimState:
    """Joint state (n,), or (T, n) for T trials stepped together in lockstep."""

    q: np.ndarray
    qdot: np.ndarray
    time: float = 0.0
    contact_force_ee: Optional[np.ndarray] = None   # (..., 3) in the ee frame; default zero

    def __post_init__(self):
        self.q = np.atleast_1d(np.asarray(self.q, dtype=float))
        self.qdot = np.atleast_1d(np.asarray(self.qdot, dtype=float))
        if self.contact_force_ee is None:
            self.contact_force_ee = np.zeros(self.q.shape[:-1] + (3,))


def inverse_dynamics_terms(model: ArmDynamicsModel, q, qdot,
                           frames: Optional[ChainFrames] = None) -> tuple:
    """The pair (M, bias), with bias = C qdot + g, shared by the plant and
    the controller.

    Both come in one vectorised pass from the world-frame quantities of a
    forward pass (pass `frames` of q to reuse one). With the COM Jacobians
    [Jv_i; Jw_i] of every link i,

        M    = sum_i m_i Jv_i^T Jv_i + Jw_i^T I_i Jw_i,
        bias = sum_i Jv_i^T f_i + Jw_i^T n_i,

    where f_i and n_i are link i's Newton-Euler force and moment about its
    COM at qddot = 0, with gravity entering as the base acceleration -g.
    q and qdot may carry leading trial axes, (..., n); so do M and the bias.
    """
    chain = model.chain
    n = chain.dof
    q = np.atleast_1d(np.asarray(q, dtype=float))
    qdot = np.atleast_1d(np.asarray(qdot, dtype=float))
    if q.shape[-1] != n or qdot.shape != q.shape:
        raise ValueError("q/qdot dimension mismatch")
    if frames is None:
        frames = chain_frames(chain, q)
    batch = q.shape[:-1]
    origins = frames.joint_origins
    axes = frames.joint_axes
    rots = frames.link_rotations
    # running sums over the links inward of (and including) each link
    inward, strictly_inward = _link_sums(n)
    # columns: the vectors fixed in link i to the next joint origin and to the COM
    segments = np.zeros(batch + (n, 3, 2))
    segments[..., :-1, :, 0] = origins[..., 1:, :] - origins[..., :-1, :]
    segments[..., :, :, 1:] = rots @ model.link_coms[:, :, None]
    rots_t = rots.swapaxes(-1, -2)
    inertias = rots @ model.link_inertias @ rots_t

    # jac[i, j] = [axis_j x (com_i - origin_j); axis_j] if joint j moves link i
    jac = np.empty(batch + (n, n, 6))
    coms = origins + segments[..., 1]
    jac[..., :3] = cross_rows(axes[..., None, :, :],
                              coms[..., :, None, :] - origins[..., None, :, :])
    jac[..., 3:] = axes[..., None, :, :]
    jac *= inward[:, :, None]
    jac_t = jac.swapaxes(-3, -2).reshape(batch + (n, 6 * n))
    inertia_jac = np.empty(batch + (n, n, 6))
    inertia_jac[..., :3] = model.link_masses[:, None, None] * jac[..., :3]
    inertia_jac[..., 3:] = jac[..., 3:] @ inertias.swapaxes(-1, -2)
    m = jac_t @ inertia_jac.swapaxes(-3, -2).reshape(batch + (n, 6 * n)) \
        .swapaxes(-1, -2)

    # link angular velocity w and acceleration wd at qddot = 0, then the
    # acceleration (wd x + w x w x) of every segment, summed inward to the COMs
    spin = qdot[..., None] * axes
    w = inward @ spin
    wd = inward @ cross_rows(strictly_inward @ spin, spin)
    rates = np.empty(batch + (n, 3, 2))   # columns w, wd
    rates[..., 0] = w
    rates[..., 1] = wd
    rates_x = skew_rows(rates.swapaxes(-1, -2))
    w_x, wd_x = rates_x[..., 0, :, :], rates_x[..., 1, :, :]
    seg_acc = (wd_x + w_x @ w_x) @ segments
    acc = strictly_inward @ seg_acc[..., 0] + seg_acc[..., 1] - model.gravity
    inertia_w = inertias @ rates
    wrenches = np.empty(batch + (n, 6))
    wrenches[..., :3] = model.link_masses[:, None] * acc
    wrenches[..., 3:] = inertia_w[..., 1] + (w_x @ inertia_w[..., :1])[..., 0]
    bias = (jac_t @ wrenches.reshape(batch + (6 * n, 1)))[..., 0]
    return (m + m.swapaxes(-1, -2)) / 2.0, bias


@lru_cache(maxsize=16)
def _link_sums(n: int) -> tuple:
    """Lower-triangular ones with and without the diagonal, read-only."""
    sums = (np.tri(n), np.tri(n, k=-1))
    for a in sums:
        a.flags.writeable = False
    return sums


def plane_contact_force(plane: ContactPlane, p_ee: np.ndarray,
                        v_ee: np.ndarray) -> tuple[np.ndarray, float]:
    """World-frame penalty contact force at the end-effector and its normal part.

    Zero whenever the point is on the free side of the plane; the normal
    component is clamped nonnegative so the plane never pulls. Points and
    velocities may be (..., 3) stacks; the branches become per-row masks.
    """
    normal = plane.normal
    gap = dot_rows(p_ee, normal) - plane.offset
    v_n = dot_rows(v_ee, normal)
    f_n = -plane.stiffness * gap - plane.damping * v_n
    f_n = np.where((gap < 0.0) & (f_n > 0.0), f_n, 0.0)
    force = f_n[..., None] * normal
    if plane.friction_mu > 0.0:
        v_t = v_ee - v_n[..., None] * normal
        speed = np.sqrt(dot_rows(v_t, v_t))
        # no friction below a tangential speed of 1e-12 (nor off contact,
        # where f_n = 0 already zeroes it)
        slipping = speed > 1e-12
        pressing = f_n
        if not slipping.all():
            speed = np.where(slipping, speed, 1.0)
            pressing = np.where(slipping, f_n, 0.0)
        drag = plane.friction_mu * pressing * np.tanh(speed / FRICTION_V_EPS)
        force = force - drag[..., None] * (v_t / speed[..., None])
    return force, f_n[()]


STEP_DT_MAX = 0.01   # s, largest plant step `step` accepts


def step(model: ArmDynamicsModel, state: SimState, tau: np.ndarray,
         plane: Optional[ContactPlane] = None, dt: float = 1e-3,
         terms: Optional[tuple] = None, frames=None) -> SimState:
    """Advance one semi-implicit Euler step: M qdd + C qd + g = tau + J^T f_c.

    Pass `terms`, the (M, bias) pair of `inverse_dynamics_terms`, and
    `frames` to share one inverse-dynamics/kinematics evaluation between the
    plant and a controller that compensates the bias; both must belong to
    the current state. A batched state advances every row at once.
    """
    if not 0.0 < dt <= STEP_DT_MAX:
        raise ValueError(f"dt must be in (0, {STEP_DT_MAX}]")
    tau = np.asarray(tau, dtype=float).reshape(state.q.shape)
    if not np.isfinite(tau).all():
        raise _fault("non-finite torque", state, tau, np.isfinite(tau))

    if frames is None:
        frames = chain_frames(model.chain, state.q)
    j_lin = frames.jacobian[..., :3, :]

    if plane is None:
        f_contact = np.zeros(state.q.shape[:-1] + (3,))
    else:
        v_ee = (j_lin @ state.qdot[..., None])[..., 0]
        f_contact, _ = plane_contact_force(plane, frames.ee_pose.translation, v_ee)

    if terms is None:
        terms = inverse_dynamics_terms(model, state.q, state.qdot, frames)
    mass_matrix, bias = terms
    rhs = tau + (j_lin.swapaxes(-1, -2) @ f_contact[..., None])[..., 0] - bias
    qddot = np.linalg.solve(mass_matrix, rhs[..., None])[..., 0]
    qdot_new = state.qdot + dt * qddot
    q_new = state.q + dt * qdot_new
    # a non-finite qdot_new makes q_new non-finite too
    if not np.isfinite(q_new).all():
        raise _fault("state diverged", state, tau, np.isfinite(q_new))

    force_ee = (frames.ee_pose.rotation.swapaxes(-1, -2)
                @ f_contact[..., None])[..., 0]
    return SimState(q_new, qdot_new, state.time + dt, force_ee)


def _fault(what: str, state: SimState, tau: np.ndarray,
           finite: np.ndarray) -> SimulationFault:
    """A fault at the state's time with the q, qdot and tau of the faulting
    row: in a (T, n) batch, the first row where `finite` is not all true."""
    q, qdot, where = state.q, state.qdot, ""
    if q.ndim > 1:
        i = int(np.argmin(finite.all(axis=-1)))
        q, qdot, tau, where = q[i], qdot[i], tau[i], f" in row {i} of {len(q)}"
    return SimulationFault(f"{what}{where} at t={state.time:.6f}: "
                           f"q={q}, qdot={qdot}, tau={tau}")


def read_ft_sensor(contact: np.ndarray, payload: Payload, rotation: np.ndarray,
                   noise_sigma: float = 0.0,
                   rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Raw sensor-frame readings (..., 6): contact + payload gravity + bias + noise.

    The sensor is collocated with the end effector, so the (..., 6) contact
    wrench maps straight through, plus the payload's gravity model at the
    end-effector orientation `rotation`. (N, 6) contact wrenches with
    (N, 3, 3) rotations give N readings whose noise is one (N, 6) draw: the
    same bits as N readings in turn.
    """
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be nonnegative")
    raw = contact + gravity_model(payload.mass, payload.com, payload.bias, rotation)
    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("seeded rng required when noise_sigma > 0")
        raw = raw + rng.normal(0.0, noise_sigma, size=raw.shape)
    return raw


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


def load_arm_model(path) -> ArmDynamicsModel:
    """Load a chain and its inertias from a key-value config file (see
    docs/formats.md); each [joint.N] section is read once, in order, so the
    first joint's defect is the one reported."""
    cfg, joints = _read_chain_file(path)
    axes, offsets, limits, masses, coms, inertias = [], [], [], [], [], []
    for sec in joints:
        name = sec.name
        if "axis" not in sec:
            raise ChainConfigError(f"{path} [{name}]: missing axis")
        axis = _parse_vector(sec["axis"], 3, f"{name} axis")
        norm = np.linalg.norm(axis)
        if norm < 1e-12:
            raise ChainConfigError(f"{path} [{name}]: zero axis")
        axes.append(axis / norm)
        offsets.append(_parse_pose(sec, "offset_", f"{name} offset"))
        limits.append(_parse_vector(sec.get("limits", "-6.2832 6.2832"), 2, f"{name} limits"))
        if "mass" not in sec:
            raise ChainConfigError(f"{path} [{name}]: missing mass for dynamics")
        masses.append(_parse_vector(sec["mass"], 1, f"{name} mass")[0])
        coms.append(_parse_vector(sec.get("com", "0 0 0"), 3, f"{name} com"))
        inertias.append(np.diag(_parse_vector(sec.get("inertia_diag", "1e-3 1e-3 1e-3"),
                                              3, f"{name} inertia_diag")))
    tool = _parse_pose(cfg["chain"], "tool_", "tool offset")
    chain = ChainModel(axes, [p.rotation for p in offsets],
                       [p.translation for p in offsets], limits, tool,
                       cfg["chain"].get("name", Path(path).stem))
    return ArmDynamicsModel(chain, np.array(masses), np.array(coms),
                            np.array(inertias))


def grasp_slip_check(grasp_force: float, object_mass: float, mu: float,
                     accel_z: float = 0.0) -> bool:
    """True when a two-finger friction grasp cannot hold the load.

    Holds iff 2 mu F >= m (9.81 + max(accel_z, 0)); ties go to holding.
    Downward acceleration reduces the load, which we conservatively ignore.
    """
    if object_mass < 0.0:
        raise ValueError("object mass must be nonnegative")
    required = object_mass * (9.81 + max(accel_z, 0.0))
    return 2.0 * mu * grasp_force < required
