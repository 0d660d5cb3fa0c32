"""Deterministic fixed-step rigid-body plant for a serial arm.

Dynamics terms (M and the bias C qdot + g) come from one vectorised pass
over the world-frame link Jacobians of a forward pass that the controller
shares; integration is semi-implicit Euler, which is symplectic and stays
stable against the stiff penalty contact used for the surface tasks.
Contact is a spring-damper on the plane normal plus tanh-regularized Coulomb
friction, so trajectories are smooth and bitwise reproducible.
"""

import configparser
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .geometry import GRAVITY_WORLD, Pose, Wrench, cross_rows, skew
from .kinematics import (ChainConfigError, ChainFrames, ChainModel,
                         chain_frames, load_chain)
from .sensing import gravity_model

_ZERO3 = np.zeros(3)
# v @ _SKEW_BASIS is skew(v) flattened, for a stack of vectors v
_SKEW_BASIS = np.stack([skew(e) for e in np.eye(3)]).reshape(3, 9)


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
        if np.any(self.link_masses <= 0.0):
            raise ValueError("link masses must be positive")
        for i, inertia in enumerate(self.link_inertias):
            if np.max(np.abs(inertia - inertia.T)) > 1e-9:
                raise ValueError(f"link {i} inertia not symmetric")
            if np.any(np.linalg.eigvalsh(inertia) <= 0.0):
                raise ValueError(f"link {i} inertia not positive definite")


@dataclass
class ContactPlane:
    """Penalty plane {x : normal . x = offset}; contact when normal . p < offset."""

    normal: np.ndarray
    offset: float
    stiffness: float
    damping: float = 0.0
    friction_mu: float = 0.0
    v_eps: float = 1e-3   # m/s, tanh regularization of Coulomb friction

    def __post_init__(self):
        self.normal = np.asarray(self.normal, dtype=float).reshape(3)
        norm = np.linalg.norm(self.normal)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("plane normal must be a unit vector")
        if self.stiffness <= 0.0:
            raise ValueError("plane stiffness must be positive")
        if self.damping < 0.0 or self.friction_mu < 0.0:
            raise ValueError("plane damping and friction must be nonnegative")


@dataclass
class PayloadSpec:
    """Ground-truth payload rigidly attached at the F/T sensor."""

    mass: float
    com_in_sensor: np.ndarray
    sensor_bias: np.ndarray

    def __post_init__(self):
        self.com_in_sensor = np.asarray(self.com_in_sensor, dtype=float).reshape(3)
        self.sensor_bias = np.asarray(self.sensor_bias, dtype=float).reshape(6)
        if self.mass < 0.0:
            raise ValueError("payload mass must be nonnegative")


@dataclass
class SimState:
    q: np.ndarray
    qdot: np.ndarray
    time: float = 0.0
    contact_wrench_ee: Wrench = field(default_factory=lambda: Wrench.zero("ee"))

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).reshape(-1)
        self.qdot = np.asarray(self.qdot, dtype=float).reshape(-1)


@dataclass
class DynTerms:
    mass_matrix: np.ndarray
    bias: np.ndarray    # C(q, qdot) qdot + g(q)


@dataclass
class BiasTerms:
    c_qdot: np.ndarray
    g_vec: np.ndarray


def bias_terms(model: ArmDynamicsModel, q: np.ndarray, qdot: np.ndarray) -> BiasTerms:
    """Coriolis/centrifugal generalized force C(q,qdot) qdot and gravity torque g(q)."""
    frames = chain_frames(model.chain, q)
    g_vec = inverse_dynamics_terms(model, q, np.zeros(model.chain.dof),
                                   frames).bias
    c_qdot = inverse_dynamics_terms(replace(model, gravity=_ZERO3), q, qdot,
                                    frames).bias
    return BiasTerms(c_qdot, g_vec)


def mass_matrix(model: ArmDynamicsModel, q: np.ndarray) -> np.ndarray:
    """Joint-space inertia M(q)."""
    return inverse_dynamics_terms(model, q, np.zeros(model.chain.dof)).mass_matrix


def inverse_dynamics_terms(model: ArmDynamicsModel, q, qdot,
                           frames: Optional[ChainFrames] = None) -> DynTerms:
    """M and the bias C qdot + g shared by the plant and the controller.

    Both come in one vectorised pass from the world-frame quantities of a
    forward pass (pass `frames` of q to reuse one). With the COM Jacobians
    [Jv_i; Jw_i] of every link i,

        M    = sum_i m_i Jv_i^T Jv_i + Jw_i^T I_i Jw_i,
        bias = sum_i Jv_i^T f_i + Jw_i^T n_i,

    where f_i and n_i are link i's Newton-Euler force and moment about its
    COM at qddot = 0, with gravity entering as the base acceleration -g.
    """
    chain = model.chain
    n = chain.dof
    q = np.asarray(q, dtype=float).reshape(-1)
    qdot = np.asarray(qdot, dtype=float).reshape(-1)
    if q.shape[0] != n or qdot.shape[0] != n:
        raise ValueError("q/qdot dimension mismatch")
    if frames is None:
        frames = chain_frames(chain, q)
    origins = frames.joint_origins
    axes = frames.joint_axes
    rots = frames.link_rotations
    # running sums over the links inward of (and including) each link
    inward, strictly_inward = _link_sums(n)
    # columns: the vectors fixed in link i to the next joint origin and to the COM
    segments = np.zeros((n, 3, 2))
    segments[:-1, :, 0] = origins[1:] - origins[:-1]
    segments[:, :, 1:] = rots @ model.link_coms[:, :, None]
    inertias = rots @ model.link_inertias @ rots.transpose(0, 2, 1)

    # jac[i, j] = [axis_j x (com_i - origin_j); axis_j] if joint j moves link i
    jac = np.empty((n, n, 6))
    coms = origins + segments[:, :, 1]
    jac[:, :, :3] = cross_rows(axes, coms[:, None, :] - origins)
    jac[:, :, 3:] = axes
    jac *= inward[:, :, None]
    jac_t = jac.transpose(1, 0, 2).reshape(n, 6 * n)
    inertia_jac = np.empty((n, n, 6))
    inertia_jac[:, :, :3] = model.link_masses[:, None, None] * jac[:, :, :3]
    inertia_jac[:, :, 3:] = jac[:, :, 3:] @ inertias.transpose(0, 2, 1)
    m = jac_t @ inertia_jac.transpose(1, 0, 2).reshape(n, 6 * n).T

    # link angular velocity w and acceleration wd at qddot = 0, then the
    # acceleration (wd x + w x w x) of every segment, summed inward to the COMs
    spin = qdot[:, None] * axes
    w = inward @ spin
    wd = inward @ cross_rows(strictly_inward @ spin, spin)
    w_x, wd_x = (np.stack((w, wd)) @ _SKEW_BASIS).reshape(2, n, 3, 3)
    seg_acc = (wd_x + w_x @ w_x) @ segments
    acc = strictly_inward @ seg_acc[:, :, 0] + seg_acc[:, :, 1] - model.gravity
    inertia_w = inertias @ np.stack((w, wd), axis=2)
    wrenches = np.empty((n, 6))
    wrenches[:, :3] = model.link_masses[:, None] * acc
    wrenches[:, 3:] = inertia_w[:, :, 1] + (w_x @ inertia_w[:, :, :1])[:, :, 0]
    return DynTerms((m + m.T) / 2.0, jac_t @ wrenches.reshape(-1))


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
    component is clamped nonnegative so the plane never pulls.
    """
    gap = plane.normal @ p_ee - plane.offset
    if gap >= 0.0:
        return np.zeros(3), 0.0
    v_n = plane.normal @ v_ee
    f_n = -plane.stiffness * gap - plane.damping * v_n
    if f_n <= 0.0:
        return np.zeros(3), 0.0
    force = f_n * plane.normal
    if plane.friction_mu > 0.0:
        v_t = v_ee - v_n * plane.normal
        speed = np.linalg.norm(v_t)
        if speed > 1e-12:
            force = force - plane.friction_mu * f_n * np.tanh(speed / plane.v_eps) * (v_t / speed)
    return force, float(f_n)


STEP_DT_MAX = 0.01   # s, largest plant step `step` accepts


def step(model: ArmDynamicsModel, state: SimState, tau: np.ndarray,
         plane: Optional[ContactPlane] = None, dt: float = 1e-3,
         terms: Optional[DynTerms] = None, frames=None) -> SimState:
    """Advance one semi-implicit Euler step: M qdd + C qd + g = tau + J^T f_c.

    Pass `terms` and `frames` to share one inverse-dynamics/kinematics
    evaluation between the plant and a controller that compensates the bias;
    both must belong to the current state.
    """
    if not 0.0 < dt <= STEP_DT_MAX:
        raise ValueError(f"dt must be in (0, {STEP_DT_MAX}]")
    tau = np.asarray(tau, dtype=float).reshape(model.chain.dof)
    if not np.all(np.isfinite(tau)):
        raise SimulationFault(f"non-finite torque at t={state.time:.6f}")

    if frames is None:
        frames = chain_frames(model.chain, state.q)
    j_lin = frames.jacobian[:3]

    f_contact = np.zeros(3)
    if plane is not None:
        v_ee = j_lin @ state.qdot
        f_contact, _ = plane_contact_force(plane, frames.ee_pose.translation, v_ee)

    if terms is None:
        terms = inverse_dynamics_terms(model, state.q, state.qdot, frames)
    rhs = tau + j_lin.T @ f_contact - terms.bias
    qddot = np.linalg.solve(terms.mass_matrix, rhs)
    qdot_new = state.qdot + dt * qddot
    q_new = state.q + dt * qdot_new
    if not (np.all(np.isfinite(q_new)) and np.all(np.isfinite(qdot_new))):
        raise SimulationFault(
            f"state diverged at t={state.time:.6f}: q={state.q}, qdot={state.qdot}")

    wrench_ee = Wrench(frames.ee_pose.rotation.T @ f_contact, np.zeros(3), "ee")
    return SimState(q_new, qdot_new, state.time + dt, wrench_ee)


def read_ft_sensor(state: SimState, payload: PayloadSpec, ee_pose: Pose,
                   noise_sigma: float = 0.0,
                   rng: Optional[np.random.Generator] = None) -> Wrench:
    """Raw sensor-frame reading: contact wrench + payload gravity + bias + noise.

    The sensor is collocated with the end-effector frame, so the contact
    wrench maps straight through; payload weight enters via the identified-
    payload gravity model with the end-effector orientation.
    """
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be nonnegative")
    grav = gravity_model(payload.mass, payload.com_in_sensor, payload.sensor_bias,
                         ee_pose.rotation)
    raw = state.contact_wrench_ee.as_array() + grav.as_array()
    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("seeded rng required when noise_sigma > 0")
        raw = raw + rng.normal(0.0, noise_sigma, size=6)
    return Wrench.from_array(raw, "sensor")


def load_arm_model(path) -> ArmDynamicsModel:
    """Chain config plus per-joint inertial keys (mass, com, inertia_diag)."""
    chain = load_chain(path)
    cfg = configparser.ConfigParser()
    cfg.read(Path(path))
    masses, coms, inertias = [], [], []
    for i in range(1, chain.dof + 1):
        sec = cfg[f"joint.{i}"]
        if "mass" not in sec:
            raise ChainConfigError(f"{path} [joint.{i}]: missing mass for dynamics")
        masses.append(float(sec["mass"]))
        coms.append([float(v) for v in sec.get("com", "0 0 0").split()])
        diag = [float(v) for v in sec.get("inertia_diag", "1e-3 1e-3 1e-3").split()]
        inertias.append(np.diag(diag))
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
