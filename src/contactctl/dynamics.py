"""Deterministic fixed-step rigid-body plant for a serial arm.

Dynamics terms (M and the bias C qdot + g) come from recursive Newton-Euler
passes over the chain; integration is semi-implicit Euler, which is
symplectic and stays stable against the stiff penalty contact used for the
surface tasks. Contact is a spring-damper on the plane normal plus
tanh-regularized Coulomb friction, so trajectories are smooth and bitwise
reproducible.
"""

import configparser
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .geometry import (GRAVITY_WORLD, Pose, Wrench, cross3,
                       rotation_about_axis, skew)
from .kinematics import ChainConfigError, ChainModel, chain_frames, load_chain
from .sensing import gravity_model

_ZERO3 = np.zeros(3)


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


def _joint_rotations(chain: ChainModel, q) -> list:
    """Parent-to-link rotations (offset rotation times joint rotation)."""
    return [link.offset.rotation @ rotation_about_axis(link.axis, q[i])
            for i, link in enumerate(chain.links)]


def _rnea_core(model: ArmDynamicsModel, rots: list, qdot, qddot,
               gravity) -> np.ndarray:
    """Recursive Newton-Euler inverse dynamics in link frames.

    Returns the joint torques realizing (qdot, qddot) at the configuration
    captured in `rots`; gravity enters through the base-acceleration trick.
    """
    chain = model.chain
    n = chain.dof
    w = _ZERO3
    wd = _ZERO3
    a = -np.asarray(gravity, dtype=float)
    f_links = []
    n_links = []
    for i, link in enumerate(chain.links):
        axis = link.axis
        rt = rots[i].T
        p_off = link.offset.translation
        a = rt @ (a + cross3(wd, p_off) + cross3(w, cross3(w, p_off)))
        w_par = rt @ w
        wd_par = rt @ wd
        qd_axis = qdot[i] * axis
        w = w_par + qd_axis
        wd = wd_par + cross3(w_par, qd_axis) + qddot[i] * axis
        com = model.link_coms[i]
        a_com = a + cross3(wd, com) + cross3(w, cross3(w, com))
        inertia = model.link_inertias[i]
        f_links.append(model.link_masses[i] * a_com)
        n_links.append(inertia @ wd + cross3(w, inertia @ w))

    tau = np.zeros(n)
    f_child = _ZERO3
    n_child = _ZERO3
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            rot_child = rots[i + 1]
            p_child = chain.links[i + 1].offset.translation
            f_down = rot_child @ f_child
            n_down = rot_child @ n_child + cross3(p_child, f_down)
            f_i = f_links[i] + f_down
            n_i = n_links[i] + cross3(model.link_coms[i], f_links[i]) + n_down
        else:
            f_i = f_links[i]
            n_i = n_links[i] + cross3(model.link_coms[i], f_links[i])
        tau[i] = chain.links[i].axis @ n_i
        f_child = f_i
        n_child = n_i
    return tau


def bias_terms(model: ArmDynamicsModel, q: np.ndarray, qdot: np.ndarray) -> BiasTerms:
    """Coriolis/centrifugal generalized force C(q,qdot) qdot and gravity torque g(q)."""
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    rots = _joint_rotations(model.chain, q)
    zero = np.zeros(model.chain.dof)
    g_vec = _rnea_core(model, rots, zero, zero, model.gravity)
    c_qdot = _rnea_core(model, rots, qdot, zero, _ZERO3)
    return BiasTerms(c_qdot, g_vec)


def _mass_matrix_core(model: ArmDynamicsModel, rots: list) -> np.ndarray:
    """All unit-acceleration Newton-Euler columns in one batched pass.

    With zero velocity and zero gravity the recursion is linear in qddot, so
    the n columns propagate together as (3, n) blocks.
    """
    chain = model.chain
    n = chain.dof
    wd = np.zeros((3, n))
    a = np.zeros((3, n))
    f_links, n_links = [], []
    for i, link in enumerate(chain.links):
        rt = rots[i].T
        a = rt @ (a - skew(link.offset.translation) @ wd)
        wd = rt @ wd
        wd[:, i] += link.axis
        a_com = a - skew(model.link_coms[i]) @ wd
        f_links.append(model.link_masses[i] * a_com)
        n_links.append(model.link_inertias[i] @ wd)

    m = np.zeros((n, n))
    f_child = None
    n_child = None
    for i in range(n - 1, -1, -1):
        n_i = n_links[i] + skew(model.link_coms[i]) @ f_links[i]
        f_i = f_links[i]
        if f_child is not None:
            f_down = rots[i + 1] @ f_child
            f_i = f_i + f_down
            n_i = n_i + rots[i + 1] @ n_child \
                + skew(chain.links[i + 1].offset.translation) @ f_down
        m[i, :] = chain.links[i].axis @ n_i
        f_child = f_i
        n_child = n_i
    return (m + m.T) / 2.0


def mass_matrix(model: ArmDynamicsModel, q: np.ndarray) -> np.ndarray:
    """Joint-space inertia via unit-acceleration Newton-Euler columns."""
    q = np.asarray(q, dtype=float)
    return _mass_matrix_core(model, _joint_rotations(model.chain, q))


def inverse_dynamics_terms(model: ArmDynamicsModel, q, qdot) -> DynTerms:
    """M and the bias C qdot + g shared by the plant and the controller.

    The bias is one Newton-Euler pass at zero acceleration with gravity, so C
    and g never need to be formed apart here (bias_terms splits them).
    """
    q = np.asarray(q, dtype=float).reshape(-1)
    qdot = np.asarray(qdot, dtype=float).reshape(-1)
    if q.shape[0] != model.chain.dof or qdot.shape[0] != model.chain.dof:
        raise ValueError("q/qdot dimension mismatch")
    rots = _joint_rotations(model.chain, q)
    bias = _rnea_core(model, rots, qdot, np.zeros(model.chain.dof), model.gravity)
    return DynTerms(_mass_matrix_core(model, rots), bias)


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
        terms = inverse_dynamics_terms(model, state.q, state.qdot)
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
