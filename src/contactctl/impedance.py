"""Hybrid joint-space impedance execution.

Operational-space gains are assembled as block-diagonal 6x6 matrices
(translational stiffness scheduled per tick, rotational gains fixed), folded
through the Jacobian into effective joint-space gains

    Kq_p = J^T Kx J + Kq_floor,      Kq_d = J^T Kxd J + Kqd_floor,

and executed as a joint PD torque with Coriolis/gravity compensation. The
code path is identical in free space and in contact: contact changes only
the plant, never a controller branch.
"""

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .compliance import ComplianceCommand
from .dynamics import (ArmDynamicsModel, ContactPlane, SimState,
                       STEP_DT_MAX, inverse_dynamics_terms, step)
from .kinematics import ChainFrames, chain_frames, dls_step, pose_error


class StiffnessClampWarning(UserWarning):
    """Requested translational stiffness was outside [k_min, k_max]."""


@dataclass
class ImpedanceConfig:
    """Gain schedule bounds, damping rule, fixed rotation gains, and loop timing."""

    k_min: float = 200.0           # N/m
    k_max: float = 2000.0          # N/m
    zeta: float = 1.0              # damping ratio for the critical-damping rule
    m_eff: float = 2.0             # kg, effective translational mass per axis
    k_rot: np.ndarray = field(default_factory=lambda: np.full(3, 50.0))   # N*m/rad
    d_rot: np.ndarray = field(default_factory=lambda: np.full(3, 5.0))    # N*m*s/rad
    kq_floor: float = 1.0          # N*m/rad joint-space stiffness floor
    kqd_floor: float = 0.1         # N*m*s/rad joint-space damping floor
    ik_damping: float = 0.05
    dt: float = 1e-3               # s, control tick
    qd_filter_cutoff: float = 20.0  # Hz, first-order filter on qdot_d

    def __post_init__(self):
        self.k_rot = np.asarray(self.k_rot, dtype=float).reshape(3)
        self.d_rot = np.asarray(self.d_rot, dtype=float).reshape(3)
        if not 0.0 <= self.k_min <= self.k_max:
            raise ValueError("need 0 <= k_min <= k_max")
        for name in ("ik_damping", "dt", "qd_filter_cutoff"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.dt > STEP_DT_MAX:
            raise ValueError(f"dt must be in (0, {STEP_DT_MAX}]")


@dataclass
class CartesianGains:
    """Diagonal operational-space gain blocks."""

    kp_trans: np.ndarray   # 3x3, N/m
    k_rot: np.ndarray      # 3x3, N*m/rad
    dp_trans: np.ndarray   # 3x3, N*s/m
    d_rot: np.ndarray      # 3x3, N*m*s/rad

    def stiffness_6x6(self) -> np.ndarray:
        kx = np.zeros((6, 6))
        kx[:3, :3] = self.kp_trans
        kx[3:, 3:] = self.k_rot
        return kx

    def damping_6x6(self) -> np.ndarray:
        kxd = np.zeros((6, 6))
        kxd[:3, :3] = self.dp_trans
        kxd[3:, 3:] = self.d_rot
        return kxd


@dataclass
class JointGains:
    kq_p: np.ndarray
    kq_d: np.ndarray
    kq_floor: np.ndarray
    kqd_floor: np.ndarray


def build_operational_gains(kp_diag: np.ndarray,
                            config: ImpedanceConfig) -> CartesianGains:
    """Diagonal Cartesian gains from a scheduled translational stiffness.

    Translational damping follows the critical-damping rule per axis,
    D = 2 zeta sqrt(k m_eff); rotational gains come straight from config.
    Out-of-range stiffness entries are clamped with a StiffnessClampWarning.
    """
    kp = np.asarray(kp_diag, dtype=float).reshape(3)
    clamped = np.clip(kp, config.k_min, config.k_max)
    if np.any(clamped != kp):
        warnings.warn(f"translational stiffness {kp} clamped to "
                      f"[{config.k_min}, {config.k_max}]", StiffnessClampWarning,
                      stacklevel=2)
    dp = 2.0 * config.zeta * np.sqrt(clamped * config.m_eff)
    return CartesianGains(np.diag(clamped), np.diag(config.k_rot),
                          np.diag(dp), np.diag(config.d_rot))


def _diagonal(gain: np.ndarray) -> np.ndarray:
    diag = gain.diagonal()
    if np.count_nonzero(gain) != np.count_nonzero(diag):
        raise ValueError("operational-space gains must be diagonal")
    return diag


def fold_to_joint_gains(j: np.ndarray, cart: CartesianGains,
                        kq_floor, kqd_floor) -> JointGains:
    """Fold operational-space gains through the Jacobian, plus diagonal floors.

    Floors may be scalars or per-joint vectors; they keep the folded gains
    strictly positive definite at singular configurations.
    """
    j = np.asarray(j, dtype=float)
    if j.ndim != 2 or j.shape[0] != 6:
        raise ValueError(f"Jacobian must be 6 x dof, got {j.shape}")
    dof = j.shape[1]
    kq_floor = np.full(dof, kq_floor, dtype=float)
    kqd_floor = np.full(dof, kqd_floor, dtype=float)
    # J^T diag(k) J as (J^T * k) @ J: the same bits as with the full 6x6 matrix
    jt = j.T
    kq_p = (jt * _diagonal(cart.stiffness_6x6())) @ j + np.diag(kq_floor)
    kq_d = (jt * _diagonal(cart.damping_6x6())) @ j + np.diag(kqd_floor)
    # enforce exact symmetry against float round-off
    kq_p = (kq_p + kq_p.T) / 2.0
    kq_d = (kq_d + kq_d.T) / 2.0
    return JointGains(kq_p, kq_d, kq_floor, kqd_floor)


def control_torque(gains: JointGains, q_d, q, qdot_d, qdot,
                   bias: np.ndarray) -> np.ndarray:
    """tau = Kq_p (q_d - q) + Kq_d (qdot_d - qdot) + bias, bias = C qdot + g."""
    q_d = np.asarray(q_d, dtype=float)
    q = np.asarray(q, dtype=float)
    qdot_d = np.asarray(qdot_d, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    return gains.kq_p @ (q_d - q) + gains.kq_d @ (qdot_d - qdot) + bias


@dataclass
class TickDiagnostics:
    error_norm: float            # ||xi|| toward the virtual target
    contact_force_norm: float    # from the plant's last contact wrench
    stiffness_clamped: bool
    limits_clamped: bool
    code_path: str = "unified"   # single path by design; never branches on contact


@dataclass
class TickResult:
    tau: np.ndarray
    q_d: np.ndarray
    qdot_d: np.ndarray
    diagnostics: TickDiagnostics


class ImpedanceExecutor:
    """Per-control-loop session: one DLS step, gain fold, and torque per tick.

    Holds the first-order filter state for the finite-difference target
    velocity qdot_d; everything else is stateless. One executor per control
    loop; independent executors may run concurrently.
    """

    def __init__(self, dyn_model: ArmDynamicsModel, config: ImpedanceConfig):
        self.chain = dyn_model.chain
        self.dyn_model = dyn_model
        self.config = config
        self._qdot_d_filtered = np.zeros(self.chain.dof)
        self._prev_q_d = None
        rc = 1.0 / (2.0 * np.pi * config.qd_filter_cutoff)
        self._alpha = config.dt / (config.dt + rc)

    def reset(self) -> None:
        self._qdot_d_filtered[:] = 0.0
        self._prev_q_d = None

    def closed_loop_tick(self, state: SimState, command: ComplianceCommand,
                         plane: Optional[ContactPlane]
                         ) -> tuple[TickResult, SimState, ChainFrames]:
        """One control step: one forward pass and one dynamics evaluation
        shared by the controller and the plant. Returns the tick's result,
        the plant state after it, and the frames of `state`."""
        frames = chain_frames(self.chain, state.q)
        terms = inverse_dynamics_terms(self.dyn_model, state.q, state.qdot,
                                       frames)
        out = self.execute_tick(state, command, frames, terms.bias)
        next_state = step(self.dyn_model, state, out.tau, plane, self.config.dt,
                          terms=terms, frames=frames)
        return out, next_state, frames

    def execute_tick(self, state: SimState, command: ComplianceCommand,
                     frames: ChainFrames, bias: np.ndarray) -> TickResult:
        """Controller half of a tick, given the frames and the bias
        C qdot + g of `state`."""
        cfg = self.config
        xi = pose_error(command.virtual_target, frames.ee_pose)
        j = frames.jacobian

        # single DLS update per tick; solve_ik exists for initialization only
        q_d_raw = state.q + dls_step(j, xi, cfg.ik_damping)
        q_d = self.chain.clamp_to_limits(q_d_raw)
        limits_clamped = bool(np.any(q_d != q_d_raw))

        # target velocity = finite difference of successive IK targets, so it
        # vanishes at steady state even when contact blocks the virtual target
        if self._prev_q_d is None:
            qdot_d_raw = np.zeros(self.chain.dof)
        else:
            qdot_d_raw = (q_d - self._prev_q_d) / cfg.dt
        self._prev_q_d = q_d.copy()
        self._qdot_d_filtered += self._alpha * (qdot_d_raw - self._qdot_d_filtered)
        qdot_d = self._qdot_d_filtered.copy()

        # clamp before building the gains: the clamp goes to the diagnostics,
        # with no warning and no change to the process-wide warning filters
        kp = np.asarray(command.kp_diag, dtype=float)
        kp_clamped = np.clip(kp, cfg.k_min, cfg.k_max)
        stiffness_clamped = bool(np.any(kp_clamped != kp))
        cart = build_operational_gains(kp_clamped, cfg)
        gains = fold_to_joint_gains(j, cart, cfg.kq_floor, cfg.kqd_floor)
        tau = control_torque(gains, q_d, state.q, qdot_d, state.qdot, bias)

        diag = TickDiagnostics(
            error_norm=float(np.linalg.norm(xi)),
            contact_force_norm=float(np.linalg.norm(state.contact_wrench_ee.force)),
            stiffness_clamped=stiffness_clamped,
            limits_clamped=limits_clamped,
        )
        return TickResult(tau, q_d, qdot_d, diag)
