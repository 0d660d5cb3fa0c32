"""Hybrid joint-space impedance execution.

Operational-space gains are diagonal (translational stiffness scheduled per
tick, rotational gains fixed), folded through the Jacobian into effective
joint-space gains

    Kq_p = J^T Kx J + Kq_floor,      Kq_d = J^T Kxd J + Kqd_floor,

and executed as a joint PD torque with Coriolis/gravity compensation. The
code path is identical in free space and in contact: contact changes only
the plant, never a controller branch.

Every function here takes a leading trial axis. An executor ticked with a
batched state ((T, n) joints, (T, ...) targets and gains) advances T
independent control loops in one pass, with one qdot_d filter per row;
a single (n,) state runs through the same code. The operational gains
depend only on the commanded stiffness, so a caller that knows its command
streams builds them for every tick at once, before the loop.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import (ArmDynamicsModel, ContactPlane, SimState,
                       STEP_DT_MAX, inverse_dynamics_terms, step)
from .geometry import Pose, as_vec3
from .kinematics import ChainFrames, chain_frames, dls_step, pose_error


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
        for name in ("m_eff", "ik_damping", "dt", "qd_filter_cutoff"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("zeta", "k_rot", "d_rot", "kq_floor", "kqd_floor"):
            if not np.all(np.asarray(getattr(self, name)) >= 0.0):
                raise ValueError(f"{name} must be nonnegative")
        if self.dt > STEP_DT_MAX:
            raise ValueError(f"dt must be in (0, {STEP_DT_MAX}]")


def build_operational_gains(kp_diag: np.ndarray,
                            config: ImpedanceConfig) -> tuple:
    """Diagonal Cartesian gains from a scheduled translational stiffness.

    Returns the (..., 2, 6) stiffness and damping diagonals, translation
    then rotation, and per row whether the stiffness was clamped.
    Translational damping follows the critical-damping rule per axis,
    D = 2 zeta sqrt(k m_eff); rotational gains come straight from config.
    Out-of-range stiffness entries are clamped to [k_min, k_max]; nothing
    warns, so concurrent loops never touch the process-wide warning filters.
    `kp_diag` is a 3-vector or a (..., 3) stack, one row per trial.
    """
    kp = as_vec3(kp_diag)
    clamped = np.minimum(np.maximum(kp, config.k_min), config.k_max)
    gains = np.empty(kp.shape[:-1] + (2, 6))
    gains[..., 0, :3] = clamped
    gains[..., 0, 3:] = config.k_rot
    gains[..., 1, :3] = 2.0 * config.zeta * np.sqrt(clamped * config.m_eff)
    gains[..., 1, 3:] = config.d_rot
    return gains, (clamped != kp).any(axis=-1)


def fold_to_joint_gains(j: np.ndarray, gains: np.ndarray,
                        floors: np.ndarray) -> np.ndarray:
    """Fold operational-space gains through the Jacobian, plus diagonal floors.

    `gains` holds the (..., 2, 6) stiffness and damping diagonals of
    `build_operational_gains`; the result is the (..., 2, n, n) stack
    [Kq_p; Kq_d]. `floors` is the (2, n, n) stack of diagonal matrices
    [Kq_floor; Kqd_floor], which keeps the folded gains strictly positive
    definite at singular configurations. A (..., 6, n) stack of Jacobians
    folds a matching stack of gains.
    """
    # J^T diag(k) J as (J^T * k) @ J: the same bits as with the full 6x6 matrix
    jt = j.swapaxes(-1, -2)[..., None, :, :]
    kq = (jt * gains[..., None, :]) @ j[..., None, :, :] + floors
    # enforce exact symmetry against float round-off
    return (kq + kq.swapaxes(-1, -2)) / 2.0


def control_torque(gains: np.ndarray, q_d, q, qdot_d, qdot,
                   bias: np.ndarray) -> np.ndarray:
    """tau = Kq_p (q_d - q) + Kq_d (qdot_d - qdot) + bias, bias = C qdot + g,
    with `gains` the (..., 2, n, n) stack [Kq_p; Kq_d]."""
    e = np.asarray(q_d, dtype=float) - np.asarray(q, dtype=float)
    ed = np.asarray(qdot_d, dtype=float) - np.asarray(qdot, dtype=float)
    return (gains[..., 0, :, :] @ e[..., None])[..., 0] \
        + (gains[..., 1, :, :] @ ed[..., None])[..., 0] + bias


class ImpedanceExecutor:
    """One DLS step, gain fold, and torque per tick, for any number of loops.

    An executor holds only its config and the constants derived from it.
    The first-order filter state of the finite-difference target velocity
    qdot_d is the array pair (prev_q_d, qdot_d_filtered), shaped like the
    states it goes with (one row per trial of a batch), or None before a
    loop's first tick: each tick takes it and returns its next value, so the
    caller holds it beside the plant state, and one executor may tick
    independent loops in turn or concurrently.
    """

    def __init__(self, dyn_model: ArmDynamicsModel, config: ImpedanceConfig):
        self.chain = dyn_model.chain
        self.dyn_model = dyn_model
        self.config = config
        rc = 1.0 / (2.0 * np.pi * config.qd_filter_cutoff)
        self._alpha = config.dt / (config.dt + rc)
        floors = np.empty((2, self.chain.dof))   # [Kq_floor; Kqd_floor] diagonals
        floors[0], floors[1] = config.kq_floor, config.kqd_floor
        self._floors = floors[:, :, None] * np.eye(self.chain.dof)

    def closed_loop_tick(self, state: SimState, target: Pose, gains: np.ndarray,
                         plane: Optional[ContactPlane], filtered: Optional[tuple]
                         ) -> tuple[SimState, ChainFrames, np.ndarray, np.ndarray,
                                    tuple]:
        """One control step: one forward pass and one dynamics evaluation
        shared by the controller and the plant. Returns the plant state after
        it, the frames of `state`, the pose error, the limit clamps, and the
        next qdot_d filter state."""
        frames = chain_frames(self.chain, state.q)
        terms = inverse_dynamics_terms(self.dyn_model, state.q, state.qdot,
                                       frames)
        tau, xi, limits_clamped, filtered = self.execute_tick(
            state, target, gains, frames, terms[1], filtered)
        next_state = step(state, tau, plane, self.config.dt, terms, frames)
        return next_state, frames, xi, limits_clamped, filtered

    def execute_tick(self, state: SimState, target: Pose, gains: np.ndarray,
                     frames: ChainFrames, bias: np.ndarray,
                     filtered: Optional[tuple]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
        """Controller half of a tick toward the virtual `target` with the
        (..., 2, 6) operational `gains` of `build_operational_gains`, given
        the frames and the bias C qdot + g of `state` and the qdot_d filter
        state `filtered`. Returns the torque, the pose error, per row whether
        a joint target hit its limit, and the next filter state."""
        cfg = self.config
        xi = pose_error(target, frames.ee_pose)
        j = frames.jacobian

        # single DLS update per tick; solve_ik exists for initialization only
        q_d_raw = state.q + dls_step(j, xi, cfg.ik_damping)
        q_d = self.chain.clamp_to_limits(q_d_raw)
        limits_clamped = (q_d != q_d_raw).any(axis=-1)

        # target velocity = finite difference of successive IK targets, so it
        # vanishes at steady state even when contact blocks the virtual target
        if filtered is None:
            qdot_d = np.zeros_like(q_d)
            qdot_d_raw = np.zeros_like(q_d)
        else:
            prev_q_d, qdot_d = filtered
            qdot_d_raw = (q_d - prev_q_d) / cfg.dt
        qdot_d = qdot_d + self._alpha * (qdot_d_raw - qdot_d)

        joint_gains = fold_to_joint_gains(j, gains, self._floors)
        tau = control_torque(joint_gains, q_d, state.q, qdot_d, state.qdot, bias)
        return tau, xi, limits_clamped, (q_d, qdot_d)
