"""Master-slave gripper loop: PD tracking, torque reflection, force estimate.

The slave motor tracks the scaled master position,

    tau_s = Kp (b theta_m - theta_s - delta) + Kd (b thetadot_m - thetadot_s),

and the master renders the filtered slave torque back to the operator with a
local velocity-compensation term,

    tau_m = -(1/a) tau_s_filtered + B_l thetadot_m.

With the sign convention used here the B_l term offsets part of the drag the
reflection induces during motion (it is not damping injection). The internal
grasp force is estimated from motor current through the transmission,
F = k_tau i / r_g, with the slave current derived from its commanded torque
(ideal current control). Both motors are simulated as inertias under applied
torque; integration is semi-implicit Euler.

The step functions trust their settings, which GripperParams and the config
loader check; they raise only a BilateralFault, on a non-finite state.
"""

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np


class BilateralFault(RuntimeError):
    """Non-finite state while stepping the gripper loop."""


@dataclass
class GripperParams:
    k_tau: float = 0.05          # N*m/A motor torque constant
    r_g: float = 0.01            # m effective meshing radius
    kp: float = 5.0              # N*m/rad bilateral position gain
    kd: float = 0.045            # N*m*s/rad bilateral velocity gain
    b: float = 1.0               # master->slave position scaling
    delta: float = 0.0           # rad installation offset
    a: float = 2.0               # reflected-torque divisor
    b_l: float = 0.0             # N*m*s/rad master velocity compensation
    motor_inertia: float = 1e-4  # kg*m^2, both sides
    filter_cutoff: float = 20.0  # Hz, slave-torque filter
    viscous: float = 0.002       # N*m*s/rad motor friction
    w_max: float = 0.10          # m width at theta_s = 0
    width_per_rad: float = 0.01  # m/rad transmission ratio

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError("gripper parameters must be finite")
        for name in ("k_tau", "r_g", "a", "kp", "filter_cutoff", "motor_inertia", "width_per_rad"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("kd", "viscous"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class BilateralState:
    """Both motors' state; `bilateral_record` also takes (n,) array fields."""

    theta_m: float = 0.0
    theta_s: float = 0.0
    thetadot_m: float = 0.0
    thetadot_s: float = 0.0
    tau_s_filtered: float = 0.0
    current_s: float = 0.0


@dataclass
class GraspContactModel:
    """Linear spring object between the fingers."""

    object_width: float
    contact_stiffness: float

    def __post_init__(self):
        if self.object_width <= 0.0 or self.contact_stiffness <= 0.0:
            raise ValueError("object width and contact stiffness must be positive")


def slave_torque(state: BilateralState, params: GripperParams) -> float:
    return params.kp * (params.b * state.theta_m - state.theta_s - params.delta) \
        + params.kd * (params.b * state.thetadot_m - state.thetadot_s)


def master_torque(state: BilateralState, params: GripperParams) -> float:
    return -state.tau_s_filtered / params.a + params.b_l * state.thetadot_m


def estimate_internal_force(current: float, params: GripperParams) -> float:
    """Grasp-force estimate from motor current: F = k_tau i / r_g."""
    return params.k_tau * current / params.r_g


def low_pass(prev_filtered: float, raw: float, dt: float, cutoff: float) -> float:
    """First-order IIR step with alpha = dt / (dt + 1/(2 pi cutoff))."""
    alpha = dt / (dt + 1.0 / (2.0 * math.pi * cutoff))
    return prev_filtered + alpha * (raw - prev_filtered)


def width_from_angle(theta_s: float, params: GripperParams) -> float:
    return params.w_max - params.width_per_rad * theta_s


def angle_from_width(width: float, params: GripperParams) -> float:
    return (params.w_max - width) / params.width_per_rad


def grasp_contact_force(width: float, contact: Optional[GraspContactModel]) -> float:
    """Spring squeeze force; zero until the fingers close below the object width."""
    if contact is None or width >= contact.object_width:
        return 0.0
    return contact.contact_stiffness * (contact.object_width - width)


BILATERAL_DT_MAX = 0.005   # s, largest gripper step a config may set


def step_bilateral(state: BilateralState, master_drive_torque: float,
                   contact: Optional[GraspContactModel], params: GripperParams,
                   dt: float) -> BilateralState:
    """Advance both motors one step under the bilateral law.

    Master sees operator drive plus reflected torque; slave sees its PD
    command minus the contact reaction mapped through the transmission.
    """
    tau_s = slave_torque(state, params)
    tau_filtered = low_pass(state.tau_s_filtered, tau_s, dt, params.filter_cutoff)
    # master_torque of the state with its filter advanced
    tau_m = -tau_filtered / params.a + params.b_l * state.thetadot_m

    width = width_from_angle(state.theta_s, params)
    f_contact = grasp_contact_force(width, contact)
    contact_torque = params.width_per_rad * f_contact   # resists closing

    inertia = params.motor_inertia
    acc_m = (master_drive_torque + tau_m - params.viscous * state.thetadot_m) / inertia
    acc_s = (tau_s - contact_torque - params.viscous * state.thetadot_s) / inertia
    thetadot_m = state.thetadot_m + dt * acc_m
    thetadot_s = state.thetadot_s + dt * acc_s
    theta_m = state.theta_m + dt * thetadot_m
    theta_s = state.theta_s + dt * thetadot_s

    if not (math.isfinite(theta_m) and math.isfinite(theta_s)
            and math.isfinite(thetadot_m) and math.isfinite(thetadot_s)
            and math.isfinite(tau_filtered)):
        values = (theta_m, theta_s, thetadot_m, thetadot_s, tau_filtered)
        raise BilateralFault(f"bilateral state diverged: {values}")
    return BilateralState(theta_m, theta_s, thetadot_m, thetadot_s,
                          tau_filtered, tau_s / params.k_tau)


# per-step record layout for the internal-force stream of an episode
BILATERAL_SCHEMA = ("theta_m", "theta_s", "tau_s", "tau_s_filtered",
                    "tau_m", "current", "f_int", "width")


def bilateral_record(state: BilateralState, params: GripperParams) -> np.ndarray:
    """Episode rows matching BILATERAL_SCHEMA.

    A state of floats gives one row of 8; a state whose fields are (n,)
    arrays gives (n, 8) rows, each with the bits of its own scalar call.
    """
    tau_s = slave_torque(state, params)
    return np.stack([state.theta_m, state.theta_s, tau_s, state.tau_s_filtered,
                     master_torque(state, params), state.current_s,
                     estimate_internal_force(state.current_s, params),
                     width_from_angle(state.theta_s, params)], axis=-1)
