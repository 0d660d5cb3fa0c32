"""Link-frame recursive Newton-Euler dynamics, kept as a test-only oracle.

An independent formulation of M and the bias C qdot + g: rotations are
rebuilt from q, velocities and accelerations are propagated outward in each
link's own frame, and forces are summed back inward. The library computes the
same terms from world-frame link Jacobians, so agreement checks the physics
and the frame bookkeeping of both.
"""

import numpy as np

from contactctl.geometry import cross3, rotation_about_axis, skew

_ZERO3 = np.zeros(3)


def joint_rotations(chain, q) -> list:
    """Parent-to-link rotations (offset rotation times joint rotation)."""
    return [chain.offset_rotations[i] @ rotation_about_axis(chain.axes[i], q[i])
            for i in range(chain.dof)]


def rnea(model, q, qdot, qddot, gravity) -> np.ndarray:
    """Joint torques realizing (qdot, qddot) at q; gravity enters through
    the base-acceleration trick."""
    chain = model.chain
    n = chain.dof
    rots = joint_rotations(chain, np.asarray(q, dtype=float))
    w = _ZERO3
    wd = _ZERO3
    a = -np.asarray(gravity, dtype=float)
    f_links = []
    n_links = []
    for i in range(n):
        axis = chain.axes[i]
        rt = rots[i].T
        p_off = chain.offset_translations[i]
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
            p_child = chain.offset_translations[i + 1]
            f_down = rot_child @ f_child
            n_down = rot_child @ n_child + cross3(p_child, f_down)
            f_i = f_links[i] + f_down
            n_i = n_links[i] + cross3(model.link_coms[i], f_links[i]) + n_down
        else:
            f_i = f_links[i]
            n_i = n_links[i] + cross3(model.link_coms[i], f_links[i])
        tau[i] = chain.axes[i] @ n_i
        f_child = f_i
        n_child = n_i
    return tau


def mass_matrix(model, q) -> np.ndarray:
    """All unit-acceleration Newton-Euler columns in one batched pass.

    With zero velocity and zero gravity the recursion is linear in qddot, so
    the n columns propagate together as (3, n) blocks.
    """
    chain = model.chain
    n = chain.dof
    rots = joint_rotations(chain, np.asarray(q, dtype=float))
    wd = np.zeros((3, n))
    a = np.zeros((3, n))
    f_links, n_links = [], []
    for i in range(n):
        rt = rots[i].T
        a = rt @ (a - skew(chain.offset_translations[i]) @ wd)
        wd = rt @ wd
        wd[:, i] += chain.axes[i]
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
                + skew(chain.offset_translations[i + 1]) @ f_down
        m[i, :] = chain.axes[i] @ n_i
        f_child = f_i
        n_child = n_i
    return (m + m.T) / 2.0
