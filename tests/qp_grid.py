"""Brute-force grid oracle for the two-step tracking QP.

Evaluates the true tracking objective (squared state deviations plus
input rates, via the prediction model itself rather than the QP's
condensed matrices) on a dense per-axis grid of the rate box, masks out
points violating the accumulated-input box, and returns the minimum.
The targets are zero: the state is the deviation from the reference.
"""

import numpy as np

from driftcorner.mpc import (
    DU_MAX,
    DU_MIN,
    N_STATE,
    Q,
    R,
    U_MAX,
    U_MIN,
    CartesianState,
    condense,
    discretize_augment,
    linearize,
    solve_qp,
)


def predict_two_step(gamma_aug, a_k, b_k, a_k1, b_k1, du_k, du_k1):
    """Two applications of the augmented prediction model."""
    g1 = a_k @ gamma_aug + b_k @ du_k
    g2 = a_k1 @ g1 + b_k1 @ du_k1
    return g1, g2


def true_objective(z, gamma_aug, mats):
    """Tracking cost of a stacked rate vector, from first principles."""
    du_k, du_k1 = np.asarray(z[:2]), np.asarray(z[2:])
    g1, g2 = predict_two_step(gamma_aug, *mats, du_k, du_k1)
    e1, e2 = g1[:N_STATE], g2[:N_STATE]
    return float(e1 @ Q @ e1 + e2 @ Q @ e2 + du_k @ R @ du_k + du_k1 @ R @ du_k1)


def grid_minimum(gamma_aug, mats, n_per_axis=41):
    """Minimum of the true objective over the dense feasible grid.

    The cost separates into terms in du_k, terms in du_k1, and a
    bilinear cross term, so the full n^4 grid reduces to an
    (n^2, n^2) broadcast.
    """
    a_k, b_k, a_k1, b_k1 = mats
    e = np.zeros((N_STATE, gamma_aug.shape[0]))
    e[:, :N_STATE] = np.eye(N_STATE)

    axes = [np.linspace(DU_MIN[d], DU_MAX[d], n_per_axis) for d in range(2)]
    dk = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)

    # step-1 deviation is affine in du_k; step-2 deviation is affine in both
    err1 = (e @ (a_k @ gamma_aug))[None, :] + dk @ (e @ b_k).T
    c2 = (e @ (a_k1 @ a_k @ gamma_aug))[None, :] + dk @ (e @ (a_k1 @ b_k)).T
    d2 = dk @ (e @ b_k1).T

    side_k = (np.einsum("ij,jk,ik->i", err1, Q, err1)
              + np.einsum("ij,jk,ik->i", c2, Q, c2)
              + np.einsum("ij,jk,ik->i", dk, R, dk))
    side_k1 = (np.einsum("ij,jk,ik->i", d2, Q, d2)
               + np.einsum("ij,jk,ik->i", dk, R, dk))
    cross = 2.0 * (c2 @ Q) @ d2.T
    total = side_k[:, None] + side_k1[None, :] + cross

    # accumulated-input feasibility
    u_prev = gamma_aug[N_STATE:]
    u1 = u_prev[None, :] + dk  # after du_k, shape (n^2, 2)
    ok1 = np.all((u1 >= U_MIN - 1e-12) & (u1 <= U_MAX + 1e-12), axis=1)
    # after du_k1: u1[i] + dk[j] within the box, per dimension
    ok2 = np.ones_like(total, dtype=bool)
    for d in range(2):
        pair = u1[:, d][:, None] + dk[:, d][None, :]
        ok2 &= (pair >= U_MIN[d] - 1e-12) & (pair <= U_MAX[d] + 1e-12)
    mask = ok1[:, None] & ok2
    if not mask.any():
        return np.inf
    return float(total[mask].min())


def random_instance(rng, params, scale=1.0):
    """A realistic solver input: the models at a random reference point
    (used for both steps) and an augmented deviation from it, its state
    part `scale` times a typical tracking error.  At scale 1 the
    unconstrained minimizer is feasible; at scale 30 it often is not."""
    ref = CartesianState(
        x=0.0, y=0.0, phi=float(rng.uniform(-np.pi, np.pi)),
        v_x=float(rng.uniform(3.0, 15.0)),
        v_y=float(rng.normal(0, 1.0)), yaw_rate=float(rng.normal(0, 0.5)),
    )
    mats = discretize_augment(*linearize(ref, params)) * 2
    deviation = scale * rng.normal(0, 0.3, 6) * np.array(
        [1.0, 1.0, 0.1, 0.5, 0.5, 0.3])
    u_prev = np.array([float(rng.uniform(-0.4, 0.4)),
                       float(rng.uniform(-6.0, 2.5))])
    return np.concatenate([deviation, u_prev]), mats


def qp_vs_grid_gap(rng, params, scale=1.0, n_per_axis=41):
    """(gap, the QP solution) of one random instance: positive gap means
    the dense grid found something better than the QP."""
    gamma_aug, mats = random_instance(rng, params, scale)
    _, _, sol = solve_qp(gamma_aug, condense(mats))
    j_qp = true_objective(sol.z, gamma_aug, mats)
    return j_qp - grid_minimum(gamma_aug, mats, n_per_axis), sol
