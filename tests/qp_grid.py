"""Brute-force grid oracle for the two-step tracking QP.

Evaluates the true tracking objective (squared state errors plus input
rates, via the prediction model itself rather than the QP's condensed
matrices) on a dense per-axis grid of the rate box, masks out points
violating the accumulated-input box, and returns the minimum.
"""

import numpy as np

from driftcorner.mpc import (
    CartesianState,
    MpcWeights,
    N_STATE,
    condense,
    discretize_augment,
    linearize,
    predict_two_step,
    solve_qp,
)


def true_objective(z, gamma_aug, refs, mats, weights):
    """Tracking cost of a stacked rate vector, from first principles."""
    du_k, du_k1 = np.asarray(z[:2]), np.asarray(z[2:])
    g1, g2 = predict_two_step(gamma_aug, *mats, du_k, du_k1)
    e1 = g1[:N_STATE] - refs[0]
    e2 = g2[:N_STATE] - refs[1]
    q, r = weights.q, weights.r
    return float(e1 @ q @ e1 + e2 @ q @ e2 + du_k @ r @ du_k + du_k1 @ r @ du_k1)


def grid_minimum(gamma_aug, refs, mats, weights, n_per_axis=41):
    """Minimum of the true objective over the dense feasible grid.

    The cost separates into terms in du_k, terms in du_k1, and a
    bilinear cross term, so the full n^4 grid reduces to an
    (n^2, n^2) broadcast.
    """
    a_k, b_k, a_k1, b_k1 = mats
    q, r = weights.q, weights.r
    e = np.zeros((N_STATE, gamma_aug.shape[0]))
    e[:, :N_STATE] = np.eye(N_STATE)

    axes = [np.linspace(weights.du_min[d], weights.du_max[d], n_per_axis)
            for d in range(2)]
    dk = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)

    # step-1 error is affine in du_k; step-2 error is affine in both
    err1 = (e @ (a_k @ gamma_aug))[None, :] + dk @ (e @ b_k).T - refs[0]
    c2 = (e @ (a_k1 @ a_k @ gamma_aug))[None, :] + dk @ (e @ (a_k1 @ b_k)).T - refs[1]
    d2 = dk @ (e @ b_k1).T

    side_k = (np.einsum("ij,jk,ik->i", err1, q, err1)
              + np.einsum("ij,jk,ik->i", c2, q, c2)
              + np.einsum("ij,jk,ik->i", dk, r, dk))
    side_k1 = (np.einsum("ij,jk,ik->i", d2, q, d2)
               + np.einsum("ij,jk,ik->i", dk, r, dk))
    cross = 2.0 * (c2 @ q) @ d2.T
    total = side_k[:, None] + side_k1[None, :] + cross

    # accumulated-input feasibility
    u_prev = gamma_aug[N_STATE:]
    u1 = u_prev[None, :] + dk  # after du_k, shape (n^2, 2)
    ok1 = np.all((u1 >= weights.u_min - 1e-12)
                 & (u1 <= weights.u_max + 1e-12), axis=1)
    # after du_k1: u1[i] + dk[j] within the box, per dimension
    ok2 = np.ones_like(total, dtype=bool)
    for d in range(2):
        pair = u1[:, d][:, None] + dk[:, d][None, :]
        ok2 &= (pair >= weights.u_min[d] - 1e-12) & (pair <= weights.u_max[d] + 1e-12)
    mask = ok1[:, None] & ok2
    if not mask.any():
        return np.inf
    return float(total[mask].min())


def random_instance(rng, params):
    """A realistic solver input: random reference pair and offset state."""
    ref = CartesianState(
        x=0.0, y=0.0, phi=float(rng.uniform(-np.pi, np.pi)),
        v_x=float(rng.uniform(3.0, 15.0)),
        v_y=float(rng.normal(0, 1.0)), yaw_rate=float(rng.normal(0, 0.5)),
    )
    a, b = linearize(ref, params)
    weights = MpcWeights()
    mats = discretize_augment(a, b, weights.t_s) + \
        discretize_augment(a, b, weights.t_s)
    state = ref.vector() + rng.normal(0, 0.3, 6) * np.array(
        [1.0, 1.0, 0.1, 0.5, 0.5, 0.3])
    u_prev = np.array([float(rng.uniform(-0.4, 0.4)),
                       float(rng.uniform(-6.0, 2.5))])
    gamma_aug = np.concatenate([state, u_prev])
    refs = (ref.vector() + rng.normal(0, 0.2, 6),
            ref.vector() + rng.normal(0, 0.2, 6))
    return gamma_aug, refs, mats, weights


def qp_vs_grid_gap(rng, params, n_per_axis=41):
    """(gap, kkt_residual) of one random instance: positive gap means
    the dense grid found something better than the QP."""
    gamma_aug, refs, mats, weights = random_instance(rng, params)
    du_k, du_k1, sol = solve_qp(gamma_aug, condense(mats, weights), weights, refs)
    z = np.concatenate([du_k, du_k1])
    j_qp = true_objective(z, gamma_aug, refs, mats, weights)
    j_grid = grid_minimum(gamma_aug, refs, mats, weights, n_per_axis)
    return j_qp - j_grid, sol.kkt_residual
