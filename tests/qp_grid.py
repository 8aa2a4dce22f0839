"""Oracles for the tracking QP.

The KKT certificate is the oracle at the program's horizon, `N_STEPS`:
it finds nonnegative multipliers of the rows that hold at a solution,
so it certifies the global minimum of a strictly convex QP without
enumerating working sets.

The brute-force grid is a two-step oracle, whatever `N_STEPS` is: it
needs 41^(2N) points, so it cannot go past N = 2.  It evaluates the
true two-step tracking objective (squared state deviations plus input
rates, via the prediction model itself rather than the QP's condensed
matrices) on a dense per-axis grid of the rate box, masks out points
violating the accumulated-input box, and returns the minimum.  The
solver it checks is `solve_box_qp` on a two-step problem built on
purpose (`random_instance(..., n_steps=2)`, `solve_two_step`).  The
targets are zero: the state is the deviation from the reference.
"""

import numpy as np
from scipy.optimize import nnls

from driftcorner.mpc import (
    DU_MAX,
    DU_MIN,
    N_INPUT,
    N_STATE,
    N_STEPS,
    Q,
    R,
    U_MAX,
    U_MIN,
    CartesianState,
    condense,
    discretize_augment,
    linearize,
    solve_box_qp,
)


def predict(gamma_aug, mats, z):
    """The augmented states x_1 .. x_N of x_{j+1} = A_j x_j + B_j du_j
    from x_0 = gamma_aug, for the step models (A_0, B_0, ..., A_{N-1},
    B_{N-1}) and the stacked rates z."""
    states, x = [], gamma_aug
    for j in range(len(mats) // 2):
        x = mats[2 * j] @ x + mats[2 * j + 1] @ z[j * N_INPUT:(j + 1) * N_INPUT]
        states.append(x)
    return states


def true_objective(z, gamma_aug, mats):
    """Tracking cost of a stacked rate vector, from first principles."""
    du = np.reshape(z, (-1, N_INPUT))
    return float(sum(x[:N_STATE] @ Q @ x[:N_STATE] for x in predict(gamma_aug, mats, z))
                 + sum(d @ R @ d for d in du))


def objective_qp(mats):
    """H and F of the QP of `true_objective`, by polarization: the cost
    is 1/2 z'Hz + (F gamma_aug)'z + c(gamma_aug), so its values at unit
    vectors of z and of gamma_aug give H and F without `condense`."""
    n_z, n_aug = len(mats) // 2 * N_INPUT, mats[0].shape[-1]
    unit_z, unit_x = np.eye(n_z), np.eye(n_aug)
    zero_z, zero_x = np.zeros(n_z), np.zeros(n_aug)
    on_z = [true_objective(e, zero_x, mats) for e in unit_z]
    h = np.array([[true_objective(unit_z[i] + unit_z[j], zero_x, mats) - on_z[i] - on_z[j]
                   for j in range(n_z)] for i in range(n_z)])
    f = np.array([[true_objective(unit_z[i], e, mats) - true_objective(zero_z, e, mats)
                   - on_z[i] for e in unit_x] for i in range(n_z)])
    return h, f


def tracking_box(gamma_aug, n_steps):
    """A z <= b of the rate box on each du_{k+j} and the input box on
    each u(k+j) = u_{k-1} + du_k + ... + du_{k+j}, row by row."""
    eye, tri = np.eye(n_steps * N_INPUT), np.kron(np.tri(n_steps), np.eye(N_INPUT))
    u_prev = np.tile(gamma_aug[N_STATE:], n_steps)
    a = np.vstack([eye, -eye, tri, -tri])
    b = np.concatenate([np.tile(DU_MAX, n_steps), -np.tile(DU_MIN, n_steps),
                        np.tile(U_MAX, n_steps) - u_prev, u_prev - np.tile(U_MIN, n_steps)])
    return a, b


def kkt_certificate(h, g, a, b, z):
    """(stationarity, violation) of z for min 1/2 z'Hz + g'z s.t. a z <= b,
    both relative.  The rows that hold with equality at z (to 1e-9 of
    the largest bound) get multipliers lam >= 0 from a nonnegative least
    squares fit of H z + g + A_act' lam = 0; stationarity is what that
    fit leaves of H z + g, over the larger of |H z| and |g|, and the
    violation is the largest excess of a z over b, over the largest
    bound.  Both near rounding certify z as the global minimum of a
    strictly convex QP."""
    grad = h @ z + g
    scale_b = float(np.max(np.abs(b)))
    slack = a @ z - b
    act = slack >= -1e-9 * scale_b
    residual = nnls(a[act].T, -grad)[1] if act.any() else float(np.linalg.norm(grad))
    scale_g = max(float(np.linalg.norm(h @ z)), float(np.linalg.norm(g)), 1e-300)
    return residual / scale_g, max(float(slack.max()), 0.0) / scale_b


def grid_minimum(gamma_aug, mats, n_per_axis=41):
    """Minimum of the true two-step objective over the dense feasible
    grid, for two step models (A_0, B_0, A_1, B_1).

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


def random_instance(rng, params, scale=1.0, n_steps=N_STEPS):
    """A realistic solver input: the models at a random reference point
    (used for each of `n_steps` steps) and an augmented deviation from
    it, its state part `scale` times a typical tracking error.  At scale
    1 the unconstrained minimizer is mostly feasible; at scale 30 it
    often is not.  The draws do not depend on `n_steps`."""
    ref = CartesianState(
        x=0.0, y=0.0, phi=float(rng.uniform(-np.pi, np.pi)),
        v_x=float(rng.uniform(3.0, 15.0)),
        v_y=float(rng.normal(0, 1.0)), yaw_rate=float(rng.normal(0, 0.5)),
    )
    mats = discretize_augment(*linearize(ref, params)) * n_steps
    deviation = scale * rng.normal(0, 0.3, 6) * np.array(
        [1.0, 1.0, 0.1, 0.5, 0.5, 0.3])
    u_prev = np.array([float(rng.uniform(-0.4, 0.4)),
                       float(rng.uniform(-6.0, 2.5))])
    return np.concatenate([deviation, u_prev]), mats


def solve_two_step(gamma_aug, mats):
    """`solve_box_qp` on the condensed QP of two step models, with the
    box of `tracking_box`: the two-step solve that the grid checks."""
    qp = condense(mats)
    return solve_box_qp(qp.h, qp.f @ gamma_aug, *tracking_box(gamma_aug, 2),
                        z_free=qp.k @ gamma_aug)


def qp_vs_grid_gap(rng, params, scale=1.0, n_per_axis=41):
    """(gap, the solution) of one random two-step instance: positive gap
    means the dense grid found something better than the QP."""
    gamma_aug, mats = random_instance(rng, params, scale, n_steps=2)
    sol = solve_two_step(gamma_aug, mats)
    j_qp = true_objective(sol.z, gamma_aug, mats)
    return j_qp - grid_minimum(gamma_aug, mats, n_per_axis), sol
