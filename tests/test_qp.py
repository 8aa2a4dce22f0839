"""Active-set QP solver: analytic cases and dense-grid comparisons."""

import numpy as np
import pytest

from driftcorner.errors import Infeasible
from driftcorner.mpc import A_INEQ, MpcWeights, condense, solve_box_qp, solve_qp
from driftcorner.plant import VehicleParams

from qp_grid import grid_minimum, qp_vs_grid_gap, random_instance, true_objective

PARAMS = VehicleParams()


def box_rows(n, lo, hi):
    a = np.vstack([np.eye(n), -np.eye(n)])
    b = np.concatenate([hi, -lo])
    return a, b


def test_unconstrained_minimum_inside_box():
    h = np.diag([2.0, 4.0, 1.0, 3.0])
    g = np.array([-2.0, 4.0, 0.5, -0.9])
    a, b = box_rows(4, -np.ones(4) * 10, np.ones(4) * 10)
    sol = solve_box_qp(h, g, a, b)
    np.testing.assert_allclose(sol.z, -g / np.diag(h), atol=1e-12)
    assert sol.active == []
    assert sol.kkt_residual < 1e-10


def test_separable_clipping():
    # diagonal H: the constrained optimum is the clipped unconstrained one
    h = np.diag([2.0, 2.0, 2.0, 2.0])
    g = np.array([-10.0, 1.0, -0.4, 6.0])
    lo, hi = -np.ones(4), np.ones(4)
    a, b = box_rows(4, lo, hi)
    sol = solve_box_qp(h, g, a, b)
    np.testing.assert_allclose(sol.z, np.clip(-g / 2.0, lo, hi), atol=1e-10)
    assert 0 in sol.active and 7 in sol.active


def test_coupled_constraint_optimum():
    # minimize (z0-1)^2 + (z1-1)^2 subject to z0 + z1 <= 1:
    # optimum at (0.5, 0.5) with the coupling row active
    h = 2.0 * np.eye(2)
    g = np.array([-2.0, -2.0])
    a = np.vstack([np.eye(2), -np.eye(2), np.ones((1, 2))])
    b = np.array([5.0, 5.0, 5.0, 5.0, 1.0])
    sol = solve_box_qp(h, g, a, b)
    np.testing.assert_allclose(sol.z, [0.5, 0.5], atol=1e-10)
    assert sol.active == [4]
    assert sol.kkt_residual < 1e-10


def test_random_instances_beat_dense_grid(rng):
    # the solver must never be worse than a 41-per-axis exhaustive grid
    for _ in range(10):
        gap, kkt = qp_vs_grid_gap(rng, PARAMS)
        assert gap <= 1e-6
        assert kkt < 1e-8


def test_zero_target_tick_takes_the_unconstrained_gain(rng):
    # the controller's case: a feasible K gamma_aug is the solution, found
    # in one iteration without a solve, and KKT-checked against F gamma_aug
    zero = (np.zeros(6), np.zeros(6))
    for _ in range(10):
        gamma_aug, refs, mats, weights = random_instance(rng, PARAMS)
        gamma_aug[:6] -= refs[0]  # a deviation from the reference
        qp = condense(mats, weights)
        du_k, du_k1, sol = solve_qp(gamma_aug, qp, weights)
        assert sol.iterations == 1 and sol.active == []
        np.testing.assert_array_equal(sol.z, qp.k @ gamma_aug)
        assert sol.kkt_residual < 1e-12
        # the same QP through the reference columns, with zero references
        np.testing.assert_allclose(
            solve_qp(gamma_aug, qp, weights, zero)[2].z, sol.z, rtol=0, atol=1e-14)


def test_binding_bound_falls_through_to_the_active_set(rng):
    # held acceleration just above its floor: the unconstrained minimizer
    # brakes through it, so the active set takes over from K gamma_aug
    zero = (np.zeros(6), np.zeros(6))
    for _ in range(5):
        gamma_aug, _, mats, weights = random_instance(rng, PARAMS)
        gamma_aug[7] = weights.u_min[1] + 0.05
        qp = condense(mats, weights)
        du_k, du_k1, sol = solve_qp(gamma_aug, qp, weights)
        assert sol.iterations > 1 and sol.active
        b = np.concatenate([weights.du_max, -weights.du_min] * 2
                           + [weights.u_max - gamma_aug[6:],
                              gamma_aug[6:] - weights.u_min] * 2)
        assert np.max(A_INEQ @ (qp.k @ gamma_aug) - b) > 1e-3
        assert sol.kkt_residual < 1e-8
        j_qp = true_objective(sol.z, gamma_aug, zero, mats, weights)
        assert j_qp - grid_minimum(gamma_aug, zero, mats, weights) <= 1e-6


def test_solution_is_feasible_and_stationary(rng):
    for _ in range(20):
        gamma_aug, refs, mats, weights = random_instance(rng, PARAMS)
        du_k, du_k1, _ = solve_qp(gamma_aug, condense(mats, weights), weights, refs)
        z = np.concatenate([du_k, du_k1])
        assert np.all(z >= np.tile(weights.du_min, 2) - 1e-10)
        assert np.all(z <= np.tile(weights.du_max, 2) + 1e-10)
        u_prev = gamma_aug[6:]
        for u in (u_prev + du_k, u_prev + du_k + du_k1):
            assert np.all(u >= weights.u_min - 1e-9)
            assert np.all(u <= weights.u_max + 1e-9)
        # small inward perturbations never improve the true objective
        j0 = true_objective(z, gamma_aug, refs, mats, weights)
        for _ in range(8):
            trial = z + rng.normal(0, 1e-4, 4)
            trial = np.clip(trial, np.tile(weights.du_min, 2),
                            np.tile(weights.du_max, 2))
            ok = all(
                np.all(u >= weights.u_min - 1e-12)
                and np.all(u <= weights.u_max + 1e-12)
                for u in (u_prev + trial[:2], u_prev + trial[:2] + trial[2:])
            )
            if ok:
                assert true_objective(trial, gamma_aug, refs, mats,
                                      weights) >= j0 - 1e-9


def test_disjoint_boxes_raise():
    rng = np.random.default_rng(0)
    gamma_aug, refs, mats, weights = random_instance(rng, PARAMS)
    gamma_aug[6] = 5.0  # held steering far outside its box
    qp = condense(mats, weights)
    with pytest.raises(Infeasible):
        solve_qp(gamma_aug, qp, weights, refs)
    with pytest.raises(Infeasible):  # and with zero targets
        solve_qp(gamma_aug, qp, weights)


def test_weights_r_spot_values():
    w = MpcWeights()
    assert np.diag(w.q).tolist() == [50.0, 50.0, 20.0, 5.0, 5.0, 5.0]
    assert np.diag(w.r).tolist() == [200.0, 10.0]
