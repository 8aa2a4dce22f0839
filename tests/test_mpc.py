"""Corrective MPC: model math, discretization, QP tick."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from driftcorner import mpc
from driftcorner.errors import SingularSpeed
from driftcorner.mpc import (
    N_AUG,
    N_INPUT,
    N_STATE,
    N_STEPS,
    T_S,
    V_EPS,
    CartesianState,
    MpcInput,
    condense,
    discretize_augment,
    dynamics_rhs,
    expm,
    linearize,
    solve_qp,
)
from driftcorner.plant import VehicleParams

from qp_grid import predict

PARAMS = VehicleParams()


def random_ref(rng):
    return CartesianState(
        x=float(rng.normal(0, 20)), y=float(rng.normal(0, 20)),
        phi=float(rng.uniform(-math.pi, math.pi)),
        v_x=float(rng.uniform(3.0, 15.0)),
        v_y=float(rng.normal(0, 1.5)), yaw_rate=float(rng.normal(0, 0.8)),
    )


# -- continuous model and Jacobians ------------------------------------


def test_jacobians_match_finite_differences(rng):
    for _ in range(20):
        ref = random_ref(rng)
        u0 = np.array([float(rng.uniform(-0.3, 0.3)),
                       float(rng.uniform(-4.0, 2.0))])
        a, b = linearize(ref, PARAMS)
        x0 = np.array(ref)
        eps = 1e-6
        for j in range(N_STATE):
            dx = np.zeros(N_STATE)
            dx[j] = eps
            fd = (dynamics_rhs(x0 + dx, u0, PARAMS)
                  - dynamics_rhs(x0 - dx, u0, PARAMS)) / (2 * eps)
            assert np.max(np.abs(fd - a[:, j])) < 1e-5
        for j in range(N_INPUT):
            du = np.zeros(N_INPUT)
            du[j] = eps
            fd = (dynamics_rhs(x0, u0 + du, PARAMS)
                  - dynamics_rhs(x0, u0 - du, PARAMS)) / (2 * eps)
            assert np.max(np.abs(fd - b[:, j])) < 1e-5


def test_rhs_is_singular_below_speed_guard():
    slow = CartesianState(0, 0, 0, 0.4, 0, 0)
    with pytest.raises(SingularSpeed):
        dynamics_rhs(np.array(slow), np.zeros(2), PARAMS)
    with pytest.raises(SingularSpeed):
        linearize(slow, PARAMS)


def _stack(refs):
    return CartesianState(*np.array(refs).T)


def test_stacked_model_matches_point_by_point(rng):
    refs = [random_ref(rng) for _ in range(64)]
    a_s, b_s = linearize(_stack(refs), PARAMS)
    a_aug_s, b_aug_s = discretize_augment(a_s, b_s)
    assert a_s.shape == (64, N_STATE, N_STATE) and b_s.shape == (64, N_STATE, N_INPUT)
    assert a_aug_s.shape == (64, N_AUG, N_AUG) and b_aug_s.shape == (64, N_AUG, N_INPUT)
    for i, ref in enumerate(refs):
        a, b = linearize(ref, PARAMS)
        np.testing.assert_array_equal(a_s[i], a)
        np.testing.assert_array_equal(b_s[i], b)
        a_aug, b_aug = discretize_augment(a, b)
        np.testing.assert_allclose(a_aug_s[i], a_aug, rtol=0, atol=1e-13)
        np.testing.assert_allclose(b_aug_s[i], b_aug, rtol=0, atol=1e-13)


def test_point_model_keeps_its_shapes(rng):
    a, b = linearize(random_ref(rng), PARAMS)
    assert a.shape == (N_STATE, N_STATE) and b.shape == (N_STATE, N_INPUT)
    a_aug, b_aug = discretize_augment(a, b)
    assert a_aug.shape == (N_AUG, N_AUG) and b_aug.shape == (N_AUG, N_INPUT)
    np.testing.assert_array_equal(b_aug, a_aug[:, N_STATE:])


def test_stacked_linearize_is_singular_if_any_speed_is(rng):
    refs = [random_ref(rng) for _ in range(5)]
    refs[3] = refs[3]._replace(v_x=0.9 * V_EPS)
    with pytest.raises(SingularSpeed):
        linearize(_stack(refs), PARAMS)


def test_straight_rolling_is_equilibrium_in_lateral_states():
    ref = CartesianState(0, 0, 0, 10.0, 0.0, 0.0)
    dot = dynamics_rhs(np.array(ref), np.zeros(2), PARAMS)
    assert dot[4] == 0.0 and dot[5] == 0.0
    assert dot[0] == pytest.approx(10.0)


# -- matrix exponential and discretization -----------------------------


def test_expm_matches_scipy(rng):
    scales = (0.01, 1.0, 8.0)
    for scale in scales:
        a = rng.normal(0, scale, (6, 6))
        np.testing.assert_allclose(expm(a), scipy.linalg.expm(a),
                                   rtol=1e-10, atol=1e-10)
    # one stack shares the scaling its largest norm sets
    stack = np.array([rng.normal(0, scale, (6, 6)) for scale in scales])
    out = expm(stack)
    for a, e in zip(stack, out):
        np.testing.assert_allclose(e, scipy.linalg.expm(a),
                                   rtol=1e-10, atol=1e-10)


def test_discretization_matches_integrated_linear_system(rng):
    # ZOH oracle: integrate x' = A x + B u with constant u
    ref = random_ref(rng)
    a, b = linearize(ref, PARAMS)
    a_aug, b_aug = discretize_augment(a, b)
    x0 = rng.normal(0, 0.5, N_STATE)
    u_prev = np.array([0.1, -0.5])
    du = np.array([0.02, 0.3])

    def rhs(_t, x):
        return a @ x + b @ (u_prev + du)

    ref_x = solve_ivp(rhs, (0, T_S), x0, rtol=1e-12, atol=1e-13).y[:, -1]
    gamma = np.concatenate([x0, u_prev])
    nxt = a_aug @ gamma + b_aug @ du
    assert np.max(np.abs(nxt[:N_STATE] - ref_x)) < 1e-8
    np.testing.assert_allclose(nxt[N_STATE:], u_prev + du, atol=1e-15)


def test_predict_two_step_composition(rng):
    # the grid oracle's prediction, which the QP tests measure cost with
    a, b = linearize(random_ref(rng), PARAMS)
    a_d, b_d = discretize_augment(a, b)
    g0 = rng.normal(size=N_AUG)
    d1, d2 = rng.normal(0, 0.05, (2, N_INPUT))
    g1, g2 = predict(g0, (a_d, b_d, a_d, b_d), np.concatenate([d1, d2]))
    np.testing.assert_allclose(g1, a_d @ g0 + b_d @ d1, atol=1e-14)
    np.testing.assert_allclose(g2, a_d @ g1 + b_d @ d2, atol=1e-14)


# -- closed-form sanity of one MPC tick --------------------------------

REF = CartesianState(0, 0, 0, 9.0, 0.0, 0.0)  # straight at 9 m/s


def _tick_qp(deviation, u_prev=MpcInput(0.0, 0.0)):
    """The tick's QP at REF: every prediction step linearized there,
    the augmented deviation carrying the previous input."""
    mat = discretize_augment(*linearize(REF, PARAMS))
    gamma_aug = np.concatenate([deviation, np.asarray(u_prev)])
    return solve_qp(gamma_aug, condense(mat * N_STEPS))


def _deviation(**fields):
    return np.array(CartesianState(0, 0, 0, 0, 0, 0)._replace(**fields))


def test_qp_accumulates_rate_onto_previous_input():
    deviation = _deviation(y=0.3, phi=0.02, v_y=0.1, yaw_rate=0.05)
    u_prev = MpcInput(0.05, 0.5)
    du_k, du_later, sol = _tick_qp(deviation, u_prev)
    np.testing.assert_array_equal(sol.z, np.concatenate([du_k, du_later]))
    # the predicted input channels hold the previous input plus the rates
    # so far, summed in order
    mat = discretize_augment(*linearize(REF, PARAMS))
    gamma_aug = np.concatenate([deviation, np.asarray(u_prev)])
    inputs = [x[N_STATE:] for x in predict(gamma_aug, mat * N_STEPS, sol.z)]
    sums = np.cumsum([u_prev, *np.reshape(sol.z, (N_STEPS, N_INPUT))], axis=0)[1:]
    np.testing.assert_allclose(inputs, sums, rtol=0, atol=1e-15)
    assert sol.kkt_residual < 1e-8


def test_mpc_on_reference_does_nothing():
    # no deviation and no correction held: no correction
    _, _, sol = _tick_qp(np.zeros(N_STATE))
    assert not sol.z.any()


def test_mpc_corrects_toward_reference():
    # left of the reference line: the first steering move is negative
    du_k, _, _ = _tick_qp(_deviation(y=0.5))
    assert du_k[0] < 0.0
    # and a slow vehicle is told to speed up
    du_k, _, _ = _tick_qp(_deviation(v_x=-2.0))
    assert du_k[1] > 0.0


def test_mpc_rate_limits_bind(monkeypatch):
    # light input-rate penalty and a big speed error: accel rate saturates
    monkeypatch.setattr(mpc, "R", np.diag([0.1, 0.1]))
    du_k, _, sol = _tick_qp(_deviation(v_x=-4.0))
    assert du_k[1] == pytest.approx(mpc.DU_MAX[1])
    assert len(sol.active) > 0
    assert sol.kkt_residual < 1e-8
