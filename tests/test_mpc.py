"""Corrective MPC: model math, discretization, actuator mapping."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from driftcorner.errors import SingularSpeed
from driftcorner.mpc import (
    CartesianState,
    MpcInput,
    MpcWeights,
    N_AUG,
    N_INPUT,
    N_STATE,
    accel_to_actuators,
    discretize_augment,
    dynamics_rhs,
    expm,
    linearize,
    predict_two_step,
    solve_qp,
)
from driftcorner.plant import ActuatorLimits, VehicleParams

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
        x0 = ref.vector()
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
        dynamics_rhs(slow.vector(), np.zeros(2), PARAMS)
    with pytest.raises(SingularSpeed):
        linearize(slow, PARAMS)


def test_straight_rolling_is_equilibrium_in_lateral_states():
    ref = CartesianState(0, 0, 0, 10.0, 0.0, 0.0)
    dot = dynamics_rhs(ref.vector(), np.zeros(2), PARAMS)
    assert dot[4] == 0.0 and dot[5] == 0.0
    assert dot[0] == pytest.approx(10.0)


# -- matrix exponential and discretization -----------------------------


def test_expm_matches_scipy(rng):
    for scale in (0.01, 1.0, 8.0):
        a = rng.normal(0, scale, (6, 6))
        np.testing.assert_allclose(expm(a), scipy.linalg.expm(a),
                                   rtol=1e-10, atol=1e-10)


def test_discretization_matches_integrated_linear_system(rng):
    # ZOH oracle: integrate x' = A x + B u with constant u
    ref = random_ref(rng)
    a, b = linearize(ref, PARAMS)
    t_s = 0.01
    a_aug, b_aug = discretize_augment(a, b, t_s)
    x0 = rng.normal(0, 0.5, N_STATE)
    u_prev = np.array([0.1, -0.5])
    du = np.array([0.02, 0.3])

    def rhs(_t, x):
        return a @ x + b @ (u_prev + du)

    ref_x = solve_ivp(rhs, (0, t_s), x0, rtol=1e-12, atol=1e-13).y[:, -1]
    gamma = np.concatenate([x0, u_prev])
    nxt = a_aug @ gamma + b_aug @ du
    assert np.max(np.abs(nxt[:N_STATE] - ref_x)) < 1e-8
    np.testing.assert_allclose(nxt[N_STATE:], u_prev + du, atol=1e-15)


def test_discretize_validates_sample_time(rng):
    a, b = linearize(random_ref(rng), PARAMS)
    with pytest.raises(ValueError):
        discretize_augment(a, b, 0.0)


def test_predict_two_step_composition(rng):
    a, b = linearize(random_ref(rng), PARAMS)
    a_d, b_d = discretize_augment(a, b, 0.01)
    g0 = rng.normal(size=N_AUG)
    d1, d2 = rng.normal(0, 0.05, (2, N_INPUT))
    g1, g2 = predict_two_step(g0, a_d, b_d, a_d, b_d, d1, d2)
    np.testing.assert_allclose(g1, a_d @ g0 + b_d @ d1, atol=1e-14)
    np.testing.assert_allclose(g2, a_d @ g1 + b_d @ d2, atol=1e-14)


# -- weights and actuator mapping --------------------------------------


def test_weights_validation():
    with pytest.raises(ValueError):
        MpcWeights(r=np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        MpcWeights(q=np.diag([-1.0, 1, 1, 1, 1, 1]))
    with pytest.raises(ValueError):
        MpcWeights(t_s=-0.01)


def test_accel_to_actuators_mapping():
    p, lim = VehicleParams(), ActuatorLimits()
    t_rt, p_b, clamped = accel_to_actuators(1.0, p, lim)
    assert t_rt == pytest.approx(p.m * 1.0 * p.r_w) and p_b == 0.0
    assert not clamped
    t_rt, p_b, clamped = accel_to_actuators(-2.0, p, lim)
    assert t_rt == 0.0
    assert p_b == pytest.approx(p.m * 2.0 * p.r_w / p.k_b)
    assert not clamped
    # beyond the envelope both channels clamp and report it
    assert accel_to_actuators(10.0, p, lim)[::2] == (lim.t_max, True)
    assert accel_to_actuators(-20.0, p, lim)[1:] == (lim.p_max, True)


def test_zero_accel_is_idle():
    assert accel_to_actuators(0.0) == (0.0, 0.0, False)


# -- closed-form sanity of one MPC tick --------------------------------


def _tick_qp(state, u_prev, ref1, ref2, lin_ref, weights=MpcWeights()):
    """The tick's QP: both prediction steps linearized at `lin_ref`,
    the augmented state carrying the previous input."""
    mat = discretize_augment(*linearize(lin_ref, PARAMS), weights.t_s)
    gamma_aug = np.concatenate([state.vector(), np.asarray(u_prev)])
    return solve_qp(gamma_aug, (ref1.vector(), ref2.vector()), (*mat, *mat),
                    weights)


def test_qp_accumulates_rate_onto_previous_input():
    ref = CartesianState(0, 0, 0, 9.0, 0.0, 0.0)
    state = CartesianState(0, 0.3, 0.02, 9.0, 0.1, 0.05)
    u_prev = MpcInput(0.05, 0.5)
    du_k, du_k1, diag = _tick_qp(state, u_prev, ref, ref, ref)
    np.testing.assert_array_equal(diag.du, np.concatenate([du_k, du_k1]))
    # the predicted input channels hold the previous input plus the rates
    g1, g2 = diag.predicted
    assert g1[N_STATE] == pytest.approx(u_prev.delta_f + du_k[0])
    assert g1[N_STATE + 1] == pytest.approx(u_prev.a_xt + du_k[1])
    np.testing.assert_allclose(g2[N_STATE:], g1[N_STATE:] + du_k1, atol=1e-15)
    assert diag.kkt_residual < 1e-8


def _rolling_refs(v=9.0, t_s=0.01):
    # reference points one and two sample periods ahead of the origin
    here = CartesianState(0, 0, 0, v, 0.0, 0.0)
    r1 = CartesianState(v * t_s, 0, 0, v, 0.0, 0.0)
    r2 = CartesianState(2 * v * t_s, 0, 0, v, 0.0, 0.0)
    return here, r1, r2


def test_mpc_on_reference_does_nothing():
    # exactly on a constant-speed straight reference: no correction
    here, r1, r2 = _rolling_refs()
    du_k, _, diag = _tick_qp(here, MpcInput(0.0, 0.0), r1, r2, here)
    assert abs(du_k[0]) < 1e-8 and abs(du_k[1]) < 1e-8
    assert diag.objective == pytest.approx(0.0, abs=1e-9)


def test_mpc_corrects_toward_reference():
    # start left of the reference line: the first steering move is negative
    here, r1, r2 = _rolling_refs()
    state = CartesianState(0, 0.5, 0.0, 9.0, 0.0, 0.0)
    du_k, _, _ = _tick_qp(state, MpcInput(0.0, 0.0), r1, r2, here)
    assert du_k[0] < 0.0
    # and a slow vehicle is told to speed up
    slow = CartesianState(0, 0, 0, 7.0, 0.0, 0.0)
    du_k, _, _ = _tick_qp(slow, MpcInput(0.0, 0.0), r1, r2, here)
    assert du_k[1] > 0.0


def test_mpc_rate_limits_bind():
    # light input-rate penalty and a big speed error: accel rate saturates
    here, r1, r2 = _rolling_refs()
    slow = CartesianState(0, 0, 0, 5.0, 0.0, 0.0)
    w = MpcWeights(r=np.diag([0.1, 0.1]))
    du_k, _, diag = _tick_qp(slow, MpcInput(0.0, 0.0), r1, r2, here, w)
    assert du_k[1] == pytest.approx(w.du_max[1])
    assert len(diag.active) > 0
    assert diag.kkt_residual < 1e-8
