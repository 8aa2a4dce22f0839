"""Vehicle plant: tire model, integration accuracy, limits, termination."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from driftcorner import kernels
from driftcorner.errors import NumericalBlowup
from driftcorner.plant import (
    CONTROL_DT,
    SUBSTEP_DT,
    Action,
    ActuatorLimits,
    PlantState,
    TerminationConfig,
    TerminationMonitor,
    TireParams,
    VehicleParams,
    apply_actuator_limits,
    detect_termination,
    side_slip_rear,
    step,
    vehicle_corners,
)
from driftcorner.track import FrenetPoint, to_frenet

PARAMS = VehicleParams()
TIRES = TireParams()


# -- tire model --------------------------------------------------------


def test_magic_formula_basics():
    b, c, d, e, peak = 5.5, 1.9, 1.0, 0.97, 7000.0
    assert kernels.magic_formula(0.0, b, c, d, e, peak) == 0.0
    slips = np.linspace(-1.0, 1.0, 101)
    f = np.array([kernels.magic_formula(s, b, c, d, e, peak) for s in slips])
    np.testing.assert_allclose(f, -f[::-1], atol=1e-9)  # odd
    assert np.max(np.abs(f)) <= peak * d + 1e-9


def test_magic_formula_small_slip_slope():
    # analytic slope at the origin: B*C*D*peak
    b, c, d, e, peak = 5.5, 1.9, 1.0, 0.97, 7000.0
    h = 1e-7
    fd = (kernels.magic_formula(h, b, c, d, e, peak)
          - kernels.magic_formula(-h, b, c, d, e, peak)) / (2 * h)
    assert fd == pytest.approx(b * c * d * peak, rel=1e-6)


def test_cornering_stiffness_matches_tire_slope():
    # the linear-model stiffness helper must agree with the actual
    # small-slip slope of the axle force
    front, rear = TIRES.cornering_stiffness(PARAMS)
    fzf = PARAMS.m * kernels.G * PARAMS.l_r / PARAMS.wheelbase
    h = 1e-7
    slope = (kernels.magic_formula(h, TIRES.b_front, TIRES.c_front,
                                   TIRES.d_front, TIRES.e_front,
                                   TIRES.mu * fzf) / h)
    assert 2 * front == pytest.approx(slope, rel=1e-5)
    assert rear / front == pytest.approx(PARAMS.l_f / PARAMS.l_r, rel=1e-12)


# -- integration accuracy ----------------------------------------------


def test_rk4_tracks_adaptive_reference():
    # one control period against scipy's adaptive integrator on the
    # same right-hand side, away from any clamp
    state = PlantState.rolling(12.0, PARAMS, v_y=0.4, yaw_rate=0.3)
    delta, trt, pb = 0.1, 300.0, 0.0
    vp, tp = PARAMS.as_array(), TIRES.as_array()
    scratch = np.empty(8)

    def rhs(_t, y):
        kernels.derivative(y.copy(), delta, trt, pb, vp, tp, scratch)
        return scratch[:7].copy()

    y0 = state.dynamic_array()
    ref = solve_ivp(rhs, (0.0, CONTROL_DT), y0, rtol=1e-11, atol=1e-11).y[:, -1]
    out = step(state, Action(delta, trt, pb),
               limits=ActuatorLimits(delta_rate=1e9, t_rate=1e9, p_rate=1e9))
    got = out.dynamic_array()
    # chassis states are essentially exact; the wheel-spin DOF is the
    # stiffest and carries the fixed-step truncation error
    assert np.max(np.abs(got[:6] - ref[:6])) < 1e-7
    assert abs(got[6] - ref[6]) / abs(ref[6]) < 1e-6


def test_substep_count():
    assert int(round(CONTROL_DT / SUBSTEP_DT)) == 10


def test_step_is_deterministic():
    a = step(PlantState.rolling(9.0, PARAMS), Action(0.2, 400.0, 0.0))
    b = step(PlantState.rolling(9.0, PARAMS), Action(0.2, 400.0, 0.0))
    assert a == b


# -- qualitative dynamics ----------------------------------------------


def test_straight_coast_decelerates():
    state = PlantState.rolling(10.0, PARAMS)
    for _ in range(100):
        state = step(state, Action(0.0, 0.0, 0.0))
    assert 0.0 < state.v_x < 10.0
    assert abs(state.y) < 1e-6 and abs(state.phi) < 1e-6
    assert abs(state.v_y) < 1e-6 and abs(state.yaw_rate) < 1e-6
    # loss forces at ~10 m/s: rolling resistance + drag, order 0.15 m/s^2
    decel = (10.0 - state.v_x) / 1.0
    assert 0.05 < decel < 0.5


def test_drive_torque_accelerates():
    state = PlantState.rolling(8.0, PARAMS)
    for _ in range(100):
        state = step(state, Action(0.0, 800.0, 0.0))
    assert state.v_x > 8.5


def test_brake_slows_and_wheel_never_reverses():
    state = PlantState.rolling(12.0, PARAMS)
    for _ in range(200):
        state = step(state, Action(0.0, 0.0, 8.0))
        assert state.omega_r >= 0.0
        assert state.v_x >= 0.0
    assert state.v_x < 6.0


def test_steady_state_cornering_matches_linear_model():
    # low lateral acceleration: yaw-rate gain within 10% of the linear
    # bicycle prediction  r = v*delta / (L + K*v^2),
    # K = m*(l_r*C_r - l_f*C_f) / (2*C_f*C_r*L)  (axle stiffnesses)
    v, delta = 6.0, 0.03
    cf, cr = TIRES.cornering_stiffness(PARAMS)
    cf, cr = 2 * cf, 2 * cr
    k_us = PARAMS.m * (cr * PARAMS.l_r - cf * PARAMS.l_f) / (
        cf * cr * PARAMS.wheelbase)
    r_lin = v * delta / (PARAMS.wheelbase + k_us * v * v)
    state = PlantState.rolling(v, PARAMS)
    for _ in range(400):
        state = step(state, Action(delta, 60.0, 0.0))
    assert state.yaw_rate == pytest.approx(r_lin, rel=0.1)


def test_rear_slip_angle():
    state = PlantState(v_x=10.0, v_y=1.0, yaw_rate=0.5)
    got = side_slip_rear(state, PARAMS)
    assert not got.low_speed
    assert got.value == pytest.approx(
        math.atan2(1.0 - PARAMS.l_r * 0.5, 10.0), abs=1e-12)
    assert side_slip_rear(PlantState(v_x=0.05), PARAMS).low_speed


# -- actuator envelope -------------------------------------------------


def test_actuator_saturation_and_rate():
    lim = ActuatorLimits()
    latch = Action(0.0, 0.0, 0.0)
    out = apply_actuator_limits(Action(1.0, 5000.0, 50.0), latch, 0.01, lim)
    assert out.delta_f == pytest.approx(lim.delta_rate * 0.01)
    assert out.t_rt == pytest.approx(lim.t_rate * 0.01)
    assert out.p_b == pytest.approx(lim.p_rate * 0.01)
    # once the latch is at the cap, saturation is the binding constraint
    at_cap = Action(lim.delta_max, lim.t_max, lim.p_max)
    out = apply_actuator_limits(Action(1.0, 5000.0, 50.0), at_cap, 0.01, lim)
    assert out == at_cap


def test_negative_commands_clamp_to_zero():
    out = apply_actuator_limits(Action(0.0, -100.0, -1.0),
                                Action(0.0, 0.0, 0.0), 0.01, ActuatorLimits())
    assert out.t_rt == 0.0 and out.p_b == 0.0


def test_step_applies_latched_limits():
    state = PlantState.rolling(9.0, PARAMS)
    out = step(state, Action(0.5, 0.0, 0.0))
    assert out.delta_applied == pytest.approx(7.0 * CONTROL_DT)
    out2 = step(out, Action(0.5, 0.0, 0.0))
    assert out2.delta_applied == pytest.approx(2 * 7.0 * CONTROL_DT)


# -- sanity gates and termination --------------------------------------


def test_blowup_detection():
    with pytest.raises(NumericalBlowup):
        step(PlantState(v_x=59.0, v_y=20.0), Action(0.0, 0.0, 0.0))


def test_param_validation():
    with pytest.raises(ValueError):
        VehicleParams(m=-1.0)
    with pytest.raises(ValueError):
        VehicleParams(l_f=3.0, l_r=2.0)


def test_rollover_monitor_needs_consecutive_ticks():
    mon = TerminationMonitor(TerminationConfig(a_roll=8.0, t_roll=0.1))
    for _ in range(9):
        assert not mon.update(9.0)
    assert mon.update(9.0)  # 10th consecutive tick at 100 Hz = 0.1 s
    mon.reset()
    for i in range(50):  # interrupted runs never trigger
        assert not mon.update(9.0 if i % 3 else 0.0)


def test_vehicle_corners_geometry():
    corners = vehicle_corners(PlantState(x=1.0, y=2.0, phi=math.pi / 2), PARAMS)
    assert corners.shape == (4, 2)
    # at 90 deg heading the front corners sit above the c.g.
    assert np.max(corners[:, 1]) == pytest.approx(2.0 + PARAMS.l_f)
    assert np.min(corners[:, 1]) == pytest.approx(2.0 - PARAMS.l_r)


def test_detect_termination_states(uturn):
    mid = PlantState(x=10.0, y=0.0)
    assert detect_termination(mid, uturn, to_frenet((10.0, 0.0), uturn)) == "running"
    # 10 m left of the entry straight: too far out for to_frenet, so the
    # c.g. point is written out
    off = PlantState(x=10.0, y=10.0)
    assert detect_termination(off, uturn, FrenetPoint(10.0, 10.0)) == "crashed"
    x_end, y_end = uturn.x[-1], uturn.y[-1]
    done = PlantState(x=x_end, y=y_end, phi=math.pi)
    assert detect_termination(done, uturn, to_frenet((x_end, y_end), uturn)) == "completed"
