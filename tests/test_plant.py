"""Vehicle plant: tire model, integration accuracy, limits, termination."""

import dataclasses
import hashlib
import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from driftcorner import kernels, plant
from driftcorner.errors import AmbiguousProjection, NumericalBlowup, OffCorridor
from driftcorner.plant import (
    CONTROL_DT,
    SUBSTEP_DT,
    Action,
    PlantState,
    TerminationMonitor,
    TireParams,
    VehicleParams,
    apply_actuator_limits,
    detect_termination,
    side_slip_rear,
    step,
    vehicle_corners,
)
from driftcorner.track import (
    FrenetPoint,
    build_library_track,
    to_cartesian,
    to_frenet,
)

PARAMS = VehicleParams()
TIRES = TireParams()


@pytest.fixture()
def free_rates(monkeypatch):
    """Rate limits that never bind, so step applies the command as given."""
    for name in ("DELTA_RATE", "T_RATE", "P_RATE"):
        monkeypatch.setattr(plant, name, 1e9)


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
    slope = (kernels.magic_formula(h, TIRES.b, TIRES.c, TIRES.d, TIRES.e,
                                   TIRES.mu * fzf) / h)
    assert 2 * front == pytest.approx(slope, rel=1e-5)
    assert rear / front == pytest.approx(PARAMS.l_f / PARAMS.l_r, rel=1e-12)


# -- integration accuracy ----------------------------------------------


def test_rk4_tracks_adaptive_reference(free_rates):
    # one control period against scipy's adaptive integrator on the
    # same right-hand side, away from any clamp
    state = PlantState.rolling(12.0, v_y=0.4, yaw_rate=0.3)
    delta, trt, pb = 0.1, 300.0, 0.0

    def rhs(_t, y):
        return np.array(kernels.derivative(y, delta, trt, pb, PARAMS.m, TIRES.mu,
                                           TIRES.b, TIRES.d)[:7])

    y0 = np.array(state[:7])
    ref = solve_ivp(rhs, (0.0, CONTROL_DT), y0, rtol=1e-11, atol=1e-11).y[:, -1]
    out = step(state, Action(delta, trt, pb))
    got = np.array(out[:7])
    # chassis states are essentially exact; the wheel-spin DOF is the
    # stiffest and carries the fixed-step truncation error
    assert np.max(np.abs(got[:6] - ref[:6])) < 1e-7
    assert abs(got[6] - ref[6]) / abs(ref[6]) < 1e-6


def test_integrate_outputs_match_recorded_digest(free_rates):
    # sha256 over the integrated state bytes and a_y of 600 seeded
    # periods (mu 0.55 / 0.75 / 0.95; low speeds, braking, both clamps),
    # recorded with the numpy-indexing kernel that the float-local one
    # replaced.  plant.step hands the inputs to kernels.integrate
    # unchanged: the envelope holds every draw and the rates are free.
    rng = np.random.default_rng(11762)
    digest = hashlib.sha256()
    for mu in (0.55, 0.75, 0.95):
        tires = TireParams(mu=mu)
        for _ in range(200):
            v_x = rng.uniform(0.0, 25.0)
            state = PlantState(
                x=rng.uniform(-50, 50), y=rng.uniform(-50, 50),
                phi=rng.uniform(-np.pi, np.pi), v_x=v_x,
                v_y=rng.uniform(-4, 4), yaw_rate=rng.uniform(-2, 2),
                omega_r=v_x / PARAMS.r_w * rng.uniform(0.0, 2.0))
            cmd = Action(rng.uniform(-0.524, 0.524),
                         rng.choice([0.0, rng.uniform(0, 1000)]),
                         rng.choice([0.0, rng.uniform(0, 10)]))
            out = step(state, cmd, tires=tires, params=PARAMS)
            digest.update(np.array(out[:7]).tobytes())
            digest.update(np.float64(out.a_y).tobytes())
    assert digest.hexdigest() == (
        "1fa627248689349f630ba8e193626be6c8aab41a3eb94c48b8a329f497bf4306")


def _rk4_over_rhs(y, delta, trt, pb, dt, n_sub, m, mu, b, d, reached=None):
    """The plain RK4 loop over `kernels._rhs` that `integrate` writes out.
    Adds to `reached` the branches its stages took: the slip-angle guard
    (v_x <= 0.3), the slip-denominator floor (|v_x| < 0.5), the friction
    ellipse on each axle, and the v_x and omega clamps."""
    reached = set() if reached is None else reached
    ratios = []  # the two friction-ellipse ratios of every stage, front first

    def sqrt(value):
        ratios.append(math.sqrt(value))
        return ratios[-1]

    def rhs(phi, vx, vy, r, om):
        reached.update(name for name, hit in (("slip_guard", vx <= 0.3),
                                              ("slip_floor", abs(vx) < 0.5)) if hit)
        with mock.patch.object(kernels, "sqrt", sqrt):
            rates = kernels._rhs(phi, vx, vy, r, om, const)
        reached.update(name for name, ratio in zip(("ellipse_front", "ellipse_rear"),
                                                   ratios[-2:]) if ratio > 1.0)
        return rates

    const = kernels._period_constants(delta, trt, pb, m, mu, b, d)
    h = dt / n_sub
    hh, h6 = 0.5 * h, h / 6.0
    z = [float(v) for v in y]
    ay = 0.0
    for _ in range(n_sub):
        k1 = rhs(*z[2:])
        k2 = rhs(*(v + hh * k for v, k in zip(z[2:], k1[2:7])))
        k3 = rhs(*(v + hh * k for v, k in zip(z[2:], k2[2:7])))
        k4 = rhs(*(v + h * k for v, k in zip(z[2:], k3[2:7])))
        ay = k4[7]
        z = [v + h6 * (a + 2.0 * b_ + 2.0 * c + d_)
             for v, a, b_, c, d_ in zip(z, k1, k2, k3, k4)]
        for i, name in ((3, "clamp_vx"), (6, "clamp_omega")):
            if z[i] < 0.0:
                z[i] = 0.0
                reached.add(name)
    return (*z, ay)


_finite = dict(allow_nan=False, allow_infinity=False)
# (state, (delta, T_rt, P_b), (m, mu, B, D)) draws that between them take
# every branch of `_rk4_over_rhs`'s list
BRANCH_EXAMPLES = [
    # at rest, yawing and sliding, under full brake: the guard, the floor,
    # both clamps (v_y * r pulls v_x below 0) and the rear ellipse
    ((0.0, 0.0, 0.0, 0.0, 1.0, -3.0, 0.0), (0.0, 0.0, 10.0), (1800.0, 0.85, 5.5, 1.0)),
    # sliding sideways at 10 m/s, steered and braked to locked wheels: both ellipses
    ((3.0, -2.0, 1.0, 10.0, 3.0, 1.5, 0.0), (0.5, 0.0, 10.0), (1800.0, 0.85, 5.5, 1.0)),
]


@settings(max_examples=300, deadline=None)
@given(
    state=st.tuples(
        st.floats(-100.0, 100.0, **_finite), st.floats(-100.0, 100.0, **_finite),
        st.floats(-4.0, 4.0, **_finite),
        st.one_of(st.floats(-0.6, 0.6, **_finite), st.floats(0.0, 30.0, **_finite)),
        st.floats(-6.0, 6.0, **_finite), st.floats(-3.0, 3.0, **_finite),
        st.one_of(st.floats(0.0, 2.0, **_finite), st.floats(0.0, 100.0, **_finite))),
    inputs=st.tuples(st.floats(-0.6, 0.6, **_finite), st.floats(0.0, 1000.0, **_finite),
                     st.one_of(st.just(0.0), st.floats(0.0, 10.0, **_finite))),
    plant_values=st.tuples(st.floats(1000.0, 2500.0, **_finite),
                           st.floats(0.3, 1.2, **_finite), st.floats(3.0, 8.0, **_finite),
                           st.floats(0.7, 1.3, **_finite)),
)
@example(*BRANCH_EXAMPLES[0])
@example(*BRANCH_EXAMPLES[1])
def test_integrate_is_an_rk4_loop_over_rhs_bit_for_bit(state, inputs, plant_values):
    # the stages are written out with the right-hand side inline; every
    # output, signed zeros included, is that of the loop over `_rhs`
    got = kernels.integrate(state, *inputs, *plant_values)
    want = _rk4_over_rhs(state, *inputs, CONTROL_DT, 10, *plant_values)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_the_bit_identity_examples_take_every_branch():
    reached = set()
    for state, inputs, plant_values in BRANCH_EXAMPLES:
        _rk4_over_rhs(state, *inputs, CONTROL_DT, 10, *plant_values, reached=reached)
    assert reached == {"slip_guard", "slip_floor", "ellipse_front", "ellipse_rear",
                       "clamp_vx", "clamp_omega"}


def test_substep_count():
    # the kernel's fixed substep is the period split into ten, to the bit
    assert kernels.N_SUBSTEPS == 10 and plant.SUBSTEP_DT == kernels.SUBSTEP_DT
    assert (CONTROL_DT / kernels.N_SUBSTEPS).hex() == SUBSTEP_DT.hex()


def test_step_is_deterministic():
    a = step(PlantState.rolling(9.0), Action(0.2, 400.0, 0.0))
    b = step(PlantState.rolling(9.0), Action(0.2, 400.0, 0.0))
    assert a == b


# -- qualitative dynamics ----------------------------------------------


def test_straight_coast_decelerates():
    state = PlantState.rolling(10.0)
    for _ in range(100):
        state = step(state, Action(0.0, 0.0, 0.0))
    assert 0.0 < state.v_x < 10.0
    assert abs(state.y) < 1e-6 and abs(state.phi) < 1e-6
    assert abs(state.v_y) < 1e-6 and abs(state.yaw_rate) < 1e-6
    # loss forces at ~10 m/s: rolling resistance + drag, order 0.15 m/s^2
    decel = (10.0 - state.v_x) / 1.0
    assert 0.05 < decel < 0.5


def test_drive_torque_accelerates():
    state = PlantState.rolling(8.0)
    for _ in range(100):
        state = step(state, Action(0.0, 800.0, 0.0))
    assert state.v_x > 8.5


def test_brake_slows_and_wheel_never_reverses():
    state = PlantState.rolling(12.0)
    for _ in range(200):
        state = step(state, Action(0.0, 0.0, 8.0))
        assert state.omega_r >= 0.0
        assert state.v_x >= 0.0
    assert state.v_x < 6.0


@pytest.mark.parametrize("v0, action, v_end", [
    (2.0, Action(0.0, 0.0, plant.P_MAX), (0.0, 0.01)),
    (0.3, Action(0.0, plant.T_MAX, 0.0), (4.0, 10.0)),
], ids=["brake_to_standstill", "launch"])
def test_low_speed_stays_finite_and_forward(v0, action, v_end):
    # near standstill the wheel-spin mode is stiff (about -2540/v_x 1/s),
    # beyond RK4's stability interval at the 1 ms substep below about
    # 1 m/s: 3 s of full braking to a stop, and of a full-torque launch,
    # stay finite, and neither the wheel nor the car runs backwards
    state = PlantState.rolling(v0)
    for _ in range(300):
        state = step(state, action)
        assert all(map(math.isfinite, state[:7]))
        assert state.omega_r >= 0.0 and state.v_x >= 0.0
    assert v_end[0] <= state.v_x < v_end[1]


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
    state = PlantState.rolling(v)
    for _ in range(400):
        state = step(state, Action(delta, 60.0, 0.0))
    assert state.yaw_rate == pytest.approx(r_lin, rel=0.1)


def test_rear_slip_angle():
    state = PlantState(v_x=10.0, v_y=1.0, yaw_rate=0.5)
    assert side_slip_rear(state) == pytest.approx(
        math.atan2(1.0 - PARAMS.l_r * 0.5, 10.0), abs=1e-12)
    assert side_slip_rear(PlantState(v_x=0.05)) == 0.0


# -- actuator envelope -------------------------------------------------


def test_actuator_saturation_and_rate():
    latch = Action(0.0, 0.0, 0.0)
    out = apply_actuator_limits(Action(1.0, 5000.0, 50.0), latch)
    assert out.delta_f == pytest.approx(plant.DELTA_RATE * 0.01)
    assert out.t_rt == pytest.approx(plant.T_RATE * 0.01)
    assert out.p_b == pytest.approx(plant.P_RATE * 0.01)
    # once the latch is at the cap, saturation is the binding constraint
    at_cap = Action(plant.DELTA_MAX, plant.T_MAX, plant.P_MAX)
    out = apply_actuator_limits(Action(1.0, 5000.0, 50.0), at_cap)
    assert out == at_cap


def test_negative_commands_clamp_to_zero():
    out = apply_actuator_limits(Action(0.0, -100.0, -1.0), Action(0.0, 0.0, 0.0))
    assert out.t_rt == 0.0 and out.p_b == 0.0


def test_clamp_action_holds_the_box_edges():
    low, high = plant.ACTION_BOX
    assert plant.clamp_action(low) == low and plant.clamp_action(high) == high
    assert plant.clamp_action((-1.0, -100.0, -1.0)) == low
    assert plant.clamp_action(np.array([1.0, 5000.0, 50.0])) == high
    inside = plant.clamp_action(np.array([0.1, 250.0, 2.5]))
    assert inside == (0.1, 250.0, 2.5) and all(type(u) is float for u in inside)


def test_clamp_action_follows_np_clip_at_a_zero_floor_and_on_nan():
    low, high = plant.ACTION_BOX
    for action in ((0.0, -0.0, -0.0), (math.nan, math.nan, math.nan)):
        out = plant.clamp_action(action)
        ref = np.clip(np.array(action), low, high)
        np.testing.assert_array_equal(out, ref)  # NaN where NaN
        assert np.signbit(out).tolist() == np.signbit(ref).tolist() == [False] * 3


@pytest.mark.parametrize("action", [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0), np.zeros(2), np.zeros(4)])
def test_clamp_action_refuses_another_length(action):
    with pytest.raises(ValueError):
        plant.clamp_action(action)


def test_step_applies_latched_limits():
    state = PlantState.rolling(9.0)
    out = step(state, Action(0.5, 0.0, 0.0))
    assert out.delta_applied == pytest.approx(7.0 * CONTROL_DT)
    out2 = step(out, Action(0.5, 0.0, 0.0))
    assert out2.delta_applied == pytest.approx(2 * 7.0 * CONTROL_DT)


# -- sanity gates and termination --------------------------------------


def test_blowup_detection():
    with pytest.raises(NumericalBlowup):
        step(PlantState(v_x=59.0, v_y=20.0), Action(0.0, 0.0, 0.0))


# zero, negative, not a number and unbounded
NON_PHYSICAL = (0.0, -0.5, math.nan, math.inf)


def test_param_validation():
    for value in NON_PHYSICAL:
        with pytest.raises(ValueError, match="m must be finite and positive"):
            VehicleParams(m=value)


def test_tire_mu_must_be_finite_and_positive():
    for value in NON_PHYSICAL:
        with pytest.raises(ValueError, match="mu must be finite and positive"):
            TireParams(mu=value)


def test_tire_b_must_be_finite_and_positive():
    for value in NON_PHYSICAL:
        with pytest.raises(ValueError, match="b must be finite and positive"):
            TireParams(b=value)


def test_tire_d_must_be_finite_and_positive():
    for value in NON_PHYSICAL:
        with pytest.raises(ValueError, match="d must be finite and positive"):
            TireParams(d=value)


def test_plant_has_four_settable_values():
    assert [f.name for f in dataclasses.fields(VehicleParams)] == ["m"]
    assert [f.name for f in dataclasses.fields(TireParams)] == ["mu", "b", "d"]


def test_rollover_monitor_needs_consecutive_ticks():
    mon = TerminationMonitor()  # 8 m/s^2 for 0.1 s
    for _ in range(9):
        assert not mon.update(9.0)
    assert mon.update(9.0)  # 10th consecutive tick at 100 Hz = 0.1 s
    mon = TerminationMonitor()
    for i in range(50):  # interrupted runs never trigger
        assert not mon.update(9.0 if i % 3 else 0.0)


def test_vehicle_corners_geometry():
    corners = np.array(vehicle_corners(PlantState(x=1.0, y=2.0, phi=math.pi / 2)))
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
    x_end, y_end, _ = uturn.frame_at(uturn.s_max)
    done = PlantState(x=x_end, y=y_end, phi=math.pi)
    assert detect_termination(done, uturn, to_frenet((x_end, y_end), uturn)) == "completed"


def test_ambiguous_corner_projection_is_a_crash():
    # the front-left corner sits on the centre of a 3 m arc, equally near
    # both straights
    track = build_library_track("uturn", radius=3.0)
    state = PlantState(x=30.0 - PARAMS.l_f, y=3.0 - PARAMS.veh_half_width)
    corner = vehicle_corners(state)[0]
    np.testing.assert_allclose(corner, (30.0, 3.0), atol=1e-12)
    with pytest.raises(AmbiguousProjection):
        to_frenet(tuple(corner), track, s_hint=34.0)
    assert detect_termination(state, track, FrenetPoint(34.0, 0.0)) == "crashed"


def _four_projection_status(state, track, cg):
    """The corner check that projects all four corners."""
    try:
        for corner in vehicle_corners(state):
            if abs(to_frenet(corner, track, s_hint=cg.s).l) > track.half_width:
                return "crashed"
    except (OffCorridor, AmbiguousProjection):
        return "crashed"
    return "completed" if cg.s >= track.s_max - 1e-9 else "running"


def test_corner_check_matches_four_projections(monkeypatch, all_tracks):
    # seeded c.g. positions inside, near and across the corridor edge, at
    # any heading; states whose c.g. itself does not project never reach
    # the check.  Corners that the distance bound settles skip to_frenet.
    projected = []

    def counting(*args, **kwargs):
        projected.append(args[0])
        return to_frenet(*args, **kwargs)

    monkeypatch.setattr(plant, "to_frenet", counting)
    tracks = dict(all_tracks, uturn_r3=build_library_track("uturn", radius=3.0))
    rng = np.random.default_rng(2024)
    for name, track in tracks.items():
        hw = track.half_width
        statuses = []
        for _ in range(1500):
            s = float(rng.uniform(0.0, track.s_max))
            l = float(rng.uniform(-hw - 1.8, hw + 1.8))
            x, y = to_cartesian(FrenetPoint(s, l), track)
            try:
                cg = to_frenet((x, y), track, s_hint=s)
            except (OffCorridor, AmbiguousProjection):
                continue
            state = PlantState(x=x, y=y, phi=float(rng.uniform(-math.pi, math.pi)))
            got = detect_termination(state, track, cg)
            assert got == _four_projection_status(state, track, cg), (name, s, l)
            statuses.append(got)
        assert {"running", "crashed"} <= set(statuses), name
        assert 0 < len(projected) < 4 * len(statuses), name
        projected.clear()
