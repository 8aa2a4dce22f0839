"""Nonlinear vehicle plant: 3-DOF chassis + rear wheel spin.

Stand-in for a high-fidelity simulator: Magic-Formula combined-slip
tires (friction-ellipse coupling), rear-drive torque and master-cylinder
brake pressure mapped through a lumped rear axle spin DOF, actuator
saturation and rate limits, and termination detection.

`step` is a pure transition function; instances carry no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import AmbiguousProjection, NumericalBlowup, OffCorridor
from .track import FrenetPoint, TrackGeometry, to_frenet

G = 9.81

CONTROL_DT = 0.01  # s, control task period (100 Hz)
SUBSTEP_DT = 0.001  # s, internal RK4 step


class Action(NamedTuple):
    delta_f: float  # front wheel angle, rad
    t_rt: float  # rear drive torque, N*m
    p_b: float  # master-cylinder pressure, MPa


@dataclass(frozen=True)
class ActuatorLimits:
    delta_max: float = 0.524  # rad (30 deg at the wheel)
    delta_rate: float = 7.0  # rad/s
    t_max: float = 1000.0  # N*m, peak drive torque
    t_rate: float = 20000.0  # N*m/s, drive torque filter
    p_max: float = 10.0  # MPa
    p_rate: float = 100.0  # MPa/s


@dataclass(frozen=True)
class TireParams:
    """Magic-Formula shape per axle plus the friction scale."""

    b_front: float = 5.5
    c_front: float = 1.9
    d_front: float = 1.0
    e_front: float = 0.97
    b_rear: float = 5.5
    c_rear: float = 1.9
    d_rear: float = 1.0
    e_rear: float = 0.97
    mu: float = 0.85

    @cached_property
    def kernel_layout(self) -> tuple[float, ...]:
        """The plant kernel's tire parameter layout as floats, built on
        first use and kept by the (frozen) instance."""
        return tuple(float(v) for v in (
            self.b_front, self.c_front, self.d_front, self.e_front,
            self.b_rear, self.c_rear, self.d_rear, self.e_rear,
            self.mu,
        ))

    def as_array(self) -> np.ndarray:
        return np.array(self.kernel_layout)

    def cornering_stiffness(self, params: "VehicleParams") -> tuple[float, float]:
        """Per-tire small-slip stiffness (N/rad) of each axle."""
        fzf = params.m * G * params.l_r / params.wheelbase
        fzr = params.m * G * params.l_f / params.wheelbase
        front = 0.5 * self.b_front * self.c_front * self.d_front * self.mu * fzf
        rear = 0.5 * self.b_rear * self.c_rear * self.d_rear * self.mu * fzr
        return front, rear


@dataclass(frozen=True)
class VehicleParams:
    m: float = 1800.0  # kg
    i_z: float = 3200.0  # kg*m^2
    l_f: float = 1.4  # m
    l_r: float = 1.6  # m
    r_w: float = 0.32  # m
    i_w: float = 1.5  # kg*m^2 per wheel
    k_b: float = 600.0  # N*m/MPa; P_max * k_b locks the wheels at mu = 1
    brake_front_frac: float = 0.6
    c_cf: float = 8.0e4  # N/rad per tire, linear model (MPC) front
    c_cr: float = 8.0e4  # N/rad per tire, linear model (MPC) rear
    veh_half_width: float = 0.4  # m, boundary-check half width
    c_rr: float = 0.012  # rolling resistance coefficient
    c_drag: float = 0.42  # N/(m/s)^2 aerodynamic drag

    def __post_init__(self):
        for name in ("m", "i_z", "l_f", "l_r", "r_w", "i_w", "k_b"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 2.0 <= self.l_f + self.l_r <= 4.0:
            raise ValueError("wheelbase outside the [2, 4] m sanity gate")

    @property
    def wheelbase(self) -> float:
        return self.l_f + self.l_r

    @cached_property
    def kernel_layout(self) -> tuple[float, ...]:
        """The plant kernel's vehicle parameter layout as floats, built on
        first use and kept by the (frozen) instance."""
        return tuple(float(v) for v in (
            self.m, self.i_z, self.l_f, self.l_r, self.r_w, self.i_w,
            self.k_b, self.brake_front_frac, self.c_rr, self.c_drag,
        ))

    def as_array(self) -> np.ndarray:
        return np.array(self.kernel_layout)


@dataclass(frozen=True)
class PlantState:
    x: float = 0.0
    y: float = 0.0
    phi: float = 0.0
    v_x: float = 0.0
    v_y: float = 0.0
    yaw_rate: float = 0.0
    omega_r: float = 0.0  # lumped rear axle spin, rad/s
    # Actuator latches: values actually applied last tick.
    delta_applied: float = 0.0
    trt_applied: float = 0.0
    pb_applied: float = 0.0
    a_y: float = 0.0  # lateral acceleration diagnostic (rollover proxy)

    def dynamic_array(self) -> np.ndarray:
        return np.array(
            [self.x, self.y, self.phi, self.v_x, self.v_y, self.yaw_rate,
             self.omega_r]
        )

    @staticmethod
    def rolling(v_x: float, params: VehicleParams, **kw) -> "PlantState":
        """State rolling straight at v_x with matched wheel speed."""
        return PlantState(v_x=v_x, omega_r=v_x / params.r_w, **kw)


class SideSlip(NamedTuple):
    value: float  # rad
    low_speed: bool


def side_slip_rear(state: PlantState, params: VehicleParams) -> SideSlip:
    """Side-slip angle at the rear axle center.

    Below 0.1 m/s the angle is undefined; returns 0 with the flag set."""
    if state.v_x <= 0.1:
        return SideSlip(0.0, True)
    return SideSlip(
        math.atan2(state.v_y - params.l_r * state.yaw_rate, state.v_x), False
    )


def apply_actuator_limits(
    cmd: Action, latch: Action, dt: float, limits: ActuatorLimits
) -> Action:
    """Saturate to the actuator envelope, then rate-limit from the latch."""

    def _one(value, prev, lo, hi, rate):
        value = min(max(value, lo), hi)
        return min(max(value, prev - rate * dt), prev + rate * dt)

    return Action(
        _one(cmd.delta_f, latch.delta_f, -limits.delta_max, limits.delta_max,
             limits.delta_rate),
        _one(cmd.t_rt, latch.t_rt, 0.0, limits.t_max, limits.t_rate),
        _one(cmd.p_b, latch.p_b, 0.0, limits.p_max, limits.p_rate),
    )


_SANITY_V = 60.0  # m/s
_SANITY_YAW = 20.0  # rad/s


def step(
    state: PlantState,
    cmd: Action,
    dt: float = CONTROL_DT,
    tires: TireParams = TireParams(),
    params: VehicleParams = VehicleParams(),
    limits: ActuatorLimits = ActuatorLimits(),
) -> PlantState:
    """Advance the plant one control period under a zero-order-hold input."""
    latch = Action(state.delta_applied, state.trt_applied, state.pb_applied)
    applied = apply_actuator_limits(cmd, latch, dt, limits)

    n_sub = max(1, int(round(dt / SUBSTEP_DT)))
    out = kernels.integrate(
        (state.x, state.y, state.phi, state.v_x, state.v_y, state.yaw_rate,
         state.omega_r),
        applied.delta_f, applied.t_rt, applied.p_b, dt, n_sub,
        params.kernel_layout, tires.kernel_layout,
    )
    x, y, phi, v_x, v_y, yaw_rate, omega_r, a_y = out
    dynamic = out[:7]
    if (
        not all(map(math.isfinite, dynamic))
        or math.hypot(v_x, v_y) > _SANITY_V
        or abs(yaw_rate) > _SANITY_YAW
    ):
        raise NumericalBlowup(f"plant state left sanity bounds: {dynamic}")
    return PlantState(
        x=x, y=y, phi=phi, v_x=v_x, v_y=v_y, yaw_rate=yaw_rate,
        omega_r=omega_r, delta_applied=applied.delta_f,
        trt_applied=applied.t_rt, pb_applied=applied.p_b, a_y=a_y,
    )


ROLLOVER_A_Y = 8.0  # m/s^2, rollover proxy threshold
ROLLOVER_T = 0.1  # s, consecutive time above threshold


class TerminationMonitor:
    """Tracks the rollover proxy window across the control ticks of one
    episode; make a new one per episode."""

    def __init__(self):
        self._above = 0

    def update(self, a_y: float) -> bool:
        """Feed one tick's lateral acceleration; True if rollover triggers."""
        if abs(a_y) > ROLLOVER_A_Y:
            self._above += 1
        else:
            self._above = 0
        return self._above * CONTROL_DT >= ROLLOVER_T


def vehicle_corners(
    state: PlantState, params: VehicleParams
) -> list[tuple[float, float]]:
    """World positions (x, y) of the four bounding-box corners: front
    left, front right, rear left, rear right."""
    c, s = math.cos(state.phi), math.sin(state.phi)
    out = []
    for dx in (params.l_f, -params.l_r):
        for dy in (params.veh_half_width, -params.veh_half_width):
            out.append((state.x + dx * c - dy * s, state.y + dx * s + dy * c))
    return out


def detect_termination(
    state: PlantState,
    track: TrackGeometry,
    cg: FrenetPoint,
    params: VehicleParams = VehicleParams(),
    monitor: TerminationMonitor | None = None,
) -> str:
    """'running' | 'completed' | 'crashed' for the current state, whose
    c.g. projects onto the track at `cg`."""
    if monitor is not None and monitor.update(state.a_y):
        return "crashed"
    try:
        for corner in vehicle_corners(state, params):
            fp = to_frenet(corner, track, s_hint=cg.s)
            if abs(fp.l) > track.half_width:
                return "crashed"
    except (OffCorridor, AmbiguousProjection):
        return "crashed"
    if cg.s >= track.s_max - 1e-9:
        return "completed"
    return "running"
