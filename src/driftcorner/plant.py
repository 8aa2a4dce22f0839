"""Nonlinear vehicle plant: 3-DOF chassis + rear wheel spin.

Stand-in for a high-fidelity simulator: Magic-Formula combined-slip
tires (friction-ellipse coupling), rear-drive torque and master-cylinder
brake pressure mapped through a lumped rear axle spin DOF, actuator
saturation and rate limits, and termination detection.

One vehicle is modelled.  Four of its values are settable, because the
deployment plant varies them (`fusion.DeploymentSpec`): the mass
(`VehicleParams.m`), the adhesion and the Magic-Formula B and D of both
axles (`TireParams.mu`, `.b`, `.d`).  Every other value is a constant:
the geometry, inertias, brake and loss coefficients and tire shape are
those of `kernels`, readable as class attributes of the two parameter
classes, and the actuator envelope is the constants below.

`step` is a pure transition function; instances carry no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

from . import kernels
from .errors import AmbiguousProjection, NumericalBlowup, OffCorridor
from .kernels import SUBSTEP_DT, G  # noqa: F401 (SUBSTEP_DT re-exported)
from .track import FrenetPoint, TrackGeometry, to_frenet

CONTROL_DT = 0.01  # s, control task period (100 Hz), kernels.N_SUBSTEPS RK4 substeps

# The actuator envelope: saturation and rate of each channel.
DELTA_MAX = 0.524  # rad (30 deg at the wheel)
DELTA_RATE = 7.0  # rad/s
T_MAX = 1000.0  # N*m, peak drive torque
T_RATE = 20000.0  # N*m/s, drive torque filter
P_MAX = 10.0  # MPa
P_RATE = 100.0  # MPa/s


class Action(NamedTuple):
    delta_f: float  # front wheel angle, rad
    t_rt: float  # rear drive torque, N*m
    p_b: float  # master-cylinder pressure, MPa


def _require_positive(obj, *names: str) -> None:
    for name in names:
        value = getattr(obj, name)
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class TireParams:
    """Friction scale and the Magic-Formula B and D of both axles."""

    mu: float = 0.85
    b: float = 5.5
    d: float = 1.0
    c: ClassVar[float] = kernels.TIRE_C
    e: ClassVar[float] = kernels.TIRE_E

    def __post_init__(self):
        _require_positive(self, "mu", "b", "d")

    def cornering_stiffness(self, params: "VehicleParams") -> tuple[float, float]:
        """Per-tire small-slip stiffness (N/rad) of each axle."""
        fzf = params.m * G * params.l_r / params.wheelbase
        fzr = params.m * G * params.l_f / params.wheelbase
        front = 0.5 * self.b * self.c * self.d * self.mu * fzf
        rear = 0.5 * self.b * self.c * self.d * self.mu * fzr
        return front, rear


@dataclass(frozen=True)
class VehicleParams:
    """The vehicle's mass, its one settable value; the kernel constants
    that other modules read are class attributes."""

    m: float = 1800.0  # kg
    i_z: ClassVar[float] = kernels.I_Z
    l_f: ClassVar[float] = kernels.L_F
    l_r: ClassVar[float] = kernels.L_R
    wheelbase: ClassVar[float] = kernels.WHEELBASE
    r_w: ClassVar[float] = kernels.R_W
    k_b: ClassVar[float] = kernels.K_B
    c_rr: ClassVar[float] = kernels.C_RR
    c_drag: ClassVar[float] = kernels.C_DRAG
    veh_half_width: ClassVar[float] = 0.4  # m, boundary-check half width

    def __post_init__(self):
        _require_positive(self, "m")


class PlantState(NamedTuple):
    """The plant's state after a control tick: the 7 dynamic states,
    the actuator latches and the lateral acceleration diagnostic.  A
    named tuple, because `step` builds one every tick."""

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

    @staticmethod
    def rolling(v_x: float, **kw) -> "PlantState":
        """State rolling straight at v_x with matched wheel speed."""
        return PlantState(v_x=v_x, omega_r=v_x / VehicleParams.r_w, **kw)


def side_slip_rear(state: PlantState) -> float:
    """Side-slip angle at the rear axle center, in rad; 0.0 at or below
    0.1 m/s, where the angle is undefined."""
    if state.v_x <= 0.1:
        return 0.0
    return math.atan2(state.v_y - VehicleParams.l_r * state.yaw_rate, state.v_x)


def apply_actuator_limits(cmd: Action, latch: Action) -> Action:
    """Saturate to the actuator envelope, then rate-limit from the latch
    over one control period."""
    delta = min(max(cmd.delta_f, -DELTA_MAX), DELTA_MAX)
    trt = min(max(cmd.t_rt, 0.0), T_MAX)
    pb = min(max(cmd.p_b, 0.0), P_MAX)
    dt = CONTROL_DT
    return Action(
        min(max(delta, latch.delta_f - DELTA_RATE * dt), latch.delta_f + DELTA_RATE * dt),
        min(max(trt, latch.t_rt - T_RATE * dt), latch.t_rt + T_RATE * dt),
        min(max(pb, latch.p_b - P_RATE * dt), latch.p_b + P_RATE * dt),
    )


_SANITY_V = 60.0  # m/s
_SANITY_YAW = 20.0  # rad/s


def step(
    state: PlantState,
    cmd: Action,
    tires: TireParams = TireParams(),
    params: VehicleParams = VehicleParams(),
) -> PlantState:
    """Advance the plant one control period, CONTROL_DT, under a
    zero-order-hold input."""
    latch = Action(state.delta_applied, state.trt_applied, state.pb_applied)
    applied = apply_actuator_limits(cmd, latch)
    out = kernels.integrate(
        state[:7], applied.delta_f, applied.t_rt, applied.p_b,
        params.m, tires.mu, tires.b, tires.d,
    )
    x, y, phi, v_x, v_y, yaw_rate, omega_r, a_y = out
    # a NaN or infinite v_x, v_y or yaw rate fails its bound's comparison
    if not (
        math.hypot(v_x, v_y) <= _SANITY_V
        and abs(yaw_rate) <= _SANITY_YAW
        and math.isfinite(x) and math.isfinite(y) and math.isfinite(phi)
        and math.isfinite(omega_r)
    ):
        raise NumericalBlowup(f"plant state left sanity bounds: {out[:7]}")
    # the latches are the applied (delta_f, t_rt, p_b)
    return PlantState(x, y, phi, v_x, v_y, yaw_rate, omega_r, *applied, a_y)


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


def vehicle_corners(state: PlantState) -> list[tuple[float, float]]:
    """World positions (x, y) of the four bounding-box corners: front
    left, front right, rear left, rear right."""
    c, s = math.cos(state.phi), math.sin(state.phi)
    out = []
    p = VehicleParams
    for dx in (p.l_f, -p.l_r):
        for dy in (p.veh_half_width, -p.veh_half_width):
            out.append((state.x + dx * c - dy * s, state.y + dx * s + dy * c))
    return out


def detect_termination(
    state: PlantState,
    track: TrackGeometry,
    cg: FrenetPoint,
    monitor: TerminationMonitor | None = None,
) -> str:
    """'running' | 'completed' | 'crashed' for the current state, whose
    c.g. projects onto the track at `cg`.

    The state crashes when a box corner projects more than a half width
    off the centerline, or does not project at all.  `to_frenet` searches
    s within HINT_WINDOW of cg.s, so the centerline point at cg.s is a
    candidate foot: a corner's |l| is at most its distance to the nearest
    candidate, so at most its distance to that point.  A corner nearer to it
    than the half width (less 1e-9 for rounding) is therefore inside, and
    only the other corners are projected.  Such a corner would not have
    failed to project either: OffCorridor needs |l| above
    CORRIDOR_FACTOR half widths, and AmbiguousProjection two equally near
    feet more than 1 m apart, which on lines and arcs takes a point at
    least an arc's radius from the centerline, and `TrackGeometry`
    requires every radius to exceed the half width."""
    if monitor is not None and monitor.update(state.a_y):
        return "crashed"
    x, y, _ = track.frame_at(cg.s)
    settled = track.half_width - 1e-9
    try:
        for cx, cy in vehicle_corners(state):
            if math.hypot(cx - x, cy - y) < settled:
                continue
            if abs(to_frenet((cx, cy), track, s_hint=cg.s).l) > track.half_width:
                return "crashed"
    except (OffCorridor, AmbiguousProjection):
        return "crashed"
    if cg.s >= track.s_max - 1e-9:
        return "completed"
    return "running"
