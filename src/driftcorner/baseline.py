"""Scripted pure-pursuit tracker of a pre-trajectory.

Serves as the environment smoke test and as the non-drift baseline for
closed-loop comparisons between planned and centerline references: a
pure-pursuit steering law with curvature feedforward plus a
proportional speed loop mapped into drive torque / brake pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs import FrenetObservation
from .planner import A_LONG_LIMITS, PreTrajectory
from .plant import G, PlantState, TireParams, VehicleParams, clamp_action
from .track import TrackGeometry

LOOKAHEAD_GAIN = 0.2  # s, lookahead = gain * speed + min
LOOKAHEAD_MIN = 1.5  # m
KP_SPEED = 1.2  # 1/s, speed-loop gain
ERROR_SLOWDOWN = 0.75  # 1/m^2, speed cut per squared lateral error
SLIP_CAP = math.radians(10.0)  # front-axle slip clamp (pre-peak)
RATE_DAMPING = 0.2  # on the lateral-rate error
PLANT, TIRES = VehicleParams(), TireParams()  # the training plant


@dataclass
class BaselineTracker:
    """Pure-pursuit path tracking + proportional speed control.

    A controller of `envs.episode`: it reads the env's
    `FrenetObservation` by field, ignores the plant state, and returns
    its command clamped to the action box by `plant.clamp_action`.
    """

    track: TrackGeometry
    pretraj: PreTrajectory
    speed_factor: float = 0.97  # scale on the planned speed (tracking margin)

    def __call__(self, obs: FrenetObservation, state: PlantState) -> np.ndarray:
        s, l, alpha, v_x, v_y = obs.s, obs.l, obs.alpha, obs.v_x, obs.v_y
        v = math.hypot(v_x, v_y)

        # Curvature demand: pure pursuit toward the reference line.
        ld = max(LOOKAHEAD_MIN, LOOKAHEAD_GAIN * v)
        s_t = min(s + ld, self.track.s_max)
        l_t = float(self.pretraj.l_ref(s_t))
        # Angle to the target point relative to the vehicle heading; the
        # track tangent rotates by the centerline curvature over the chord.
        psi_c, kappa_c = self.track.heading_curvature_at(s)
        dpsi = self.track.heading_at(s_t) - psi_c
        eta = math.atan2(l_t - l, ld) + 0.5 * dpsi - alpha
        # Damp the lateral-rate error; the slip-inversion loop below is
        # close to a double integrator and oscillates without it.
        dl_ref = (float(self.pretraj.l_ref(s + 0.5)) -
                  float(self.pretraj.l_ref(max(s - 0.5, 0.0)))) / 1.0
        eta -= RATE_DAMPING * (obs.l_dot - dl_ref * obs.s_dot) / max(v, 1.0)
        kappa_dem = 2.0 * math.sin(eta) / ld
        kappa_dem += float(np.interp(s_t, self.pretraj.s, self.pretraj.kappa))

        # Map the demand into a front slip angle by inverting the tire
        # curve for the required front force, and steer relative to the
        # measured front-axle course.  Feedback-linearizing like this
        # avoids winding past the peak-slip angle into deep understeer.
        p, tp = PLANT, TIRES
        ay_req = v * v * kappa_dem
        fz_f = p.m * G * p.l_r / p.wheelbase
        f = (p.m * abs(ay_req) * p.l_r / p.wheelbase) / (
            tp.mu * tp.d * fz_f)
        slip = math.tan(math.asin(min(f, 0.985)) / tp.c) / tp.b
        slip = math.copysign(min(slip, SLIP_CAP), ay_req)
        yaw_rate = obs.alpha_dot + kappa_c * obs.s_dot
        axle_course = math.atan2(v_y + p.l_f * yaw_rate, max(v_x, 1.0))
        delta = axle_course + slip

        # Speed: track the plan with a short preview, backing off with
        # lateral error so the loop stays inside the friction budget.
        s_v = min(s + 0.5 * v * 0.5, self.track.s_max)
        v_t = self.speed_factor * float(self.pretraj.v_ref(s_v))
        e_l = l - float(self.pretraj.l_ref(s))
        v_t = max(2.0, v_t / (1.0 + ERROR_SLOWDOWN * e_l * e_l))
        a = KP_SPEED * (v_t - v_x)
        a = min(max(a, A_LONG_LIMITS[0]), A_LONG_LIMITS[1])

        f_loss = p.c_rr * p.m * G + p.c_drag * v_x * abs(v_x)
        # Steering drag: the front lateral force pulls backward along the
        # body x-axis by sin(delta).
        f_loss += f * tp.mu * tp.d * fz_f * abs(math.sin(delta))
        if a >= 0.0:
            t_rt = (p.m * a + f_loss) * p.r_w
            p_b = 0.0
        else:
            t_rt = 0.0
            p_b = max(0.0, (-p.m * a - f_loss) * p.r_w / p.k_b)
        return np.array(clamp_action((delta, t_rt, p_b)))
