"""Cornering environment: Frenet observation, reward ledger, episodes.

Wraps the nonlinear plant into an RL environment.  The observation is
the track-relative state (arc length, lateral offset, relative heading,
their rates, body velocities, a run flag, and a curvature preview); the
reward splits into a path-following term, a side-slip bonus, an action
smoothness penalty, and a terminal progress/time term whose sums are
bookkept exactly.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import AmbiguousProjection, NumericalBlowup, OffCorridor
from .planner import PreTrajectory
from .plant import (
    CONTROL_DT,
    DELTA_MAX,
    P_MAX,
    T_MAX,
    Action,
    PlantState,
    TerminationMonitor,
    TireParams,
    VehicleParams,
    detect_termination,
    side_slip_rear,
    step as plant_step,
)
from .track import FrenetPoint, TrackGeometry, to_cartesian, to_frenet

N_PREVIEW = 10  # curvature samples ahead
PREVIEW_SPACING = 3.0  # m
OBS_DIM = 9 + N_PREVIEW

TIME_CAP_FACTOR = 3.0  # episode cap as a multiple of t_ref


# The (delta_f, T_rt, P_b) action box, read-only: every env, the
# reward and the deploy controller share these arrays.
ACTION_LOW = np.array([-DELTA_MAX, 0.0, 0.0])
ACTION_HIGH = np.array([DELTA_MAX, T_MAX, P_MAX])
ACTION_SPAN = ACTION_HIGH - ACTION_LOW
for _box in (ACTION_LOW, ACTION_HIGH, ACTION_SPAN):
    _box.flags.writeable = False
_SPAN = tuple(ACTION_SPAN.tolist())  # the span as Python floats for the tick
_PREVIEW_OFFSETS = PREVIEW_SPACING * np.arange(1, N_PREVIEW + 1)
_PREVIEW_OFFSETS.flags.writeable = False


class FrenetObservation(NamedTuple):
    s: float  # m along the track
    l: float  # m, lateral offset
    alpha: float  # rad, heading relative to the track tangent, in (-pi, pi]
    s_dot: float  # m/s
    l_dot: float  # m/s
    alpha_dot: float  # rad/s
    v_x: float  # m/s, body longitudinal
    v_y: float  # m/s, body lateral
    chi: float  # run flag, 1 while the episode may still complete
    kappa_preview: np.ndarray  # 1/m, N_PREVIEW samples ahead

    def vector(self) -> np.ndarray:
        out = np.empty(OBS_DIM)
        out[:9] = (self.s, self.l, self.alpha, self.s_dot, self.l_dot,
                   self.alpha_dot, self.v_x, self.v_y, self.chi)
        out[9:] = self.kappa_preview
        return out


def observation_scales(track: TrackGeometry) -> np.ndarray:
    """Fixed per-channel normalization scales for the policy input."""
    kappa_scale = max(float(np.max(np.abs(track.seg_kappa))), 1e-3)
    out = np.empty(OBS_DIM)
    out[:9] = (track.s_max, track.half_width, math.pi, 16.0, 8.0, 3.0,
               16.0, 8.0, 1.0)
    out[9:] = kappa_scale
    return out


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = (a + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if a == -math.pi else a


def observe(
    state: PlantState,
    track: TrackGeometry,
    s_hint: float | None = None,
) -> FrenetObservation:
    """Track-relative observation of a running plant state (exact
    Frenet kinematics for the rates)."""
    fp = to_frenet((state.x, state.y), track, s_hint=s_hint)
    heading, kc = track.heading_curvature_at(fp.s)
    alpha = _wrap_angle(state.phi - heading)
    denom = 1.0 - kc * fp.l
    ca, sa = math.cos(alpha), math.sin(alpha)
    s_dot = (state.v_x * ca - state.v_y * sa) / denom
    l_dot = state.v_x * sa + state.v_y * ca
    alpha_dot = state.yaw_rate - kc * s_dot
    preview_s = np.minimum(fp.s + _PREVIEW_OFFSETS, track.s_max)
    kappa_preview = track.curvature_at_many(preview_s)
    return FrenetObservation(
        s=fp.s, l=fp.l, alpha=alpha, s_dot=s_dot, l_dot=l_dot,
        alpha_dot=alpha_dot, v_x=state.v_x, v_y=state.v_y, chi=1.0,
        kappa_preview=kappa_preview,
    )


# -- reward ledger ----------------------------------------------------


K_PL = -0.5  # 1/m, lateral-error weight
K_PV = -0.1  # s/m, speed-error weight
K_S = 2.0  # side-slip bonus ceiling
K_S1 = -3.0  # 1/rad, side-slip saturation rate
K_M = -0.5  # smoothness weight
K_T1 = 0.1  # 1/m, terminal progress weight
K_T2 = 20.0  # 1/s, terminal time weight


class RewardTerms(NamedTuple):
    r_p: float
    r_s: float
    r_m: float


def reward_step(
    obs: FrenetObservation,
    action: Sequence[float],
    prev_action: Sequence[float],
    pretraj: PreTrajectory,
    beta_r: float = 0.0,
) -> RewardTerms:
    """Per-tick reward components.

    r_p penalizes lateral and speed deviation from the pre-trajectory,
    r_s is a bonus saturating toward k_s as |beta_r| grows, r_m
    penalizes squared normalized action increments.  The actions are
    (delta_f, t_rt, p_b) each.
    """
    v = math.hypot(obs.v_x, obs.v_y)
    r_p = (K_PL * abs(obs.l - float(pretraj.l_ref(obs.s)))
           + K_PV * abs(v - float(pretraj.v_ref(obs.s))))
    r_s = K_S * (1.0 - math.exp(K_S1 * abs(beta_r)))
    # the increment on floats; its square by numpy's dot, whose rounding
    # a float sum of the three squares does not always share
    a0, a1, a2 = action
    p0, p1, p2 = prev_action
    s0, s1, s2 = _SPAN
    d = np.array(((a0 - p0) / s0, (a1 - p1) / s1, (a2 - p2) / s2))
    r_m = K_M * float(d @ d)
    return RewardTerms(r_p, r_s, r_m)


@dataclass(frozen=True)
class EpisodeResult:
    chi: int  # 1 iff the full track was completed
    t_f: float  # s, episode duration
    s_final: float  # m, arc length reached
    status: str  # completed | crashed | timeout | blowup (NumericalBlowup)
    total_reward: float
    r_p_sum: float
    r_s_sum: float
    r_m_sum: float
    r_t: float
    max_beta: float  # rad, peak |rear side-slip| over the episode
    max_speed: float  # m/s
    trace: np.ndarray | None = None  # (ticks, len(TRACE_COLUMNS))


TRACE_COLUMNS = (
    "t", "x", "y", "phi", "v_x", "v_y", "yaw_rate", "omega_r",
    "s", "l", "alpha", "beta_r", "a_y",
    "delta_f", "t_rt", "p_b", "r_p", "r_s", "r_m",
)


def reward_terminal(
    result_chi: int,
    t_f: float,
    s_final: float,
    pretraj: PreTrajectory,
) -> float:
    """Terminal reward: progress plus (on completion) the time margin."""
    return K_T1 * s_final + K_T2 * result_chi * (pretraj.t_ref - t_f)


# -- environment ------------------------------------------------------


class DriftEnv:
    """Episodic environment over the nonlinear plant.

    `reset(seed)` starts at the track's entry: nominally with `seed`
    None, else drawn from it (speed uniform in [5, 9] m/s, small
    lateral/heading noise around the pre-trajectory); `step(action)`
    advances one 10 ms control tick; `episode` drives the two.  All
    stochasticity comes from the seed, so episodes are reproducible.
    """

    action_low = ACTION_LOW
    action_high = ACTION_HIGH

    def __init__(
        self,
        track: TrackGeometry,
        pretraj: PreTrajectory,
        tires: TireParams = TireParams(),
        params: VehicleParams = VehicleParams(),
        time_cap: float | None = None,
        record: bool = False,
    ):
        self.track = track
        self.pretraj = pretraj
        self.tires = tires
        self.params = params
        self.time_cap = (TIME_CAP_FACTOR * pretraj.t_ref
                         if time_cap is None else time_cap)
        self.record = record
        self.scales = observation_scales(track)
        self.state: PlantState | None = None

    # initial-state draw ----------------------------------------------

    def reset(
        self,
        seed: np.random.Generator | int | None = None,
        v0: float | None = None,
    ) -> FrenetObservation:
        """Set the initial state.  With `seed` None it is the nominal
        start (start of entry, 9 m/s by default or `v0` when given, on
        the reference line); an int or a Generator draws a randomized
        start from it instead, with the speed drawn unless `v0` is given."""
        if seed is None:
            v0 = 9.0 if v0 is None else v0
            l0, a0 = float(self.pretraj.l_ref(0.0)), 0.0
        else:
            rng = np.random.default_rng(seed)  # a Generator passes through
            if v0 is None:
                v0 = rng.uniform(5.0, 9.0)
            l0 = float(self.pretraj.l_ref(0.0)) + rng.uniform(-0.2, 0.2)
            a0 = rng.uniform(-math.radians(2.0), math.radians(2.0))
        x0, y0 = to_cartesian(FrenetPoint(0.0, l0), self.track)
        self.state = PlantState.rolling(
            v0, x=x0, y=y0,
            phi=_wrap_angle(self.track.heading_at(0.0) + a0),
        )
        self._t = 0.0
        self._s = 0.0
        self._prev_cmd = (0.0, 0.0, 0.0)
        self._monitor = TerminationMonitor()
        self._sums = [0.0, 0.0, 0.0]
        self._max_beta = 0.0
        self._max_speed = self.state.v_x
        # the TRACE_COLUMNS of each tick, flat, when recording
        self._trace = array("d") if self.record else None
        self._obs = observe(self.state, self.track, s_hint=0.0)
        return self._obs

    # one control tick ------------------------------------------------

    def step(self, action) -> tuple[FrenetObservation, float, EpisodeResult | None]:
        """One tick of `action`, clamped to the box: (observation, reward,
        result).  `result` is None until the last tick, whose reward
        includes the terminal term and whose observation has chi = 0."""
        if self.state is None:
            raise RuntimeError("call reset() before step()")
        delta_f, t_rt, p_b = action
        cmd = Action(min(max(float(delta_f), -DELTA_MAX), DELTA_MAX),
                     min(max(float(t_rt), 0.0), T_MAX),
                     min(max(float(p_b), 0.0), P_MAX))
        try:
            self.state = plant_step(self.state, cmd, self.tires, self.params)
        except NumericalBlowup:
            return self._finish("blowup", 0.0)
        self._t += CONTROL_DT

        try:
            obs = observe(self.state, self.track, s_hint=self._s)
        except (OffCorridor, AmbiguousProjection):
            return self._finish("crashed", 0.0)
        self._s = obs.s
        beta = side_slip_rear(self.state)
        self._max_beta = max(self._max_beta, abs(beta))
        self._max_speed = max(self._max_speed, math.hypot(obs.v_x, obs.v_y))

        terms = reward_step(obs, cmd, self._prev_cmd, self.pretraj,
                            beta_r=beta)
        self._prev_cmd = cmd
        for i, v in enumerate(terms):
            self._sums[i] += v
        if self.record:
            self._trace.extend((
                self._t, self.state.x, self.state.y, self.state.phi,
                self.state.v_x, self.state.v_y, self.state.yaw_rate,
                self.state.omega_r, obs.s, obs.l, obs.alpha, beta,
                self.state.a_y, self.state.delta_applied,
                self.state.trt_applied, self.state.pb_applied, *terms,
            ))

        status = detect_termination(self.state, self.track,
                                    FrenetPoint(obs.s, obs.l), self._monitor)
        if status == "running" and self._t >= self.time_cap - 1e-9:
            status = "timeout"
        if status != "running":
            return self._finish(status, sum(terms), obs)
        self._obs = obs
        return obs, sum(terms), None

    def _finish(self, status: str, step_reward: float,
                obs: FrenetObservation | None = None):
        chi = 1 if status == "completed" else 0
        r_t = reward_terminal(chi, self._t, self._s, self.pretraj)
        result = EpisodeResult(
            chi=chi, t_f=self._t, s_final=self._s, status=status,
            total_reward=sum(self._sums) + r_t,
            r_p_sum=self._sums[0], r_s_sum=self._sums[1],
            r_m_sum=self._sums[2], r_t=r_t,
            max_beta=self._max_beta, max_speed=self._max_speed,
            trace=(np.array(self._trace).reshape(-1, len(TRACE_COLUMNS))
                   if self.record else None),
        )
        obs = (obs if obs is not None else self._obs)._replace(chi=0.0)
        return obs, step_reward + r_t, result


Controller = Callable[[FrenetObservation, PlantState], np.ndarray]  # (obs, state) -> action


def episode(controller: Controller, env: DriftEnv, seed=None,
            v0: float | None = None) -> Iterator[tuple]:
    """Roll one episode from `env.reset(seed, v0)`, None the nominal
    start; per tick `controller(obs, state)` and `env.step`, yielding
    `(obs, state, action, reward, next_obs, result)`: what the controller
    saw, what it chose, and what the step returned.  `result` is None
    until the last tick.  Deterministic given the seed and the controller."""
    obs = env.reset(seed, v0)
    result = None
    while result is None:
        state = env.state
        action = controller(obs, state)
        next_obs, reward, result = env.step(action)
        yield obs, state, action, reward, next_obs, result
        obs = next_obs


def run_episode(controller: Controller, env: DriftEnv, seed=None,
                v0: float | None = None) -> EpisodeResult:
    """Roll `episode` to its end and return its `EpisodeResult`."""
    for *_, result in episode(controller, env, seed, v0):
        pass
    return result


def summary_line(result: EpisodeResult, seed: int | None = None) -> str:
    """One-line per-episode log record."""
    return (
        f"seed={seed if seed is not None else -1} chi={result.chi} "
        f"status={result.status} t_f={result.t_f:.3f} s={result.s_final:.2f} "
        f"R={result.total_reward:.3f} r_p={result.r_p_sum:.3f} "
        f"r_s={result.r_s_sum:.3f} r_m={result.r_m_sum:.3f} "
        f"r_t={result.r_t:.3f} max_beta={math.degrees(result.max_beta):.1f} "
        f"vmax={result.max_speed:.2f}"
    )
