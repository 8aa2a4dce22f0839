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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalBlowup, OffCorridor
from .planner import PreTrajectory
from .plant import (
    CONTROL_DT,
    Action,
    ActuatorLimits,
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


def action_bounds(limits: ActuatorLimits = ActuatorLimits()) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) arrays for the (delta_f, T_rt, P_b) action channels."""
    low = np.array([-limits.delta_max, 0.0, 0.0])
    high = np.array([limits.delta_max, limits.t_max, limits.p_max])
    return low, high


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
    kappa_scale = max(float(np.max(np.abs(track.curvature))), 1e-3)
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
    alpha = _wrap_angle(state.phi - track.heading_at(fp.s))
    kc = track.curvature_at(fp.s)
    denom = 1.0 - kc * fp.l
    ca, sa = math.cos(alpha), math.sin(alpha)
    s_dot = (state.v_x * ca - state.v_y * sa) / denom
    l_dot = state.v_x * sa + state.v_y * ca
    alpha_dot = state.yaw_rate - kc * s_dot
    preview_s = np.minimum(
        fp.s + PREVIEW_SPACING * np.arange(1, N_PREVIEW + 1), track.s_max
    )
    kappa_preview = track.curvature_at_many(preview_s)
    return FrenetObservation(
        s=fp.s, l=fp.l, alpha=alpha, s_dot=s_dot, l_dot=l_dot,
        alpha_dot=alpha_dot, v_x=state.v_x, v_y=state.v_y, chi=1.0,
        kappa_preview=kappa_preview,
    )


# -- reward ledger ----------------------------------------------------


@dataclass(frozen=True)
class RewardConfig:
    k_pl: float = -0.5  # 1/m, lateral-error weight (negative)
    k_pv: float = -0.1  # s/m, speed-error weight (negative)
    k_s: float = 2.0  # side-slip bonus ceiling (positive)
    k_s1: float = -3.0  # 1/rad, side-slip saturation rate (negative)
    k_m: float = -0.5  # smoothness weight (negative)
    k_t1: float = 0.1  # 1/m, terminal progress weight (positive)
    k_t2: float = 20.0  # 1/s, terminal time weight (positive)

    def __post_init__(self):
        if not (self.k_pl <= 0 and self.k_pv <= 0 and self.k_m <= 0
                and self.k_s1 < 0):
            raise ValueError("k_pl, k_pv, k_m must be <= 0 and k_s1 < 0")
        if not (self.k_s > 0 and self.k_t1 > 0 and self.k_t2 > 0):
            raise ValueError("k_s, k_t1, k_t2 must be positive")


class RewardTerms(NamedTuple):
    r_p: float
    r_s: float
    r_m: float


def reward_step(
    obs: FrenetObservation,
    action: np.ndarray,
    prev_action: np.ndarray,
    pretraj: PreTrajectory,
    cfg: RewardConfig = RewardConfig(),
    beta_r: float = 0.0,
    limits: ActuatorLimits = ActuatorLimits(),
) -> RewardTerms:
    """Per-tick reward components.

    r_p penalizes lateral and speed deviation from the pre-trajectory,
    r_s is a bonus saturating toward k_s as |beta_r| grows, r_m
    penalizes squared normalized action increments.
    """
    v = math.hypot(obs.v_x, obs.v_y)
    r_p = (cfg.k_pl * abs(obs.l - float(pretraj.l_ref(obs.s)))
           + cfg.k_pv * abs(v - float(pretraj.v_ref(obs.s))))
    r_s = cfg.k_s * (1.0 - math.exp(cfg.k_s1 * abs(beta_r)))
    low, high = action_bounds(limits)
    d = (np.asarray(action) - np.asarray(prev_action)) / (high - low)
    r_m = cfg.k_m * float(d @ d)
    return RewardTerms(r_p, r_s, r_m)


@dataclass(frozen=True)
class EpisodeResult:
    chi: int  # 1 iff the full track was completed
    t_f: float  # s, episode duration
    s_final: float  # m, arc length reached
    status: str  # completed | crashed | timeout
    total_reward: float
    r_p_sum: float
    r_s_sum: float
    r_m_sum: float
    r_t: float
    max_beta: float  # rad, peak |rear side-slip| over the episode
    max_speed: float  # m/s
    fault: bool = False  # plant left its sanity envelope
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
    cfg: RewardConfig = RewardConfig(),
) -> float:
    """Terminal reward: progress plus (on completion) the time margin."""
    return cfg.k_t1 * s_final + cfg.k_t2 * result_chi * (pretraj.t_ref - t_f)


# -- environment ------------------------------------------------------


class DriftEnv:
    """Gym-style environment over the nonlinear plant.

    `reset(rng)` draws the initial state (entry of the track, speed
    uniform in [5, 9] m/s, small lateral/heading noise around the
    pre-trajectory) and `step(action)` advances one 10 ms control tick.
    All stochasticity comes through the generator handed to reset, so
    episodes are reproducible.
    """

    def __init__(
        self,
        track: TrackGeometry,
        pretraj: PreTrajectory,
        reward_cfg: RewardConfig = RewardConfig(),
        tires: TireParams = TireParams(),
        params: VehicleParams = VehicleParams(),
        limits: ActuatorLimits = ActuatorLimits(),
        time_cap: float | None = None,
        record: bool = False,
    ):
        self.track = track
        self.pretraj = pretraj
        self.reward_cfg = reward_cfg
        self.tires = tires
        self.params = params
        self.limits = limits
        self.time_cap = (TIME_CAP_FACTOR * pretraj.t_ref
                         if time_cap is None else time_cap)
        self.record = record
        self.scales = observation_scales(track)
        self._work = np.empty((5, 8))
        self.state: PlantState | None = None

    # initial-state draw ----------------------------------------------

    def reset(
        self,
        rng: np.random.Generator | int | None = None,
        nominal: bool = False,
        v0: float | None = None,
    ) -> FrenetObservation:
        """Draw the initial state; `nominal` skips the randomization for
        deterministic benchmark runs (start of entry, 9 m/s by default or
        `v0` when given, on the reference line)."""
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        if nominal:
            v0 = 9.0 if v0 is None else v0
            l0, a0 = float(self.pretraj.l_ref(0.0)), 0.0
        elif v0 is not None:
            l0 = float(self.pretraj.l_ref(0.0)) + rng.uniform(-0.2, 0.2)
            a0 = rng.uniform(-math.radians(2.0), math.radians(2.0))
        else:
            v0 = rng.uniform(5.0, 9.0)
            l0 = float(self.pretraj.l_ref(0.0)) + rng.uniform(-0.2, 0.2)
            a0 = rng.uniform(-math.radians(2.0), math.radians(2.0))
        x0, y0 = to_cartesian(FrenetPoint(0.0, l0), self.track)
        self.state = PlantState.rolling(
            v0, self.params, x=x0, y=y0,
            phi=_wrap_angle(self.track.heading_at(0.0) + a0),
        )
        self._t = 0.0
        self._steps = 0
        self._s = 0.0
        self._prev_cmd = np.zeros(3)
        self._monitor = TerminationMonitor(dt=CONTROL_DT)
        self._sums = [0.0, 0.0, 0.0]
        self._max_beta = 0.0
        self._max_speed = self.state.v_x
        self._fault = False
        self._status = "running"
        self._rows: list[list[float]] = []
        self._obs = observe(self.state, self.track, s_hint=0.0)
        return self._obs

    # one control tick ------------------------------------------------

    def step(self, action) -> tuple[FrenetObservation, float, bool, dict]:
        if self.state is None:
            raise RuntimeError("call reset() before step()")
        cmd = np.asarray(action, dtype=float)
        low, high = action_bounds(self.limits)
        cmd = np.clip(cmd, low, high)
        try:
            self.state = plant_step(
                self.state, Action(*cmd), CONTROL_DT, self.tires,
                self.params, self.limits, _work=self._work,
            )
        except NumericalBlowup:
            self._fault = True
            self._status = "crashed"
            return self._finish(0.0)
        self._t += CONTROL_DT
        self._steps += 1

        try:
            obs = observe(self.state, self.track, s_hint=self._s)
        except OffCorridor:
            self._status = "crashed"
            return self._finish(0.0)
        self._s = obs.s
        beta = side_slip_rear(self.state, self.params)
        self._max_beta = max(self._max_beta, abs(beta.value))
        self._max_speed = max(self._max_speed, math.hypot(obs.v_x, obs.v_y))

        terms = reward_step(obs, cmd, self._prev_cmd, self.pretraj,
                            self.reward_cfg, beta_r=beta.value,
                            limits=self.limits)
        self._prev_cmd = cmd
        for i, v in enumerate(terms):
            self._sums[i] += v
        if self.record:
            self._rows.append([
                self._t, self.state.x, self.state.y, self.state.phi,
                self.state.v_x, self.state.v_y, self.state.yaw_rate,
                self.state.omega_r, obs.s, obs.l, obs.alpha, beta.value,
                self.state.a_y, self.state.delta_applied,
                self.state.trt_applied, self.state.pb_applied, *terms,
            ])

        status = detect_termination(self.state, self.track,
                                    FrenetPoint(obs.s, obs.l), self.params,
                                    self._monitor)
        if status == "running" and self._t >= self.time_cap - 1e-9:
            status = "timeout"
        if status != "running":
            self._status = status
            return self._finish(sum(terms), obs)
        self._obs = obs
        return obs, sum(terms), False, {"terms": terms, "beta_r": beta.value,
                                        "status": "running"}

    def _finish(self, step_reward: float, obs: FrenetObservation | None = None):
        chi = 1 if self._status == "completed" else 0
        r_t = reward_terminal(chi, self._t, self._s, self.pretraj,
                              self.reward_cfg)
        result = EpisodeResult(
            chi=chi, t_f=self._t, s_final=self._s, status=self._status,
            total_reward=sum(self._sums) + r_t,
            r_p_sum=self._sums[0], r_s_sum=self._sums[1],
            r_m_sum=self._sums[2], r_t=r_t,
            max_beta=self._max_beta, max_speed=self._max_speed,
            fault=self._fault,
            trace=np.array(self._rows) if self.record else None,
        )
        obs = obs if obs is not None else self._obs
        obs = obs._replace(chi=0.0)
        return obs, step_reward + r_t, True, {"result": result,
                                              "status": self._status}


def run_episode(
    policy: Callable[[np.ndarray], np.ndarray],
    env: DriftEnv,
    seed: int | np.random.Generator | None = None,
    nominal: bool = False,
) -> EpisodeResult:
    """Roll one episode; `policy` maps a raw observation vector to an
    action within bounds.  Deterministic given the seed and policy."""
    obs = env.reset(seed, nominal=nominal)
    done = False
    info: dict = {}
    while not done:
        obs, _, done, info = env.step(policy(obs.vector()))
    return info["result"]


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
