"""Deployment controller: preview replay + corrective tracking + fallback.

The trained policy is rolled out once, offline, in its own training
plant to produce a preview trajectory (states in Cartesian form plus the
action applied each tick).  At deployment the recorded action is the
primary input, a two-step MPC tracks the preview's Cartesian trace to
produce a corrective input, and the two are summed in actuator space.
A side-slip safety fallback overrides everything when the rear swings
out beyond its threshold.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .envs import CONTROL_DT, DriftEnv, EpisodeResult, RewardConfig, action_bounds
from .errors import NoMatch, PreviewExhausted, PreviewFailed
from .mpc import (
    V_EPS,
    CartesianState,
    MpcInput,
    MpcWeights,
    discretize_augment,
    linearize,
    solve_qp,
)
from .planner import PreTrajectory
from .plant import ActuatorLimits, TireParams, VehicleParams, side_slip_rear
from .track import TrackGeometry, to_frenet

SPEED_BUCKET = 0.5  # m/s, entry-speed quantization of stored previews
PREVIEW_FILE_VERSION = "driftcorner preview v1"


def params_digest(params: VehicleParams, tires: TireParams) -> str:
    """Short content hash identifying a plant configuration."""
    raw = np.concatenate([params.as_array(), tires.as_array()]).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


def speed_bucket(v: float) -> float:
    return round(v / SPEED_BUCKET) * SPEED_BUCKET


# -- preview trajectory -----------------------------------------------


@dataclass(frozen=True)
class PreviewTrajectory:
    """Offline policy rollout: per-tick Cartesian state, action, and
    arc-length, with the provenance needed to know when to regenerate."""

    t: np.ndarray  # s, uniform CONTROL_DT ticks
    gamma: np.ndarray  # (n, 6): X, Y, phi, v_x, v_y, yaw rate
    a_rl: np.ndarray  # (n, 3): commanded delta_f, T_rt, P_b
    s: np.ndarray  # m, non-decreasing
    policy_checksum: float
    plant_digest: str
    track_id: str
    v_ini: float  # m/s, bucketed entry speed
    t_f: float  # s, completion time of the rollout

    def __post_init__(self):
        dt = np.diff(self.t)
        if len(dt) and (np.max(np.abs(dt - CONTROL_DT)) > 1e-9):
            raise ValueError("preview ticks must be uniform at 10 ms")
        if np.any(np.diff(self.s) < -1e-9):
            raise ValueError("preview arc length must be non-decreasing")

    def __len__(self) -> int:
        return len(self.t)

    def state_at(self, i: int) -> CartesianState:
        i = min(max(i, 0), len(self.t) - 1)
        return CartesianState(*self.gamma[i])


def generate_preview(
    policy,
    params: VehicleParams,
    tires: TireParams,
    track: TrackGeometry,
    pretraj: PreTrajectory,
    v_ini: float = 9.0,
    seed: int = 0,
    track_id: str = "custom",
    limits: ActuatorLimits = ActuatorLimits(),
) -> PreviewTrajectory:
    """Deterministic closed-loop rollout of the policy in the training
    plant; fails (rather than returning junk) if the rollout does not
    complete the corner."""
    env = DriftEnv(track, pretraj, tires=tires, params=params, limits=limits)
    v_ini = speed_bucket(v_ini)
    obs = env.reset(seed, nominal=True, v0=v_ini)
    rows_g, rows_a, rows_s, rows_t = [], [], [], []
    done = False
    t = 0.0
    info: dict = {}
    while not done:
        act = np.asarray(policy(obs.vector()), dtype=float)
        st = env.state
        rows_t.append(t)
        rows_g.append([st.x, st.y, st.phi, st.v_x, st.v_y, st.yaw_rate])
        rows_a.append(act)
        rows_s.append(obs.s)
        obs, _, done, info = env.step(act)
        t += CONTROL_DT
    result: EpisodeResult = info["result"]
    if result.chi != 1:
        raise PreviewFailed(
            f"policy rollout ended '{result.status}' at s={result.s_final:.1f}"
        )
    checksum = policy.checksum() if hasattr(policy, "checksum") else 0.0
    return PreviewTrajectory(
        t=np.array(rows_t), gamma=np.array(rows_g), a_rl=np.array(rows_a),
        s=np.array(rows_s), policy_checksum=float(checksum),
        plant_digest=params_digest(params, tires), track_id=track_id,
        v_ini=v_ini, t_f=result.t_f,
    )


def save_preview(preview: PreviewTrajectory, path) -> None:
    from pathlib import Path

    lines = [
        f"# {PREVIEW_FILE_VERSION}",
        f"# policy_checksum = {preview.policy_checksum!r}",
        f"# plant_digest = {preview.plant_digest}",
        f"# track_id = {preview.track_id}",
        f"# v_ini = {preview.v_ini!r}",
        f"# t_f = {preview.t_f!r}",
        "# t X Y phi v_x v_y yaw_rate delta_f T_rt P_b s",
    ]
    for i in range(len(preview)):
        vals = [preview.t[i], *preview.gamma[i], *preview.a_rl[i], preview.s[i]]
        lines.append(" ".join(repr(float(v)) for v in vals))
    Path(path).write_text("\n".join(lines) + "\n")


def load_preview(path) -> PreviewTrajectory:
    from pathlib import Path

    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != f"# {PREVIEW_FILE_VERSION}":
        raise ValueError(f"not a {PREVIEW_FILE_VERSION} file: {path}")
    meta: dict[str, str] = {}
    rows = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            if "=" in ln:
                key, val = ln[1:].split("=", 1)
                meta[key.strip()] = val.strip()
            continue
        rows.append([float(v) for v in ln.split()])
    data = np.array(rows)
    return PreviewTrajectory(
        t=data[:, 0], gamma=data[:, 1:7], a_rl=data[:, 7:10], s=data[:, 10],
        policy_checksum=float(meta["policy_checksum"]),
        plant_digest=meta["plant_digest"], track_id=meta["track_id"],
        v_ini=float(meta["v_ini"]), t_f=float(meta["t_f"]),
    )


# -- scene library ----------------------------------------------------


def track_descriptor(track: TrackGeometry) -> tuple[float, float, float]:
    """(total heading change rad, arc radius m, width m)."""
    dpsi = abs(track.heading_at(track.s_max) - track.heading_at(0.0))
    kmax = float(np.max(np.abs(track.curvature)))
    radius = 1.0 / kmax if kmax > 1e-9 else math.inf
    return dpsi, radius, 2.0 * track.half_width


@dataclass
class SceneLibraryEntry:
    track_id: str
    descriptor: tuple[float, float, float]
    previews: dict[float, PreviewTrajectory] = field(default_factory=dict)

    def add(self, preview: PreviewTrajectory) -> None:
        self.previews[preview.v_ini] = preview

    def preview_for(self, v_entry: float) -> PreviewTrajectory:
        if not self.previews:
            raise NoMatch(f"entry {self.track_id} holds no previews")
        key = min(self.previews, key=lambda v: abs(v - v_entry))
        return self.previews[key]


# Descriptor distance weights: heading change in rad, curvature in 1/m,
# width in m are of comparable magnitude for road-scale corners.
_MATCH_WEIGHTS = (1.0, 10.0, 0.5)
MATCH_THRESHOLD = 0.35  # below half the spacing of the library tracks


def descriptor_distance(a, b) -> float:
    wd, wk, ww = _MATCH_WEIGHTS
    return math.sqrt(
        wd * (a[0] - b[0]) ** 2
        + wk * (1.0 / a[1] - 1.0 / b[1]) ** 2
        + ww * (a[2] - b[2]) ** 2
    )


def match_curve(
    descriptor: tuple[float, float, float],
    library: list[SceneLibraryEntry],
    threshold: float = MATCH_THRESHOLD,
) -> tuple[SceneLibraryEntry, float]:
    """Nearest scene under the weighted descriptor distance."""
    if not library:
        raise NoMatch("scene library is empty")
    best = min(library, key=lambda e: descriptor_distance(descriptor, e.descriptor))
    dist = descriptor_distance(descriptor, best.descriptor)
    if dist > threshold:
        raise NoMatch(
            f"nearest scene {best.track_id} at distance {dist:.3f} "
            f"exceeds threshold {threshold}"
        )
    return best, dist


# -- fusion controller ------------------------------------------------


@dataclass(frozen=True)
class FallbackConfig:
    beta_threshold: float = math.radians(75.0)
    p_bm: float = 3.0  # MPa, moderate braking
    hysteresis: float = math.radians(10.0)

    def __post_init__(self):
        if not 0.0 < self.p_bm:
            raise ValueError("p_bm must be positive")


@dataclass
class TickRecord:
    """Per-tick decomposition for the deploy log (pre-clamp sums)."""

    t: float
    a_rl: np.ndarray
    du_mpc: np.ndarray  # actuator-space correction (delta, T_rt, P_b)
    u_t: np.ndarray  # a_rl + du_mpc, before clamping
    applied: np.ndarray  # after clamping / fallback
    fallback: bool
    compute_ms: float
    kkt_residual: float


class FusionController:
    """Stateful per-tick controller combining preview replay with the
    corrective tracker and the side-slip fallback."""

    def __init__(
        self,
        preview: PreviewTrajectory,
        track: TrackGeometry,
        model_params: VehicleParams,  # the controller's belief (training plant)
        weights: MpcWeights = MpcWeights(),
        fallback: FallbackConfig = FallbackConfig(),
        limits: ActuatorLimits = ActuatorLimits(),
        mpc_enabled: bool = True,
        primary_enabled: bool = True,
    ):
        self.preview = preview
        self.track = track
        self.params = model_params
        self.weights = weights
        self.fallback = fallback
        self.limits = limits
        self.mpc_enabled = mpc_enabled
        self.primary_enabled = primary_enabled
        self.u_mpc = MpcInput(0.0, 0.0)
        self.fallback_on = False
        self.t = 0.0
        self.s_hint = 0.0
        self.records: list[TickRecord] = []
        self._low, self._high = action_bounds(limits)
        self._s_dots = np.gradient(preview.s) / CONTROL_DT
        # Reference inputs implied by the preview motion, used as the
        # feedforward when the primary channel is ablated (tracker-only
        # mode): steering as recorded, acceleration from the recorded
        # longitudinal rate minus the kinematic coupling term.
        vx, vy, r = preview.gamma[:, 3], preview.gamma[:, 4], preview.gamma[:, 5]
        self._u_ff = np.column_stack([
            preview.a_rl[:, 0],
            np.gradient(vx) / CONTROL_DT - vy * r,
        ])
        self._mats = self._precompute() if mpc_enabled else None

    def _precompute(self):
        """Discretized prediction matrices at every preview point; the
        reference trajectory is fixed, so this is offline work."""
        a_list, b_list = [], []
        for i in range(len(self.preview)):
            ref = self.preview.state_at(i)
            if ref.v_x < V_EPS:
                ref = ref._replace(v_x=V_EPS)
            a_aug, b_aug = discretize_augment(
                *linearize(ref, self.params), self.weights.t_s)
            a_list.append(a_aug)
            b_list.append(b_aug)
        return np.array(a_list), np.array(b_list)

    def _reference_index(self, s: float) -> int:
        """Nearest preview sample by arc length, ties toward larger s."""
        sp = self.preview.s
        j = int(np.searchsorted(sp, s))
        if j <= 0:
            return 0
        if j >= len(sp):
            raise PreviewExhausted(f"s={s:.2f} beyond preview end {sp[-1]:.2f}")
        return j if sp[j] - s <= s - sp[j - 1] else j - 1

    def __call__(self, state) -> np.ndarray:
        """One 100 Hz tick: PlantState in, actuator command out."""
        t0 = time.perf_counter()
        try:
            fp = to_frenet((state.x, state.y), self.track, s_hint=self.s_hint)
            self.s_hint = fp.s
            k = self._reference_index(fp.s)
            exhausted = False
        except PreviewExhausted:
            k = len(self.preview) - 1
            exhausted = True
        a_rl = (self.preview.a_rl[k].copy() if self.primary_enabled
                else np.zeros(3))

        du_act = np.zeros(3)
        kkt = 0.0
        if self.mpc_enabled and state.v_x >= V_EPS:
            # Advance along the preview by its own progress rate.
            s_dots = self._s_dots
            k1 = k if exhausted else self._index_ahead(k, s_dots[k] * self.weights.t_s)
            k2 = k1 if exhausted else self._index_ahead(k1, s_dots[k1] * self.weights.t_s)
            gamma_now = np.array([state.x, state.y, state.phi,
                                  state.v_x, state.v_y, state.yaw_rate])
            # Correction acts on the deviation from the preview: the
            # primary input already produces the reference motion, so the
            # linearized model propagates the error with a zero target.
            gamma_err = gamma_now - self.preview.gamma[k]
            gamma_err[2] = math.atan2(math.sin(gamma_err[2]),
                                      math.cos(gamma_err[2]))
            gamma_aug = np.concatenate([gamma_err, np.asarray(self.u_mpc)])
            mats = (self._mats[0][k], self._mats[1][k],
                    self._mats[0][k1], self._mats[1][k1])
            du_k, _, diag = solve_qp(
                gamma_aug,
                (np.zeros(6), np.zeros(6)),
                mats, self.weights)
            kkt = diag.kkt_residual
            self.u_mpc = MpcInput(self.u_mpc.delta_f + float(du_k[0]),
                                  self.u_mpc.a_xt + float(du_k[1]))
            u_out = self.u_mpc
            if not self.primary_enabled:
                u_out = MpcInput(u_out.delta_f + self._u_ff[k, 0],
                                 u_out.a_xt + self._u_ff[k, 1])
            du_act = self._to_actuator_space(u_out, a_rl)
        elif not self.mpc_enabled:
            self.u_mpc = MpcInput(0.0, 0.0)

        u_t = a_rl + du_act
        applied = np.clip(u_t, self._low, self._high)

        beta = side_slip_rear(state, self.params).value
        if self.fallback_on and abs(beta) < self.fallback.beta_threshold - self.fallback.hysteresis:
            self.fallback_on = False
        if abs(beta) >= self.fallback.beta_threshold:
            self.fallback_on = True
        engaged = self.fallback_on
        if engaged:
            applied = np.array([applied[0], 0.0, self.fallback.p_bm])

        self.records.append(TickRecord(
            t=self.t, a_rl=a_rl, du_mpc=du_act, u_t=u_t, applied=applied,
            fallback=engaged,
            compute_ms=(time.perf_counter() - t0) * 1e3,
            kkt_residual=kkt,
        ))
        self.t += CONTROL_DT
        return applied

    def _index_ahead(self, k: int, ds: float) -> int:
        s_target = self.preview.s[k] + max(ds, 0.0)
        j = int(np.searchsorted(self.preview.s, s_target))
        return min(max(j, k + 1), len(self.preview) - 1)

    def _to_actuator_space(self, u: MpcInput, a_rl: np.ndarray) -> np.ndarray:
        """Map the (delta, a_xt) correction onto actuator channels; an
        acceleration correction opposing the primary command cancels it
        before engaging the opposite actuator."""
        p = self.params
        torque_equiv = p.m * u.a_xt * p.r_w
        if torque_equiv >= 0.0:
            # Positive correction releases brake pressure first.
            p_release = min(a_rl[2], torque_equiv / p.k_b)
            d_trt = torque_equiv - p_release * p.k_b
            return np.array([u.delta_f, d_trt, -p_release])
        # Braking correction cancels drive torque first.
        t_cancel = min(a_rl[1], -torque_equiv)
        d_pb = (-torque_equiv - t_cancel) / p.k_b
        return np.array([u.delta_f, -t_cancel, d_pb])


# -- deployment run ---------------------------------------------------


@dataclass(frozen=True)
class DeploymentSpec:
    """Plant mismatch between training and deployment (the desk-scale
    stand-in for the simulation-to-reality gap)."""

    mu: float | None = None
    mass_scale: float = 1.0
    tire_b_scale: float = 1.0
    tire_d_scale: float = 1.0

    def apply(
        self, params: VehicleParams, tires: TireParams
    ) -> tuple[VehicleParams, TireParams]:
        out_p = replace(params, m=params.m * self.mass_scale)
        out_t = tires
        if self.mu is not None:
            out_t = replace(out_t, mu=self.mu)
        out_t = replace(out_t,
                        b_front=out_t.b_front * self.tire_b_scale,
                        b_rear=out_t.b_rear * self.tire_b_scale,
                        d_front=out_t.d_front * self.tire_d_scale,
                        d_rear=out_t.d_rear * self.tire_d_scale)
        return out_p, out_t


@dataclass
class DeployResult:
    episode: EpisodeResult
    records: list[TickRecord]
    fallback_events: int
    mean_tick_ms: float
    completion_deg: float
    total_deg: float

    @property
    def completed(self) -> bool:
        return self.episode.chi == 1


def completion_degrees(track: TrackGeometry, s_final: float) -> tuple[float, float]:
    """(achieved, total) swept heading in degrees at arc length s_final."""
    s_final = min(max(s_final, 0.0), track.s_max)
    achieved = abs(track.heading_at(s_final) - track.heading_at(0.0))
    total = abs(track.heading_at(track.s_max) - track.heading_at(0.0))
    return math.degrees(achieved), math.degrees(total)


def deploy_run(
    preview: PreviewTrajectory,
    track: TrackGeometry,
    pretraj: PreTrajectory,
    train_params: VehicleParams,
    deploy_params: VehicleParams,
    deploy_tires: TireParams,
    seed: int = 0,
    nominal: bool = True,
    weights: MpcWeights = MpcWeights(),
    fallback: FallbackConfig = FallbackConfig(),
    limits: ActuatorLimits = ActuatorLimits(),
    mpc_enabled: bool = True,
    primary_enabled: bool = True,
    reward_cfg: RewardConfig = RewardConfig(),
    record_trace: bool = False,
) -> DeployResult:
    """Closed-loop run of the fusion controller on the deployment plant."""
    env = DriftEnv(track, pretraj, reward_cfg=reward_cfg, tires=deploy_tires,
                   params=deploy_params, limits=limits, record=record_trace)
    ctl = FusionController(preview, track, train_params, weights, fallback,
                           limits, mpc_enabled=mpc_enabled,
                           primary_enabled=primary_enabled)
    obs = env.reset(seed, nominal=nominal, v0=preview.v_ini)
    done = False
    info: dict = {}
    while not done:
        act = ctl(env.state)
        obs, _, done, info = env.step(act)
    result: EpisodeResult = info["result"]
    ach, tot = completion_degrees(track, result.s_final)
    ticks = ctl.records
    return DeployResult(
        episode=result,
        records=ticks,
        fallback_events=_count_engagements(ticks),
        mean_tick_ms=float(np.mean([r.compute_ms for r in ticks])) if ticks else 0.0,
        completion_deg=ach,
        total_deg=tot,
    )


def _count_engagements(records: list[TickRecord]) -> int:
    count = 0
    prev = False
    for r in records:
        if r.fallback and not prev:
            count += 1
        prev = r.fallback
    return count


def write_deploy_csv(result: DeployResult, path) -> None:
    """Per-tick decomposition log (Fig. 12-style paired channels)."""
    from pathlib import Path

    header = ("t,a_rl_delta,a_rl_trt,a_rl_pb,"
              "du_delta,du_trt,du_pb,ut_delta,ut_trt,ut_pb,"
              "applied_delta,applied_trt,applied_pb,fallback,compute_ms")
    lines = [header]
    for r in result.records:
        lines.append(",".join(
            [f"{r.t:.3f}"]
            + [f"{v:.6g}" for v in (*r.a_rl, *r.du_mpc, *r.u_t, *r.applied)]
            + [str(int(r.fallback)), f"{r.compute_ms:.4f}"]
        ))
    Path(path).write_text("\n".join(lines) + "\n")
