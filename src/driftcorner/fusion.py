"""Deployment controller: preview replay + corrective tracking + fallback.

The trained policy is rolled out (`envs.episode`) once, offline, in its
own training plant to produce a preview trajectory (states in Cartesian
form plus the action applied each tick), saved as a preview file
(`textfile` convention, one row per tick, with digests of the plant,
the track geometry and the pre-trajectory it was made on); the fusion
controller is then rolled out in the deployment plant.  The recorded
action is its primary input, an MPC over `mpc.N_STEPS` ticks tracks
the preview's Cartesian trace to produce a corrective input, and the
two are summed in actuator space.  A side-slip safety fallback
overrides everything when the rear swings out beyond its threshold.
Both rollouts start from the nominal state unless given a seed.  The
controller's `MODES` are `fused`, `mpc_only` (the MPC, with the
preview motion's feedforward in place of the recorded action) and
`replay` (the recorded action alone).

Offline, when the controller is built, each preview point k gets its
condensed tracking QP (`mpc.condense`): the Hessian H_k, the gradient
map F_k and the unconstrained gain K_k, from the models at ticks k,
k + 1, ..., one per step of the horizon.  The horizon, weights, boxes
and sample time are the constants of `mpc`.  Per tick the
controller takes the arc length `obs.s` that the env projected the
c.g. to, picks k, and forms the deviation from the preview, whose
target is zero; `mpc.solve_qp` takes g = F_k gamma_aug and the
unconstrained minimizer K_k gamma_aug, bounds the rates and inputs, and
returns without a solve when that minimizer is feasible; otherwise the
dual active set of `mpc.solve_box_qp` starts from it.  That iteration
ends finitely, and a tick that reaches its guard instead is counted in
`qp_failures` and applies no correction, as a tick below the model's
speed guard does.  The rest of the tick (the sum of the two inputs, the
clamp to the action box and the fallback) is arithmetic on three Python
floats.

Each tick appends its 16 numbers (the fields of `TickRecord`: t, a_rl,
du_mpc, u_t, applied, fallback as 0/1, compute_ms, kkt_residual) to one
flat float buffer; the run's `records` is a read-only `TickLog` over the
(ticks, 16) array made from it once, when the run ends.  The env's trace
and the preview rollout's rows are kept the same way.
"""

from __future__ import annotations

import hashlib
import math
import operator
import time
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import textfile
from .envs import (ACTION_HIGH, ACTION_LOW, CONTROL_DT, DriftEnv, EpisodeResult,
                   FrenetObservation, episode, run_episode)
from .errors import NoConvergence, PreviewFailed
from .mpc import (
    N_AUG,
    N_STEPS,
    N_Z,
    V_EPS,
    CartesianState,
    CondensedQp,
    MpcInput,
    condense,
    discretize_augment,
    linearize,
    solve_qp,
)
from .planner import PreTrajectory
from .plant import PlantState, TireParams, VehicleParams, side_slip_rear
from .track import TrackGeometry
# Not called here; the traced benchmark run (perfbench/spans.py) patches
# this binding through the module's __dict__, and tests/test_spans.py
# asserts that it exists.
from .track import to_frenet  # noqa: F401

PREVIEW_FILE = textfile.Format(
    "preview", 3,
    ("policy_checksum", "plant_digest", "track_id", "track_digest", "pretraj_digest",
     "v_ini", "t_f"),
    recreate="driftcorner preview", columns="t X Y phi v_x v_y yaw_rate delta_f T_rt P_b s")
MODEL_BLOCK = 128  # preview points per stacked model build (small temporaries)
MODES = ("fused", "mpc_only", "replay")  # FusionController's input channels

# Side-slip fallback: past FALLBACK_BETA of rear side-slip the drive is
# cut and the brakes held at FALLBACK_P_BM until the slip falls back
# below FALLBACK_BETA - FALLBACK_HYSTERESIS.
FALLBACK_BETA = math.radians(75.0)
FALLBACK_P_BM = 3.0  # MPa, moderate braking
FALLBACK_HYSTERESIS = math.radians(10.0)
# (low, high) of each action channel, as Python floats for the tick.
_ACTION_BOX = tuple(zip(ACTION_LOW.tolist(), ACTION_HIGH.tolist()))


def params_digest(params: VehicleParams, tires: TireParams) -> str:
    """Short content hash of the plant's settable values."""
    raw = np.array([params.m, tires.mu, tires.b, tires.d], dtype=float).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


def track_digest(track: TrackGeometry) -> str:
    """Short content hash of the track geometry: the half width, the
    segment breaks and the curvatures."""
    raw = np.concatenate(([track.half_width], track.seg_breaks, track.seg_kappa),
                         dtype=float).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


def pretraj_digest(pretraj: PreTrajectory) -> str:
    """Short content hash of a plan: its adhesion mu and the knots and
    values of its offset spline, from which every sample is derived."""
    raw = np.concatenate(([pretraj.mu], pretraj.path.knots, pretraj.path.values),
                         dtype=float).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


# -- preview trajectory -----------------------------------------------


@dataclass(frozen=True, eq=False)
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
    track_digest: str  # `track_digest` of the geometry it was rolled out on
    pretraj_digest: str  # `pretraj_digest` of the plan it was rolled out on
    v_ini: float  # m/s, entry speed
    t_f: float  # s, completion time of the rollout

    def __post_init__(self):
        if not 0.0 < self.v_ini < math.inf:
            raise ValueError(f"v_ini must be finite and positive, got {self.v_ini!r}")
        if not math.isfinite(self.t_f):
            raise ValueError(f"t_f must be finite, got {self.t_f!r}")
        n = len(self.t)
        for name, shape in (("t", (n,)), ("s", (n,)), ("gamma", (n, 6)), ("a_rl", (n, 3))):
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"preview {name} has shape {np.shape(getattr(self, name))}, "
                                 f"expected {shape}: one row per tick of t")
        if not all(np.all(np.isfinite(a)) for a in (self.t, self.s, self.gamma, self.a_rl)):
            raise ValueError("preview t, s, gamma and a_rl must be finite")
        dt = np.diff(self.t)
        if len(dt) and (np.max(np.abs(dt - CONTROL_DT)) > 1e-9):
            raise ValueError("preview ticks must be uniform at 10 ms")
        if np.any(np.diff(self.s) < -1e-9):
            raise ValueError("preview arc length must be non-decreasing")

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def from_rows(cls, rows, **provenance) -> PreviewTrajectory:
        """From (n, 11) rows of t, gamma, a_rl and s, the file's layout."""
        data = np.array(rows, dtype=float)
        if data.ndim != 2 or data.shape[1] != 11:
            raise ValueError("expected rows of 11 numbers")
        return cls(t=data[:, 0].copy(), gamma=data[:, 1:7].copy(),
                   a_rl=data[:, 7:10].copy(), s=data[:, 10].copy(), **provenance)

    def rows(self) -> np.ndarray:
        """The inverse of `from_rows`."""
        return np.column_stack((self.t, self.gamma, self.a_rl, self.s))


def generate_preview(
    policy,
    params: VehicleParams,
    tires: TireParams,
    track: TrackGeometry,
    pretraj: PreTrajectory,
    v_ini: float = 9.0,
    track_id: str = "custom",
) -> PreviewTrajectory:
    """Deterministic closed-loop rollout of the policy in the training
    plant from the entry speed `v_ini`; fails (rather than returning
    junk) if the rollout does not complete the corner.  A `v_ini`
    outside (0, inf) is a ValueError."""
    if not 0.0 < v_ini < math.inf:
        raise ValueError(f"v_ini must be finite and positive, got {v_ini!r}")
    env = DriftEnv(track, pretraj, tires=tires, params=params)
    rows, t = array("d"), 0.0  # the file's 11 columns per tick, flat
    for obs, st, act, _, _, result in episode(policy, env, v0=v_ini):
        rows.extend((t, st.x, st.y, st.phi, st.v_x, st.v_y, st.yaw_rate, *act, obs.s))
        t += CONTROL_DT
    if result.chi != 1:
        raise PreviewFailed(
            f"policy rollout ended '{result.status}' at s={result.s_final:.1f}"
        )
    checksum = policy.checksum() if hasattr(policy, "checksum") else 0.0
    return PreviewTrajectory.from_rows(
        np.array(rows).reshape(-1, 11), policy_checksum=float(checksum),
        plant_digest=params_digest(params, tires), track_id=track_id,
        track_digest=track_digest(track), pretraj_digest=pretraj_digest(pretraj),
        v_ini=v_ini, t_f=result.t_f,
    )


def save_preview(preview: PreviewTrajectory, path) -> None:
    textfile.write(path, PREVIEW_FILE, {key: getattr(preview, key) for key in PREVIEW_FILE.keys},
                   preview.rows().tolist())


def load_preview(path) -> PreviewTrajectory:
    return textfile.read(path, PREVIEW_FILE, lambda fields, rows: PreviewTrajectory.from_rows(
        rows, policy_checksum=float(fields["policy_checksum"]),
        plant_digest=fields["plant_digest"], track_id=fields["track_id"],
        track_digest=fields["track_digest"], pretraj_digest=fields["pretraj_digest"],
        v_ini=float(fields["v_ini"]), t_f=float(fields["t_f"])))


# -- fusion controller ------------------------------------------------


@dataclass
class TickRecord:
    """Per-tick decomposition for the deploy log (pre-clamp sums).

    One row of a `TickLog`, whose 16 columns hold these fields in this
    order: t, a_rl, du_mpc, u_t and applied (three channels each),
    fallback as 0/1, compute_ms and kkt_residual.  Read from a log, the
    array fields are read-only views of the row."""

    t: float
    a_rl: np.ndarray
    du_mpc: np.ndarray  # actuator-space correction (delta, T_rt, P_b)
    u_t: np.ndarray  # a_rl + du_mpc, before clamping
    applied: np.ndarray  # after clamping / fallback
    fallback: bool
    compute_ms: float
    kkt_residual: float


TICK_LOG_WIDTH = 16  # numbers per tick in a TickLog row


class TickLog(Sequence):
    """A run's per-tick log: a read-only sequence of `TickRecord`s over
    one (ticks, TICK_LOG_WIDTH) float array, `data`, in the record's
    field order.  The controller extends a flat buffer each tick and
    makes the array when the log is read."""

    def __init__(self, buf: array):
        self.data = np.array(buf).reshape(-1, TICK_LOG_WIDTH)
        self.data.flags.writeable = False

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i: int) -> TickRecord:
        row = self.data[operator.index(i)]
        return TickRecord(t=float(row[0]), a_rl=row[1:4], du_mpc=row[4:7], u_t=row[7:10],
                          applied=row[10:13], fallback=bool(row[13]),
                          compute_ms=float(row[14]), kkt_residual=float(row[15]))


class FusionController:
    """Stateful per-tick controller combining preview replay with the
    corrective tracker and the side-slip fallback; `mode` is `fused`,
    `mpc_only` or `replay` (`MODES`), and any other is a ValueError."""

    def __init__(
        self,
        preview: PreviewTrajectory,
        model_params: VehicleParams,  # the controller's belief (training plant)
        mode: str = "fused",
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, not {mode!r}")
        self.preview = preview
        self.params = model_params
        self.u_mpc = MpcInput(0.0, 0.0)
        self.fallback_on = False
        self.fallback_events = 0  # engagements, counted as each starts
        self.qp_failures = 0  # ticks whose QP did not converge
        self.preview_exhausted = 0  # ticks past the preview's end, held at its last point
        self.t = 0.0
        self._log = array("d")  # TICK_LOG_WIDTH numbers per tick, see `records`
        self._s_list = preview.s.tolist()  # for the per-tick bisection
        # The mode, resolved for the tick: the feedforward only where it
        # replaces the recorded action, the QP stack only where the MPC
        # runs.  The feedforward is the input the preview motion implies:
        # steering as recorded, acceleration from the recorded
        # longitudinal rate minus the kinematic coupling term.
        self._u_ff = None
        if mode == "mpc_only":
            vx, vy, r = preview.gamma[:, 3:6].T
            self._u_ff = np.column_stack([preview.a_rl[:, 0],
                                          np.gradient(vx) / CONTROL_DT - vy * r])
        self._qp = self._precompute() if mode != "replay" else None

    def _precompute(self) -> CondensedQp:
        """Condensed tracking QP at every preview point: stacks (n, 2N, 2N)
        of H_k and (n, 2N, 8) of F_k and K_k, N = N_STEPS.

        Step j of the QP at k uses the model at tick k + j, clamped to
        the last tick: the preview's ticks are one sample time apart.
        Per MODEL_BLOCK points, extended by N_STEPS - 1 ticks, one
        stacked linearization (v_x held at the singularity guard) and
        one discretization feed one `condense`; no model stack outlives
        its block.  The preview is fixed, so this is offline work."""
        p = self.preview
        n = len(p)
        h = np.empty((n, N_Z, N_Z))
        f, gain = np.empty((n, N_Z, N_AUG)), np.empty((n, N_Z, N_AUG))
        for i in range(0, n, MODEL_BLOCK):
            blk = slice(i, min(i + MODEL_BLOCK, n))
            g = p.gamma[i:blk.stop + N_STEPS - 1]
            ref = CartesianState(*g.T)._replace(v_x=np.maximum(g[:, 3], V_EPS))
            a_aug, b_aug = discretize_augment(*linearize(ref, self.params))
            ticks = np.minimum(np.arange(N_STEPS)[:, None] + np.arange(blk.stop - i), len(g) - 1)
            h[blk], f[blk], gain[blk] = condense([m for t in ticks for m in (a_aug[t], b_aug[t])])
        return CondensedQp(h, f, gain)

    def _reference_index(self, s: float) -> int:
        """Nearest preview sample by arc length, ties toward larger s;
        past the preview's end, its last sample."""
        sp = self._s_list
        j = bisect_left(sp, s)  # np.searchsorted's side="left"
        if j <= 0:
            return 0
        if j >= len(sp):
            return j - 1
        s_before, s_at = sp[j - 1], sp[j]
        return j if s_at - s <= s - s_before else j - 1

    def __call__(self, obs: FrenetObservation, state: PlantState) -> np.ndarray:
        """One 100 Hz tick: the env's observation, of which only the arc
        length `obs.s` of the c.g. is read, and the plant state in, the
        actuator command out."""
        t0 = time.perf_counter()
        k = self._reference_index(obs.s)
        self.preview_exhausted += obs.s > self._s_list[-1]
        u_ff = self._u_ff
        a_rl = self.preview.a_rl[k].tolist() if u_ff is None else [0.0, 0.0, 0.0]

        du_act = (0.0, 0.0, 0.0)
        kkt = 0.0
        qp = self._qp
        if qp is not None and state.v_x >= V_EPS:
            # Correction acts on the deviation from the preview: the
            # primary input already produces the reference motion, so the
            # linearized model propagates the error with a zero target.
            x, y, phi, v_x, v_y, r = self.preview.gamma[k].tolist()
            d_phi = state.phi - phi
            gamma_aug = np.array([
                state.x - x, state.y - y,
                math.atan2(math.sin(d_phi), math.cos(d_phi)),
                state.v_x - v_x, state.v_y - v_y, state.yaw_rate - r,
                self.u_mpc.delta_f, self.u_mpc.a_xt,
            ])
            try:
                du_k, _, sol = solve_qp(gamma_aug, CondensedQp(qp.h[k], qp.f[k], qp.k[k]))
            except NoConvergence:
                # counted; the tick applies no correction and holds u_mpc,
                # as below V_EPS
                self.qp_failures += 1
            else:
                kkt = sol.kkt_residual
                dd, da = du_k.tolist()
                self.u_mpc = MpcInput(self.u_mpc.delta_f + dd, self.u_mpc.a_xt + da)
                u_out = self.u_mpc
                if u_ff is not None:
                    ff_d, ff_a = u_ff[k].tolist()
                    u_out = MpcInput(u_out.delta_f + ff_d, u_out.a_xt + ff_a)
                du_act = self._to_actuator_space(u_out, a_rl)

        u_t = [a + d for a, d in zip(a_rl, du_act)]
        # np.clip's rule: -0.0 below a 0.0 floor becomes 0.0, NaN stays NaN
        applied = [lo if u <= lo else hi if u >= hi else u
                   for u, (lo, hi) in zip(u_t, _ACTION_BOX)]

        beta = abs(side_slip_rear(state))
        engaged = beta >= FALLBACK_BETA or (
            self.fallback_on and not beta < FALLBACK_BETA - FALLBACK_HYSTERESIS)
        self.fallback_events += engaged and not self.fallback_on
        self.fallback_on = engaged
        if engaged:
            applied[1:] = 0.0, FALLBACK_P_BM

        self._log.extend((self.t, *a_rl, *du_act, *u_t, *applied, engaged,
                          (time.perf_counter() - t0) * 1e3, kkt))
        self.t += CONTROL_DT
        return np.array(applied)

    @property
    def records(self) -> TickLog:
        """The ticks so far, as a `TickLog` copied from the buffer."""
        return TickLog(self._log)

    def _to_actuator_space(
        self, u: MpcInput, a_rl: list[float]
    ) -> tuple[float, float, float]:
        """Map the (delta, a_xt) correction onto actuator channels; an
        acceleration correction opposing the primary command cancels it
        before engaging the opposite actuator."""
        p = self.params
        torque_equiv = p.m * u.a_xt * p.r_w
        if torque_equiv >= 0.0:
            # Positive correction releases brake pressure first.
            p_release = min(a_rl[2], torque_equiv / p.k_b)
            d_trt = torque_equiv - p_release * p.k_b
            return u.delta_f, d_trt, -p_release
        # Braking correction cancels drive torque first.
        t_cancel = min(a_rl[1], -torque_equiv)
        d_pb = (-torque_equiv - t_cancel) / p.k_b
        return u.delta_f, -t_cancel, d_pb


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
        """The deployment plant; a ValueError if a value leaves (0, inf)."""
        mu = tires.mu if self.mu is None else self.mu
        return (replace(params, m=params.m * self.mass_scale),
                replace(tires, mu=mu, b=tires.b * self.tire_b_scale,
                        d=tires.d * self.tire_d_scale))


@dataclass
class DeployResult:
    episode: EpisodeResult
    records: Sequence[TickRecord]  # a TickLog from `deploy_run`
    fallback_events: int
    qp_failures: int = field(default=0, kw_only=True)  # ticks whose QP did not converge
    # ticks past the preview's end, which held its last point
    preview_exhausted: int = field(default=0, kw_only=True)
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
    seed=None,
    mode: str = "fused",
    record_trace: bool = False,
) -> DeployResult:
    """Closed-loop run of the fusion controller in `mode` (one of `MODES`)
    on the deployment plant, at the preview's entry speed, from the
    nominal start when `seed` is None, else from one the seed draws."""
    env = DriftEnv(track, pretraj, tires=deploy_tires, params=deploy_params,
                   record=record_trace)
    ctl = FusionController(preview, train_params, mode)
    result = run_episode(ctl, env, seed, v0=preview.v_ini)
    ach, tot = completion_degrees(track, result.s_final)
    log = ctl.records
    return DeployResult(  # an episode has at least one tick
        episode=result, records=log, fallback_events=ctl.fallback_events,
        qp_failures=ctl.qp_failures, preview_exhausted=ctl.preview_exhausted,
        mean_tick_ms=float(np.mean(log.data[:, 14])),  # the compute_ms column
        completion_deg=ach, total_deg=tot,
    )
