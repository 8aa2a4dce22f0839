"""The two workloads: deploy and train.

Each workload sets up (everything a user waits for before the first
timed operation), then runs whole rounds of operations until the run
length has passed and at least a minimum number of rounds has run, then
checks every output.  With a run length of zero (the traced run) only
the minimum is done, a fixed amount of work, so counts repeat exactly.
The program is called through module attributes so that the tracer's
wrappers see every call.

Operation times come from clock stamps at the start of every env step
(`StepStamps`), grouped into short wall-clock windows; `op_ms` is a high
percentile of the window medians (`windowed_percentile` says why).
"""

from __future__ import annotations

import dataclasses
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from driftcorner import baseline, envs, fusion, nets, planner, td3, track
from driftcorner.plant import TireParams, VehicleParams

import checks
from geometry import LIBRARY

clock = time.perf_counter

WINDOW_S = 0.25  # s, width of one timing window
WINDOW_MIN_SAMPLES = 3  # windows with fewer samples are left out
OP_PERCENTILE = 90  # op_ms is this percentile of the window medians


@dataclass
class Outcome:
    """What a workload measured and found."""

    setup_end: float = 0.0  # clock() when the first timed operation starts
    op_seconds: list[float] = field(default_factory=list)  # one per sample
    op_stamps: list[float] = field(default_factory=list)  # clock() at each sample's start
    sample_unit: str = ""  # what one op_seconds sample is
    ops: int = 0  # operations completed in the timed phase
    timed_seconds: float = 0.0  # wall time of the timed phase
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # failed output checks
    failures: list[str] = field(default_factory=list)  # failed operations
    episodes: int = 1  # deploy runs or training episodes in the timed phase
    plans: int = 0  # plan_pretrajectory calls in set-up
    peak_rss_mb: float = 0.0  # after a fixed amount of timed work
    clip_events: int = 0
    notes: dict = field(default_factory=dict)


class StepStamps:
    """Stamps the clock at the start of every `DriftEnv.step`, with the
    number of the episode (counted by `reset`) it belongs to, and calls
    `then()` at the start of step number `at_step` (counted from 1).

    The methods are replaced on the class, so every env the program
    builds is stamped, also the one `deploy_run` makes internally."""

    def __init__(self, at_step: int = 0, then=None):
        self.stamps: list[float] = []
        self.episode: list[int] = []
        self.resets = 0
        self.at_step, self.then = at_step, then
        self._saved = None

    def __enter__(self):
        cls = envs.DriftEnv
        self._saved = (cls.__dict__["step"], cls.__dict__["reset"])
        step, reset = self._saved
        stamps, episode = self.stamps, self.episode
        owner = self

        def stamped_step(env, *args, **kwargs):
            stamps.append(clock())
            episode.append(owner.resets)
            if len(stamps) == owner.at_step:
                owner.then()
            return step(env, *args, **kwargs)

        def counted_reset(env, *args, **kwargs):
            owner.resets += 1
            return reset(env, *args, **kwargs)

        cls.step, cls.reset = stamped_step, counted_reset
        return self

    def __exit__(self, *exc):
        envs.DriftEnv.step, envs.DriftEnv.reset = self._saved
        return False


def cycle_seconds(stamps, episodes, delay: int) -> tuple[list[float], list[float]]:
    """Per-step time over whole cycles of `delay` steps, and each cycle's
    start stamp.

    The interval between two step starts in one episode holds one env
    step and its learner work (for deploy: one controller call and one
    env step); `delay` consecutive intervals of a TD3 run hold exactly
    one actor update, whatever their alignment."""
    out, starts = [], []
    i = 0
    n = len(stamps)
    while i + delay < n:
        if episodes[i + delay] == episodes[i]:
            out.append((stamps[i + delay] - stamps[i]) / delay)
            starts.append(stamps[i])
            i += delay
        else:
            i += 1
    return out, starts


def windowed_percentile(samples, stamps, t0: float, q: float = OP_PERCENTILE,
                        width: float = WINDOW_S) -> tuple[float, list[float]]:
    """The `q`-th percentile of per-window medians, and the medians.

    Samples are grouped by the `width`-second window of the timed phase
    their stamp falls in.  The host this benchmark was built on runs a
    vCPU at two speeds, about 1.4-1.7x apart, in phases of seconds to
    minutes; a run's plain median lands in whichever phase dominated it.
    Nearly every run spends some windows in the slow phase, so a high
    percentile of window medians reads the slow phase's operation time
    in nearly every run, and moves with the program's own cost."""
    stamps = np.asarray(stamps) - t0
    samples = np.asarray(samples)
    index = np.floor(stamps / width).astype(int)
    medians = [float(np.median(samples[index == k])) for k in np.unique(index)
               if np.count_nonzero(index == k) >= WINDOW_MIN_SAMPLES]
    if not medians:
        raise ValueError("no timing window holds enough samples")
    return float(np.percentile(medians, q)), medians


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_rounds(seconds: float, min_rounds: int):
    """Round indices until `seconds` have passed and `min_rounds` have run."""
    start = clock()
    k = 0
    while k < min_rounds or clock() - start < seconds:
        yield k
        k += 1


def _check_setup_plans(out: Outcome, plans) -> None:
    corners = {c.kind: c for c in LIBRARY}
    for kind, pre in plans:
        out.problems += [f"{p} on {corners[kind]}" for p in checks.check_plan(pre, corners[kind])]


# -- deploy ---------------------------------------------------------------

DEPLOY_TASKS = ("uturn", "right_angle")
# Plant-mismatch grid (mu, mass scale) on which every run completes.
DEPLOY_GRID = {
    "uturn": [(mu, m) for mu in (0.95, 0.85, 0.75) for m in (1.0, 1.1)],
    "right_angle": [(0.95, 1.0), (0.85, 1.0)],
}
MATCHED = (TireParams().mu, 1.0)
PREVIEW_SPEED = 8.0  # m/s, tracker preview speed cap and entry speed
DEPLOY_MIN_ROUNDS = 1  # a round is one U-turn run and one right-angle run


def _task(kind: str):
    geometry = track.build_library_track(kind)
    pre = planner.plan_pretrajectory(geometry)
    slow = dataclasses.replace(pre, v_d=np.minimum(pre.v_d, PREVIEW_SPEED))
    tracker = baseline.BaselineTracker(geometry, slow)
    preview = fusion.generate_preview(tracker, VehicleParams(), TireParams(), geometry,
                                      pre, v_ini=PREVIEW_SPEED, track_id=kind)
    return geometry, pre, preview


def _deploy(task, mu: float, mass: float):
    geometry, pre, preview = task
    dep_params, dep_tires = fusion.DeploymentSpec(mu=mu, mass_scale=mass).apply(
        VehicleParams(), TireParams())
    return fusion.deploy_run(preview, geometry, pre, VehicleParams(), dep_params,
                             dep_tires, record_trace=True), dep_params


def deploy(seed: int, seconds: float, tracer=None) -> Outcome:
    """Fusion-controller deploy runs: each round one U-turn and one
    right-angle run, at grid points visited in a seeded order.  One
    operation is one control tick: a controller call and an env step."""
    out = Outcome(sample_unit="control tick (controller call + env step)")
    tasks = {kind: _task(kind) for kind in DEPLOY_TASKS}
    out.plans = len(tasks)
    rng = np.random.default_rng(seed)
    order = {kind: rng.permutation(len(grid)) for kind, grid in DEPLOY_GRID.items()}
    if tracer:
        tracer.phase = "timed"
    corners = {c.kind: c for c in LIBRARY}
    runs = []
    with StepStamps() as stamps:
        out.setup_end = t_start = clock()
        for k in _timed_rounds(seconds, DEPLOY_MIN_ROUNDS):
            for kind in DEPLOY_TASKS:
                grid = DEPLOY_GRID[kind]
                mu, mass = grid[order[kind][k % len(grid)]]
                out.attempted += 1
                try:
                    res, dep_params = _deploy(tasks[kind], mu, mass)
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    out.failed += 1
                    out.failures.append(f"deploy {kind} mu={mu} mass={mass}: {exc!r}")
                    continue
                if not res.completed:
                    out.failed += 1
                    out.failures.append(f"deploy {kind} mu={mu} mass={mass}: "
                                        f"{res.episode.status} at s={res.episode.s_final:.1f}")
                    continue
                out.ops += len(res.records)
                # checked at once and dropped, so memory does not grow with
                # the number of runs a run length allows
                found = checks.check_deploy(res, corners[kind], envs.TRACE_COLUMNS,
                                            dep_params, tasks[kind][2].t_f,
                                            (mu, mass) == MATCHED)
                out.problems += [f"{p} ({kind} mu={mu} mass={mass})" for p in found]
                runs.append({"task": kind, "mu": mu, "mass_scale": mass,
                             "ticks": len(res.records), "t_f": round(res.episode.t_f, 4),
                             "preview_t_f": round(tasks[kind][2].t_f, 4)})
                del res
            if k == 0:
                out.peak_rss_mb = peak_rss_mb()
        out.timed_seconds = clock() - t_start
    out.op_seconds, out.op_stamps = cycle_seconds(stamps.stamps, stamps.episode, 1)
    out.episodes = len(runs)
    if tracer:
        tracer.phase = "check"
    _check_setup_plans(out, [(kind, task[1]) for kind, task in tasks.items()])
    out.notes["runs"] = runs
    if tracer:
        out.problems += checks.check_qp_sample(tracer.qp_sample)
        out.notes["qp_resolved"] = len(tracer.qp_sample)
    return out


# -- train ----------------------------------------------------------------

TRAIN_HP = td3.Td3Hyperparams(warmup=1000)  # default learner, short warm-up
TRAIN_TIME_CAP = 2.0  # s of simulated time per episode
TRAIN_MIN_EPISODES = 3  # timed episodes, counting the one in which learning starts
TRAIN_RSS_STEPS = 500  # peak memory is read after the first episode reaching this


def train(seed: int, seconds: float, tracer=None) -> Outcome:
    """TD3 on the U-turn, one `train()` episode per call, the learner
    state passed back in.  Set-up is planning and the warm-up's random
    steps; timing starts at the first learning step, inside the episode
    in which the warm-up ends, so set-up is always the same number of
    steps.  One operation is one env step with its learner work."""
    delay = TRAIN_HP.policy_delay
    first_step = TRAIN_HP.warmup - 1  # stamp index of the first learning step
    out = Outcome(sample_unit=f"env step with learner work, over {delay}-step cycles")

    def start_timed():
        if tracer:
            tracer.phase = "timed"

    with StepStamps(TRAIN_HP.warmup, start_timed) as stamps:
        geometry = track.build_library_track("uturn")
        pre = planner.plan_pretrajectory(geometry)
        out.plans = 1
        env = envs.DriftEnv(geometry, pre, time_cap=TRAIN_TIME_CAP)
        state = None
        while state is None or state.env_steps < TRAIN_HP.warmup:
            _, _, state = td3.train(lambda: env, TRAIN_HP, episodes=1, seed=seed,
                                    state=state)
        out.attempted = 1  # the episode in which learning started
        out.setup_end = t_start = stamps.stamps[first_step]
        while out.attempted < TRAIN_MIN_EPISODES or clock() - t_start < seconds:
            out.attempted += 1
            try:
                td3.train(lambda: env, TRAIN_HP, episodes=1, seed=seed, state=state)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                out.failed += 1
                out.failures.append(f"train episode: {exc!r}")
                break
            if not out.peak_rss_mb and len(stamps.stamps) - first_step >= TRAIN_RSS_STEPS:
                out.peak_rss_mb = peak_rss_mb()
        out.timed_seconds = clock() - t_start
    out.ops = len(stamps.stamps) - first_step
    out.peak_rss_mb = out.peak_rss_mb or peak_rss_mb()
    out.episodes = out.attempted
    out.clip_events = state.clip_events  # clipping happens only in learning steps
    out.op_seconds, out.op_stamps = cycle_seconds(stamps.stamps[first_step:],
                                                  stamps.episode[first_step:], delay)
    if tracer:
        tracer.phase = "check"
    _check_setup_plans(out, [("uturn", pre)])
    out.problems += checks.check_train(state, TRAIN_HP.warmup, len(stamps.stamps),
                                       nets.mlp_forward, nets.mlp_backward,
                                       np.random.default_rng(seed))
    out.notes.update(env_steps=len(stamps.stamps), critic_updates=state.critic_updates,
                     actor_updates=state.actor_updates)
    return out


WORKLOADS = {"deploy": deploy, "train": train}
