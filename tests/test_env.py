"""Episode environment: observations, reward shape, termination."""

import math

import numpy as np
import pytest

from driftcorner import envs, plant
from driftcorner.baseline import BaselineTracker
from driftcorner.envs import (
    ACTION_HIGH,
    ACTION_LOW,
    N_PREVIEW,
    OBS_DIM,
    PREVIEW_SPACING,
    TIME_CAP_FACTOR,
    TRACE_COLUMNS,
    DriftEnv,
    EpisodeResult,
    observation_scales,
    observe,
    reward_step,
    reward_terminal,
    run_episode,
)
from driftcorner.errors import AmbiguousProjection
from driftcorner.planner import plan_pretrajectory
from driftcorner.plant import CONTROL_DT, PlantState
from driftcorner.track import FrenetPoint, build_library_track, to_cartesian

from test_plan_corpus import generated_corners


# -- observation -------------------------------------------------------


def test_observation_vector_layout(uturn, uturn_pretraj):
    env = DriftEnv(uturn, uturn_pretraj)
    obs = env.reset()
    v = obs.vector()
    assert v.shape == (OBS_DIM,)
    assert v[0] == pytest.approx(obs.s)
    assert v[8] == 1.0  # run flag starts raised
    assert len(obs.kappa_preview) == N_PREVIEW


def test_observation_frenet_agreement(uturn):
    x, y = to_cartesian(FrenetPoint(45.0, 0.5), uturn)
    state = PlantState(x=x, y=y, phi=uturn.heading_at(45.0), v_x=9.0)
    obs = observe(state, uturn)
    assert obs.s == pytest.approx(45.0, abs=1e-6)
    assert obs.l == pytest.approx(0.5, abs=1e-6)
    assert obs.alpha == pytest.approx(0.0, abs=1e-9)
    # heading aligned with the tangent: progress rate = v_x / (1 - k l)
    k = uturn.heading_curvature_at(45.0)[1]
    assert obs.s_dot == pytest.approx(9.0 / (1.0 - k * 0.5), rel=1e-9)
    assert obs.l_dot == pytest.approx(0.0, abs=1e-9)


def test_preview_samples_curvature_ahead(uturn):
    state = PlantState(x=25.0, y=0.0, v_x=9.0)  # 5 m before the arc
    obs = observe(state, uturn)
    dists = PREVIEW_SPACING * np.arange(1, N_PREVIEW + 1)
    want = np.array([uturn.heading_curvature_at(min(25.0 + d, uturn.s_max))[1]
                     for d in dists])
    np.testing.assert_allclose(obs.kappa_preview, want, atol=1e-12)


def test_observation_scales_positive(uturn):
    sc = observation_scales(uturn)
    assert sc.shape == (OBS_DIM,)
    assert np.all(sc > 0)


# -- reward ------------------------------------------------------------


def test_reward_path_term_spot_value(uturn, uturn_pretraj):
    state = PlantState(x=10.0, y=0.0, v_x=9.0)
    obs = observe(state, uturn)
    a = np.zeros(3)
    terms = reward_step(obs, a, a, uturn_pretraj)
    l_ref = float(uturn_pretraj.l_ref(obs.s))
    v_ref = float(uturn_pretraj.v_ref(obs.s))
    want = -0.5 * abs(obs.l - l_ref) - 0.1 * abs(9.0 - v_ref)
    assert terms.r_p == pytest.approx(want, abs=1e-12)
    assert terms.r_s == 0.0 and terms.r_m == 0.0


def test_reward_slip_bonus_saturates(uturn, uturn_pretraj):
    obs = observe(PlantState(x=10.0, v_x=9.0), uturn)
    a = np.zeros(3)
    small = reward_step(obs, a, a, uturn_pretraj, beta_r=0.1).r_s
    big = reward_step(obs, a, a, uturn_pretraj, beta_r=1.0).r_s
    assert 0.0 < small < big < 2.0
    assert big == pytest.approx(2.0 * (1.0 - math.exp(-3.0)), abs=1e-12)


def test_reward_smoothness_normalized_increments(uturn, uturn_pretraj):
    obs = observe(PlantState(x=10.0, v_x=9.0), uturn)
    terms = reward_step(obs, ACTION_HIGH, ACTION_LOW, uturn_pretraj)
    assert terms.r_m == pytest.approx(-0.5 * 3.0, abs=1e-12)  # full swings


def test_terminal_reward_components(uturn_pretraj):
    t_ref = uturn_pretraj.t_ref
    # completion 1 s faster than the reference
    assert reward_terminal(1, t_ref - 1.0, 134.0, uturn_pretraj) == pytest.approx(
        0.1 * 134.0 + 20.0, abs=1e-9)
    # crash keeps only the progress term
    assert reward_terminal(0, 3.0, 40.0, uturn_pretraj) == pytest.approx(4.0)


# -- episode mechanics -------------------------------------------------


def test_nominal_reset_is_deterministic(uturn, uturn_pretraj):
    env = DriftEnv(uturn, uturn_pretraj)
    a = env.reset().vector()
    b = env.reset().vector()
    np.testing.assert_array_equal(a, b)


def test_random_reset_spread(uturn, uturn_pretraj, rng):
    env = DriftEnv(uturn, uturn_pretraj)
    ls = {round(float(env.reset(rng).l), 6) for _ in range(10)}
    assert len(ls) > 1


def test_full_episode_with_tracker(uturn, uturn_pretraj):
    env = DriftEnv(uturn, uturn_pretraj, record=True)
    res = run_episode(BaselineTracker(uturn, uturn_pretraj, speed_factor=0.88), env)
    assert res.chi == 1 and res.status == "completed"
    assert res.s_final == pytest.approx(uturn.s_max, abs=1e-6)
    assert res.trace is not None and res.trace.shape[1] == 19
    # trace timing column runs at the control rate
    assert res.trace[1, 0] - res.trace[0, 0] == pytest.approx(CONTROL_DT)
    assert res.t_f == pytest.approx(res.trace[-1, 0], abs=CONTROL_DT)
    assert res.max_speed > 9.0


def test_episode_time_cap(uturn, uturn_pretraj):
    # crawl forward so neither completion nor crash ever fires
    crawl = lambda obs, state: np.array([0.0, 120.0, 10.0])
    res = run_episode(crawl, DriftEnv(uturn, uturn_pretraj), v0=1.0)
    assert res.status == "timeout" and res.chi == 0
    assert res.t_f <= TIME_CAP_FACTOR * uturn_pretraj.t_ref + CONTROL_DT


def test_crash_ends_episode(uturn, uturn_pretraj):
    swerve = lambda obs, state: np.array([0.5, 1000.0, 0.0])
    res = run_episode(swerve, DriftEnv(uturn, uturn_pretraj))
    assert res.status == "crashed"
    assert res.chi == 0


def test_plant_blowup_ends_episode_with_its_own_status(uturn, uturn_pretraj, monkeypatch):
    # the plant leaving its sanity bounds is a fault, not the car off the road
    monkeypatch.setattr(plant, "_SANITY_V", 5.0)  # below the 9 m/s start
    coast = lambda obs, state: np.array([0.0, 0.0, 0.0])
    res = run_episode(coast, DriftEnv(uturn, uturn_pretraj))
    assert res.status == "blowup" and res.chi == 0
    assert res.t_f == 0.0  # the first tick


def test_an_episode_ending_on_its_first_tick_keeps_the_trace_columns(uturn, uturn_pretraj):
    env = DriftEnv(uturn, uturn_pretraj, record=True)
    env.reset()
    env.state = env.state._replace(v_x=2.0 * plant._SANITY_V)
    _, _, res = env.step([0.0, 0.0, 0.0])
    assert res.status == "blowup"
    assert res.trace.shape == (0, len(TRACE_COLUMNS))


def test_episode_yields_each_tick_and_the_result_last(uturn, uturn_pretraj):
    # what the controller saw, what it chose, and what the env returned
    seen = []
    drive = BaselineTracker(uturn, uturn_pretraj, speed_factor=0.88)

    def tracker(obs, state):
        seen.append((obs, state))
        return drive(obs, state)

    ticks = list(envs.episode(tracker, DriftEnv(uturn, uturn_pretraj)))
    assert len(ticks) == len(seen)
    assert all(tick[0] is obs and tick[1] is state
               for tick, (obs, state) in zip(ticks, seen))
    assert all(nxt is obs for (*_, nxt, _), (obs, *_) in zip(ticks, ticks[1:]))
    assert all(result is None for *_, result in ticks[:-1])
    result = ticks[-1][-1]
    assert result.status == "completed" and result.chi == 1
    assert ticks[-1][4].chi == 0.0 and ticks[-2][4].chi == 1.0
    assert result.t_f == pytest.approx(len(ticks) * CONTROL_DT)
    assert result.total_reward == pytest.approx(sum(r for _, _, _, r, _, _ in ticks),
                                                abs=1e-9)


# Random-action episodes, seeds 0-39 under a 4 s cap, on the first six
# generated corners of the plan corpus (radius and width as drawn there)
# with the entry cut to 3 m, so that the episodes reach the arc.  Each
# crash comes early on the arc, after the given number of ticks; every
# other seed times out after 400.  The records differ between corners,
# in the crashing seeds and in their tick counts: the projection and the
# corner check run on arcs of several radii.
RANDOM_CAP = 4.0
RANDOM_ENTRY = 3.0  # m
RANDOM_SEEDS = range(40)
RANDOM_CRASHES = [
    {0: 125, 1: 112, 4: 99, 5: 107, 7: 107, 9: 103, 10: 94, 13: 120, 14: 132,
     15: 122, 16: 76, 17: 62, 20: 139, 21: 141, 22: 108, 23: 90, 24: 144,
     26: 80, 27: 81, 28: 150, 31: 51, 33: 115, 37: 58, 38: 104, 39: 152},
    {0: 338, 1: 121, 4: 114, 5: 120, 7: 126, 9: 117, 10: 105, 13: 137, 14: 162,
     15: 151, 16: 78, 17: 66, 22: 122, 23: 100, 26: 86, 27: 89, 31: 53,
     33: 131, 37: 59, 38: 116},
    {1: 135, 4: 127, 5: 134, 7: 148, 9: 133, 10: 121, 13: 162, 16: 80, 17: 71,
     22: 131, 23: 109, 26: 91, 27: 99, 31: 55, 33: 150, 37: 60, 38: 138},
    {1: 140, 4: 132, 5: 138, 7: 187, 9: 140, 10: 125, 13: 171, 16: 81, 17: 72,
     22: 132, 23: 112, 26: 92, 27: 106, 31: 55, 33: 154, 37: 61, 38: 146},
    {1: 122, 4: 115, 5: 121, 7: 127, 9: 118, 10: 106, 13: 139, 14: 164,
     15: 154, 16: 78, 17: 67, 22: 123, 23: 101, 26: 86, 27: 90, 31: 53,
     33: 133, 37: 59, 38: 117},
    {1: 127, 4: 120, 5: 127, 7: 134, 9: 124, 10: 112, 13: 148, 14: 182,
     15: 270, 16: 79, 17: 68, 22: 127, 23: 104, 26: 89, 27: 93, 31: 54,
     33: 142, 37: 60, 38: 123},
]
RANDOM_TIER1 = (range(3), range(8))  # one corner of each kind


@pytest.fixture(scope="module")
def random_action_tasks():
    tasks = []
    for _, spec in zip(RANDOM_CRASHES, generated_corners()):
        track = build_library_track(**{**spec, "entry_len": RANDOM_ENTRY})
        tasks.append((track, plan_pretrajectory(track)))
    return tasks


def _check_random_action_episodes(tasks, corners, seeds):
    # the learner's warm-up: episodes from random starts under uniformly
    # random actions, one generator drawing both per seed
    for corner in corners:
        track, pretraj = tasks[corner]
        for seed in seeds:
            rng = np.random.default_rng(seed)
            env = DriftEnv(track, pretraj, time_cap=RANDOM_CAP)
            ticks = list(envs.episode(
                lambda obs, state: rng.uniform(ACTION_LOW, ACTION_HIGH), env, rng))
            result = ticks[-1][-1]
            assert isinstance(result, EpisodeResult)
            crashes = RANDOM_CRASHES[corner]
            want = (("crashed", crashes[seed]) if seed in crashes
                    else ("timeout", 400))
            assert (result.status, len(ticks)) == want, (corner, seed)
            if result.status == "crashed":
                assert result.s_final > RANDOM_ENTRY, (corner, seed)


def test_random_action_episodes_end_with_a_status(random_action_tasks):
    _check_random_action_episodes(random_action_tasks, *RANDOM_TIER1)


@pytest.mark.nightly
def test_random_action_episodes_end_with_a_status_nightly(random_action_tasks):
    corners, seeds = RANDOM_TIER1
    for corner in range(len(RANDOM_CRASHES)):
        _check_random_action_episodes(
            random_action_tasks, [corner],
            [s for s in RANDOM_SEEDS if corner not in corners or s not in seeds])


def test_ambiguous_projection_ends_episode_crashed(monkeypatch, uturn,
                                                   uturn_pretraj):
    # e.g. the c.g. on the centre of an arc tighter than the corridor
    def tied(point, track, s_hint=None):
        raise AmbiguousProjection((30.0, 39.4))

    env = DriftEnv(uturn, uturn_pretraj)
    env.reset()
    monkeypatch.setattr(envs, "to_frenet", tied)
    _, _, result = env.step(np.zeros(3))
    assert result.status == "crashed"
    assert result.chi == 0


def test_completion_total_reward_consistency(uturn, uturn_pretraj):
    env = DriftEnv(uturn, uturn_pretraj)
    res = run_episode(BaselineTracker(uturn, uturn_pretraj, speed_factor=0.88), env)
    assert res.total_reward == pytest.approx(
        res.r_p_sum + res.r_s_sum + res.r_m_sum + res.r_t, abs=1e-9)
    assert res.r_t == pytest.approx(
        reward_terminal(1, res.t_f, res.s_final, uturn_pretraj), abs=1e-9)


def test_action_bounds_shape(uturn, uturn_pretraj):
    assert ACTION_LOW.tolist() == [-0.524, 0.0, 0.0]
    assert ACTION_HIGH.tolist() == [0.524, 1000.0, 10.0]
    env = DriftEnv(uturn, uturn_pretraj)
    assert env.action_low is ACTION_LOW and env.action_high is ACTION_HIGH
    with pytest.raises(ValueError):  # shared by every env: read-only
        ACTION_HIGH[1] = 0.0
