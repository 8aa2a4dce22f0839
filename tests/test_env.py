"""Episode environment: observations, reward shape, termination."""

import math

import numpy as np
import pytest

from driftcorner import envs
from driftcorner.envs import (
    ACTION_HIGH,
    ACTION_LOW,
    N_PREVIEW,
    OBS_DIM,
    PREVIEW_SPACING,
    TIME_CAP_FACTOR,
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
from driftcorner.track import FrenetPoint, to_cartesian


# -- observation -------------------------------------------------------


def test_observation_vector_layout(uturn, uturn_pretraj):
    env = DriftEnv(uturn, uturn_pretraj)
    obs = env.reset(0, nominal=True)
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
    k = uturn.curvature_at(45.0)
    assert obs.s_dot == pytest.approx(9.0 / (1.0 - k * 0.5), rel=1e-9)
    assert obs.l_dot == pytest.approx(0.0, abs=1e-9)


def test_preview_samples_curvature_ahead(uturn):
    state = PlantState(x=25.0, y=0.0, v_x=9.0)  # 5 m before the arc
    obs = observe(state, uturn)
    dists = PREVIEW_SPACING * np.arange(1, N_PREVIEW + 1)
    want = np.array([uturn.curvature_at(min(25.0 + d, uturn.s_max))
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
    a = env.reset(0, nominal=True).vector()
    b = env.reset(1, nominal=True).vector()
    np.testing.assert_array_equal(a, b)


def test_random_reset_spread(uturn, uturn_pretraj, rng):
    env = DriftEnv(uturn, uturn_pretraj)
    ls = {round(float(env.reset(rng).l), 6) for _ in range(10)}
    assert len(ls) > 1


def test_full_episode_with_tracker(uturn, uturn_pretraj):
    from driftcorner.baseline import BaselineTracker

    env = DriftEnv(uturn, uturn_pretraj, record=True)
    res = run_episode(BaselineTracker(uturn, uturn_pretraj, speed_factor=0.88),
                      env, nominal=True)
    assert res.chi == 1 and res.status == "completed"
    assert res.s_final == pytest.approx(uturn.s_max, abs=1e-6)
    assert res.trace is not None and res.trace.shape[1] == 19
    # trace timing column runs at the control rate
    assert res.trace[1, 0] - res.trace[0, 0] == pytest.approx(CONTROL_DT)
    assert res.t_f == pytest.approx(res.trace[-1, 0], abs=CONTROL_DT)
    assert res.max_speed > 9.0


def test_episode_time_cap(uturn, uturn_pretraj):
    env = DriftEnv(uturn, uturn_pretraj)
    env.reset(0, nominal=True, v0=1.0)
    done, ticks, info = False, 0, {}
    while not done:
        # crawl forward so neither completion nor crash ever fires
        _, _, done, info = env.step(np.array([0.0, 120.0, 10.0]))
        ticks += 1
    res = info["result"]
    assert res.status == "timeout" and res.chi == 0
    assert res.t_f <= TIME_CAP_FACTOR * uturn_pretraj.t_ref + CONTROL_DT


def test_crash_ends_episode(uturn, uturn_pretraj):
    env = DriftEnv(uturn, uturn_pretraj)
    env.reset(0, nominal=True)
    done, info = False, {}
    while not done:
        _, _, done, info = env.step(np.array([0.5, 1000.0, 0.0]))
    assert info["result"].status == "crashed"
    assert info["result"].chi == 0


# Random-action episodes of seeds 0-149 under a 4 s cap, recorded with
# the corner check that projected all four corners.  Every crash is found
# by the corner check on the 30 m entry straight that the library tracks
# share, so the record is the same on all three: these seeds crash after
# the given number of ticks, and every other seed times out after 400.
RANDOM_CAP = 4.0
RANDOM_SEEDS = range(150)
RANDOM_CRASHES = {31: 121, 37: 71, 46: 114, 51: 114, 55: 168, 59: 82, 67: 67,
                  87: 126, 95: 125, 98: 58, 106: 49, 120: 76, 122: 89,
                  123: 147, 130: 47, 147: 220, 149: 99}
RANDOM_TIER1_SEEDS = range(30, 38)  # two crashes among them


@pytest.fixture(scope="module")
def library_tasks(all_tracks, uturn_pretraj):
    return {kind: (track, uturn_pretraj if kind == "uturn"
                   else plan_pretrajectory(track))
            for kind, track in all_tracks.items()}


def _check_random_action_episodes(library_tasks, seeds):
    # the learner's warm-up: episodes from random starts under uniformly
    # random actions, one generator drawing both per seed
    for kind, (track, pretraj) in library_tasks.items():
        for seed in seeds:
            rng = np.random.default_rng(seed)
            env = DriftEnv(track, pretraj, time_cap=RANDOM_CAP)
            env.reset(rng)
            done, info, ticks = False, {}, 0
            while not done:
                _, _, done, info = env.step(rng.uniform(ACTION_LOW, ACTION_HIGH))
                ticks += 1
            assert isinstance(info["result"], EpisodeResult)
            want = (("crashed", RANDOM_CRASHES[seed]) if seed in RANDOM_CRASHES
                    else ("timeout", 400))
            assert (info["result"].status, ticks) == want, (kind, seed)


def test_random_action_episodes_end_with_a_status(library_tasks):
    _check_random_action_episodes(library_tasks, RANDOM_TIER1_SEEDS)


@pytest.mark.nightly
def test_random_action_episodes_end_with_a_status_nightly(library_tasks):
    _check_random_action_episodes(
        library_tasks, [s for s in RANDOM_SEEDS if s not in RANDOM_TIER1_SEEDS])


def test_ambiguous_projection_ends_episode_crashed(monkeypatch, uturn,
                                                   uturn_pretraj):
    # e.g. the c.g. on the centre of an arc tighter than the corridor
    def tied(point, track, s_hint=None):
        raise AmbiguousProjection((30.0, 39.4))

    env = DriftEnv(uturn, uturn_pretraj)
    env.reset(0, nominal=True)
    monkeypatch.setattr(envs, "to_frenet", tied)
    _, _, done, info = env.step(np.zeros(3))
    assert done
    assert info["result"].status == "crashed"
    assert info["result"].chi == 0


def test_completion_total_reward_consistency(uturn, uturn_pretraj):
    from driftcorner.baseline import BaselineTracker

    env = DriftEnv(uturn, uturn_pretraj)
    res = run_episode(BaselineTracker(uturn, uturn_pretraj, speed_factor=0.88),
                      env, nominal=True)
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
