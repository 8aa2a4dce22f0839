"""Each output check passes a correct output and fails a corrupted one.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import math

import numpy as np
import pytest

import checks
from geometry import LIBRARY, Corner, project
from workloads import cycle_seconds, windowed_percentile

from driftcorner import mpc, nets, planner, td3
from driftcorner.envs import TRACE_COLUMNS, EpisodeResult
from driftcorner.fusion import DeployResult, TickRecord
from driftcorner.plant import VehicleParams
from driftcorner.track import FrenetPoint, build_library_track, to_cartesian

SMALL = Corner("right_angle", radius=12.0, width=6.0, entry_len=15.0, exit_len=25.0)


@pytest.fixture(scope="module")
def small_plan():
    geometry = build_library_track(SMALL.kind, **SMALL.library_kwargs())
    return geometry, planner.plan_pretrajectory(geometry)


def _messages(problems, word):
    return [p for p in problems if word in p]


# -- geometry -------------------------------------------------------------


def test_closed_form_projection_inverts_the_track_map():
    rng = np.random.default_rng(0)
    for corner in (*LIBRARY, SMALL):
        geometry = build_library_track(corner.kind, **corner.library_kwargs())
        s = rng.uniform(0.0, geometry.s_max, 200)
        l = rng.uniform(-corner.half_width, corner.half_width, 200)
        xy = np.array([to_cartesian(FrenetPoint(a, b), geometry) for a, b in zip(s, l)])
        s2, l2 = project(corner, xy[:, 0], xy[:, 1])
        np.testing.assert_allclose(s2, s, atol=1e-9)
        np.testing.assert_allclose(l2, l, atol=1e-9)


# -- plan -----------------------------------------------------------------


def test_plan_output_passes(small_plan):
    _, pre = small_plan
    assert checks.check_plan(pre, SMALL) == []


def test_plan_shifted_past_the_corridor_fails(small_plan):
    geometry, pre = small_plan
    l = pre.l + 0.5 * np.sign(pre.l[np.argmax(np.abs(pre.l))])  # 0.5 m outward
    xy = np.array([to_cartesian(FrenetPoint(a, b), geometry) for a, b in zip(pre.s, l)])
    bad = dataclasses.replace(pre, l=l, x=xy[:, 0], y=xy[:, 1])
    problems = checks.check_plan(bad, SMALL)
    assert _messages(problems, "corridor allows")
    assert not _messages(problems, "closed-form")


def test_plan_with_moved_samples_fails(small_plan):
    _, pre = small_plan
    bad = dataclasses.replace(pre, y=pre.y + 0.01)
    assert _messages(checks.check_plan(bad, SMALL), "closed-form")


def test_plan_with_wrong_curvature_fails(small_plan):
    _, pre = small_plan
    bad = dataclasses.replace(pre, kappa=pre.kappa * 1.01)
    assert _messages(checks.check_plan(bad, SMALL), "finite-difference")


def test_plan_above_the_adhesion_cap_fails(small_plan):
    _, pre = small_plan
    bad = dataclasses.replace(pre, v_d=pre.v_d * 1.05)
    assert _messages(checks.check_plan(bad, SMALL), "cap")


def test_plan_with_a_speed_jump_fails(small_plan):
    _, pre = small_plan
    v = pre.v_d.copy()
    v[len(v) // 2:] *= 0.8
    assert _messages(checks.check_plan(dataclasses.replace(pre, v_d=v), SMALL),
                     "speed change")


def test_plan_with_wrong_reference_time_fails(small_plan):
    _, pre = small_plan
    bad = dataclasses.replace(pre, t_ref=pre.t_ref * 1.01)
    assert _messages(checks.check_plan(bad, SMALL), "t_ref")


def test_wiggly_plan_fails_the_curvature_integral(small_plan):
    geometry, pre = small_plan
    knots = pre.path.knots
    values = 0.5 * np.sin(knots)
    path = planner.LateralOffsetPath(
        knots, values, np.gradient(values, knots), planner.Boundary())
    speed = planner.plan_speed(path, geometry, 0.85)
    wiggly = planner.build_pretrajectory(path, geometry, speed)
    problems = checks.check_plan(wiggly, SMALL)
    assert _messages(problems, "integral of kappa^2")


# -- deploy ---------------------------------------------------------------


def _deploy_result(corner: Corner, t_f: float = 10.0) -> DeployResult:
    """A run that drives the centerline of `corner` at constant speed."""
    geometry = build_library_track(corner.kind, **corner.library_kwargs())
    n = 400
    s = np.linspace(0.0, geometry.s_max, n)
    trace = np.zeros((n, len(TRACE_COLUMNS)))
    col = {name: i for i, name in enumerate(TRACE_COLUMNS)}
    for i, si in enumerate(s):
        x, y, h = geometry.frame_at(si)
        trace[i, [col["x"], col["y"], col["phi"]]] = x, y, h
    rng = np.random.default_rng(1)
    records = []
    for i in range(n):
        a_rl = rng.uniform(checks.ACTION_LOW, checks.ACTION_HIGH)
        du = rng.normal(0.0, [0.1, 300.0, 3.0])
        records.append(TickRecord(t=0.01 * i, a_rl=a_rl, du_mpc=du, u_t=a_rl + du,
                                  applied=np.clip(a_rl + du, checks.ACTION_LOW,
                                                  checks.ACTION_HIGH),
                                  fallback=False, compute_ms=0.5, kkt_residual=0.0))
    episode = EpisodeResult(chi=1, t_f=t_f, s_final=geometry.s_max, status="completed",
                            total_reward=0.0, r_p_sum=0.0, r_s_sum=0.0, r_m_sum=0.0,
                            r_t=0.0, max_beta=0.0, max_speed=8.0, trace=trace)
    total = math.degrees(corner.angle)
    return DeployResult(episode=episode, records=records, fallback_events=0,
                        mean_tick_ms=0.5, completion_deg=total, total_deg=total)


def _check_deploy(res, corner=SMALL, preview_t_f=10.0, matched=True):
    return checks.check_deploy(res, corner, TRACE_COLUMNS, VehicleParams(),
                               preview_t_f, matched)


def test_deploy_output_passes():
    assert _check_deploy(_deploy_result(SMALL)) == []


def test_deploy_tick_with_wrong_sum_fails():
    res = _deploy_result(SMALL)
    res.records[7].u_t = res.records[7].u_t + np.array([0.0, 1.0, 0.0])
    assert _messages(_check_deploy(res), "u_t != a_rl + du_mpc")


def test_deploy_tick_with_unclipped_command_fails():
    res = _deploy_result(SMALL)
    res.records[3].applied = res.records[3].u_t.copy()
    res.records[3].applied[1] = 1500.0
    assert _messages(_check_deploy(res), "applied != clip")


def test_deploy_with_fallback_fails():
    res = _deploy_result(SMALL)
    res.records[5].fallback = True
    assert _messages(_check_deploy(res), "fallback")


def test_deploy_leaving_the_corridor_fails():
    res = _deploy_result(SMALL)
    col = TRACE_COLUMNS.index("y")
    res.episode.trace[:40, col] += SMALL.half_width  # entry straight, moved left
    assert _messages(_check_deploy(res), "box corner")


def test_deploy_incomplete_run_fails():
    res = _deploy_result(SMALL)
    res = dataclasses.replace(
        res, episode=dataclasses.replace(res.episode, chi=0, status="crashed"),
        completion_deg=45.0)
    problems = _check_deploy(res)
    assert _messages(problems, "run ended") and _messages(problems, "completion")


def test_deploy_slow_matched_run_fails():
    res = _deploy_result(SMALL, t_f=11.0)
    assert _messages(_check_deploy(res, preview_t_f=10.0), "matched-plant")
    assert _check_deploy(res, preview_t_f=10.0, matched=False) == []


def test_qp_sample_agrees_and_a_wrong_solution_fails():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(4, 4))
    h = m @ m.T + 4 * np.eye(4)
    g = rng.normal(size=4) * 5
    a = np.vstack([np.eye(4), -np.eye(4)])
    b = np.full(8, 0.3)
    sol = mpc.solve_box_qp(h, g, a, b)
    assert checks.check_qp_sample([(h, g, a, b, sol.z)]) == []
    assert checks.check_qp_sample([(h, g, a, b, sol.z + 0.01)])


# -- train ----------------------------------------------------------------

TOY_HP = td3.Td3Hyperparams(hidden=(16, 16), batch_size=16, warmup=20, buffer_size=1000)


def _trained_state(steps: int = 60):
    """A learner driven by the loop's own update rule on a chain of
    episodes of a toy environment."""
    rng = np.random.default_rng(0)
    state = td3.td3_init(3, np.array([-1.0, 0.0]), np.array([1.0, 5.0]), TOY_HP, 0)
    obs = rng.normal(size=3)
    for k in range(steps):
        act = rng.uniform(state.low, state.high)
        nxt = rng.normal(size=3)
        done = (k + 1) % 15 == 0
        state.buffer.add(obs, act, float(rng.normal()), nxt, done)
        obs = rng.normal(size=3) if done else nxt
        state.env_steps += 1
        if state.env_steps >= TOY_HP.warmup:
            batch = state.buffer.sample(TOY_HP.batch_size, state.rng)
            td3.update_critics(state, batch, td3.compute_target(batch, state, TOY_HP))
            if state.critic_updates % TOY_HP.policy_delay == 0:
                td3.update_actor_and_targets(state, batch)
    return state


def _check_train(state, steps=60, backward=nets.mlp_backward):
    return checks.check_train(state, TOY_HP.warmup, steps, nets.mlp_forward, backward,
                              np.random.default_rng(3))


def test_train_state_passes():
    assert _check_train(_trained_state()) == []


def test_train_with_a_missing_critic_update_fails():
    state = _trained_state()
    state.critic_updates -= 1
    assert _messages(_check_train(state), "critic updates for")


def test_train_with_extra_actor_updates_fails():
    state = _trained_state()
    state.actor_updates += 2
    assert _messages(_check_train(state), "actor updates")


def test_train_with_a_non_finite_weight_fails():
    state = _trained_state()
    state.critic2.weights[1][0, 0] = np.nan
    assert _messages(_check_train(state), "not finite")


def test_train_actor_outside_the_box_fails():
    state = _trained_state()
    state.actor.low = state.low - 1.0
    assert _messages(_check_train(state), "action box")


def test_train_with_a_broken_transition_chain_fails():
    state = _trained_state()
    state.buffer.obs_next[3] += 1e-9
    assert _messages(_check_train(state), "obs_next")


def test_train_with_a_wrong_gradient_fails():
    def scaled(net, cache, grad_out):
        gw, gb, g = nets.mlp_backward(net, cache, grad_out)
        return [1.01 * w for w in gw], [1.01 * b for b in gb], g

    assert _messages(_check_train(_trained_state(), backward=scaled), "finite differences")


def test_cycles_pair_steps_inside_one_episode():
    stamps = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 13.0, 14.0, 15.0]
    episodes = [1, 1, 1, 1, 2, 2, 2, 2, 2]
    assert cycle_seconds(stamps, episodes, 2) == ([1.0, 1.5, 1.0], [0.0, 10.0, 13.0])


def test_windowed_percentile_takes_window_medians():
    # window 0: 1, 2, 100 (median 2); window 1: 5, 6, 7 (median 6);
    # window 2 holds two samples and is left out
    samples = [1.0, 2.0, 100.0, 5.0, 6.0, 7.0, 50.0, 60.0]
    stamps = [10.0, 10.1, 10.2, 10.3, 10.4, 10.45, 10.6, 10.7]
    value, medians = windowed_percentile(samples, stamps, 10.0, q=100, width=0.25)
    assert medians == [2.0, 6.0] and value == 6.0
    assert windowed_percentile(samples, stamps, 10.0, q=0, width=0.25)[0] == 2.0
