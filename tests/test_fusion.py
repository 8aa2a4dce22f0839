"""Deployment controller: previews, fusion, fallback."""

import dataclasses
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest

from driftcorner import fusion
from driftcorner.baseline import BaselineTracker
from driftcorner.envs import observe
from driftcorner.errors import BadInputFile, NoConvergence, PreviewFailed
from driftcorner.fusion import (
    MODES,
    DeploymentSpec,
    FusionController,
    PreviewTrajectory,
    completion_degrees,
    deploy_run,
    generate_preview,
    load_preview,
    params_digest,
    pretraj_digest,
    save_preview,
    track_digest,
)
from driftcorner.mpc import (
    N_STEPS,
    V_EPS,
    CartesianState,
    condense,
    discretize_augment,
    linearize,
    solve_qp,
)
from driftcorner.planner import load_pretrajectory, plan_pretrajectory, save_pretrajectory
from driftcorner.plant import PlantState, TireParams, VehicleParams
from driftcorner.track import build_library_track, load_track, save_track, to_frenet
from test_deploy_corpus import _cells as CORPUS_CELLS

PARAMS = VehicleParams()
TIRES = TireParams()


# -- preview generation and files --------------------------------------


def test_preview_is_complete_and_uniform(uturn, uturn_pretraj, uturn_preview8):
    p = uturn_preview8
    assert p.v_ini == 8.0
    assert p.track_id == "uturn" and p.track_digest == track_digest(uturn)
    assert p.pretraj_digest == pretraj_digest(uturn_pretraj)
    assert np.all(np.diff(p.s) >= -1e-9)
    assert np.max(p.s) == pytest.approx(uturn.s_max, abs=1.0)
    np.testing.assert_allclose(np.diff(p.t), 0.01, atol=1e-12)
    assert p.gamma.shape == (len(p), 6) and p.a_rl.shape == (len(p), 3)


def test_preview_starts_at_the_entry_speed_given(uturn, uturn_pretraj):
    # no rounding of v_ini: the rollout starts at 8.7 m/s, not 8.5
    slow = dataclasses.replace(uturn_pretraj, v_d=np.minimum(uturn_pretraj.v_d, 8.0))
    p = generate_preview(BaselineTracker(uturn, slow), PARAMS, TIRES, uturn,
                         uturn_pretraj, v_ini=8.7)
    assert p.v_ini == 8.7 and p.gamma[0, 3] == 8.7


def test_preview_generation_rejects_crashing_policy(uturn, uturn_pretraj):
    steer_hard = lambda obs, state: np.array([0.52, 800.0, 0.0])
    with pytest.raises(PreviewFailed):
        generate_preview(steer_hard, PARAMS, TIRES, uturn, uturn_pretraj)


def test_preview_file_round_trip(uturn_preview8, tmp_path):
    path = tmp_path / "preview.txt"
    save_preview(uturn_preview8, path)
    back = load_preview(path)
    np.testing.assert_array_equal(back.gamma, uturn_preview8.gamma)
    np.testing.assert_array_equal(back.a_rl, uturn_preview8.a_rl)
    np.testing.assert_array_equal(back.s, uturn_preview8.s)
    assert back.plant_digest == uturn_preview8.plant_digest
    assert back.track_digest == uturn_preview8.track_digest
    assert back.pretraj_digest == uturn_preview8.pretraj_digest
    assert back.t_f == uturn_preview8.t_f


def test_load_preview_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.txt"
    p.write_text("t,x,y\n0,0,0\n")
    with pytest.raises(BadInputFile, match="junk.txt"):
        load_preview(p)


PREVIEW_FIELDS = dict(t=np.array([0.0, 0.01]), gamma=np.zeros((2, 6)),
                      a_rl=np.zeros((2, 3)), s=np.array([0.0, 1.0]),
                      policy_checksum=0.0, plant_digest="x", track_id="t",
                      track_digest="x", pretraj_digest="x", v_ini=9.0, t_f=1.0)


def test_preview_validation():
    PreviewTrajectory(**PREVIEW_FIELDS)
    bad_t = np.array([0.0, 0.02])  # not 10 ms ticks
    with pytest.raises(ValueError, match="uniform at 10 ms"):
        PreviewTrajectory(**{**PREVIEW_FIELDS, "t": bad_t})
    # the controller indexes every array by tick, and each row by column
    for key, value in (("gamma", np.zeros((1, 6))), ("gamma", np.zeros((2, 5))),
                       ("a_rl", np.zeros((2, 3, 1))), ("t", np.zeros((2, 1))),
                       ("s", np.zeros(3))):
        with pytest.raises(ValueError, match=f"preview {key} has shape .* one row per tick"):
            PreviewTrajectory(**{**PREVIEW_FIELDS, key: value})


@pytest.mark.parametrize("key, value", [("v_ini", -1.0), ("v_ini", 0.0), ("v_ini", math.nan),
                                        ("v_ini", math.inf), ("t_f", math.nan),
                                        ("t_f", math.inf)])
def test_preview_refuses_an_impossible_entry_speed_or_time(key, value):
    # generate_preview refuses such an entry speed; a file edited to one
    # is refused on load
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        PreviewTrajectory(**{**PREVIEW_FIELDS, key: value})


def test_pretraj_digest_tracks_plan_changes(uturn, uturn_pretraj, tmp_path):
    base = pretraj_digest(uturn_pretraj)
    assert base == pretraj_digest(plan_pretrajectory(uturn))
    save_pretrajectory(uturn_pretraj, tmp_path / "plan.txt")
    assert base == pretraj_digest(load_pretrajectory(tmp_path / "plan.txt", uturn))
    # mu alone, and the spline alone
    assert base != pretraj_digest(dataclasses.replace(uturn_pretraj, mu=0.7))
    path = uturn_pretraj.path
    moved = dataclasses.replace(path, values=path.values + 1e-9)
    assert base != pretraj_digest(dataclasses.replace(uturn_pretraj, path=moved))


def test_track_digest_tracks_geometry_changes(all_tracks, tmp_path):
    uturn = all_tracks["uturn"]
    base = track_digest(uturn)
    assert base == track_digest(build_library_track("uturn"))
    save_track(uturn, tmp_path / "uturn.txt")
    assert base == track_digest(load_track(tmp_path / "uturn.txt"))
    assert len({track_digest(t) for t in all_tracks.values()}) == 3
    assert base != track_digest(build_library_track("uturn", width=5.0))
    assert base != track_digest(build_library_track("uturn", entry_len=29.0))


def test_params_digest_tracks_plant_changes():
    base = params_digest(PARAMS, TIRES)
    assert base == params_digest(VehicleParams(), TireParams())
    assert base != params_digest(dataclasses.replace(PARAMS, m=1900.0), TIRES)
    assert base != params_digest(PARAMS, dataclasses.replace(TIRES, mu=0.75))
    assert base != params_digest(PARAMS, dataclasses.replace(TIRES, b=5.0))
    assert base != params_digest(PARAMS, dataclasses.replace(TIRES, d=0.9))



# -- matched-plant tracking --------------------------------------------


@pytest.fixture(scope="module")
def matched_run(uturn, uturn_pretraj, uturn_preview8):
    return deploy_run(uturn_preview8, uturn, uturn_pretraj,
                      PARAMS, PARAMS, TIRES, record_trace=True)


def test_matched_replay_completes(matched_run, uturn_preview8):
    assert matched_run.completed
    assert matched_run.episode.t_f == pytest.approx(uturn_preview8.t_f,
                                                    abs=0.5)
    assert matched_run.fallback_events == 0
    assert matched_run.qp_failures == 0
    assert matched_run.preview_exhausted == 0


def test_ticks_past_a_truncated_preview_are_counted(uturn, uturn_pretraj, uturn_preview8):
    # the first 60 % of the preview: past its end the controller holds the
    # last point, and counts each such tick
    n = int(0.6 * len(uturn_preview8))
    p = uturn_preview8
    short = dataclasses.replace(p, t=p.t[:n], gamma=p.gamma[:n], a_rl=p.a_rl[:n], s=p.s[:n])
    res = deploy_run(short, uturn, uturn_pretraj, PARAMS, PARAMS, TIRES)
    assert res.episode.s_final > short.s[-1]
    assert 0 < res.preview_exhausted < len(res.records)


def test_matched_lateral_rms_small(matched_run, uturn, uturn_preview8):
    # lateral offset of the vehicle vs the preview path at the same s
    prev_l = np.array([to_frenet((x, y), uturn, s_hint=s).l
                       for x, y, s in zip(uturn_preview8.gamma[:, 0],
                                          uturn_preview8.gamma[:, 1],
                                          uturn_preview8.s)])
    trace = matched_run.episode.trace
    s_run, l_run = trace[:, 8], trace[:, 9]
    l_ref = np.interp(s_run, uturn_preview8.s, prev_l)
    rms = float(np.sqrt(np.mean((l_run - l_ref) ** 2)))
    assert rms < 0.15


def test_decomposition_bookkeeping(matched_run):
    low = np.array([-0.524, 0.0, 0.0])
    high = np.array([0.524, 1000.0, 10.0])
    for r in matched_run.records:
        np.testing.assert_array_equal(r.u_t, r.a_rl + r.du_mpc)
        assert not r.fallback
        np.testing.assert_array_equal(r.applied, np.clip(r.u_t, low, high))


def test_controller_takes_the_env_arc_length(monkeypatch, matched_run, uturn,
                                            uturn_pretraj, uturn_preview8):
    # the env's observation projects the c.g. once per tick and the
    # controller reads its s: a run without projections in the
    # controller drives the same run
    def no_projection(*args, **kwargs):
        raise AssertionError("the controller projected the c.g.")

    monkeypatch.setattr(fusion, "to_frenet", no_projection)
    res = deploy_run(uturn_preview8, uturn, uturn_pretraj, PARAMS, PARAMS, TIRES,
                     record_trace=True)
    assert res.completed
    np.testing.assert_array_equal(res.episode.trace, matched_run.episode.trace)


def test_tick_accumulates_qp_rate_onto_correction(monkeypatch, uturn,
                                                  uturn_preview8):
    # each tick adds the QP's first input rate to the correction it holds,
    # and hands over the QP condensed offline at its reference point
    rates, qps = [], []

    def recording(*args):
        out = solve_qp(*args)
        rates.append(out[0])
        qps.append(args[1])
        return out

    monkeypatch.setattr(fusion, "solve_qp", recording)
    ctl = FusionController(uturn_preview8, PARAMS)
    g = uturn_preview8.gamma[50]
    state = PlantState(x=g[0], y=g[1] + 0.3, phi=g[2], v_x=g[3], v_y=g[4],
                       yaw_rate=g[5])
    obs = observe(state, uturn)
    k = ctl._reference_index(obs.s)
    total = np.zeros(2)
    for _ in range(3):
        ctl(obs, state)
        total += rates[-1]
        np.testing.assert_allclose(np.asarray(ctl.u_mpc), total, atol=1e-15)
        for got, stored in zip(qps[-1][:3], ctl._qp[:3]):
            np.testing.assert_array_equal(got, stored[k])
    assert len(rates) == 3 and np.any(total != 0.0)


def test_controller_model_is_built_in_blocks(monkeypatch, uturn,
                                             uturn_preview8):
    # one stacked discretization per block of preview points, not one
    # per point; a block also models the N_STEPS - 1 ticks just past its
    # end, and only the condensed QP is kept
    calls = []
    original = fusion.discretize_augment

    def counting(a_t, b_t):
        calls.append(len(a_t))
        return original(a_t, b_t)

    monkeypatch.setattr(fusion, "discretize_augment", counting)
    ctl = FusionController(uturn_preview8, PARAMS)
    n = len(uturn_preview8)
    assert len(calls) == math.ceil(n / fusion.MODEL_BLOCK)
    assert n <= sum(calls) and max(calls) == fusion.MODEL_BLOCK + fusion.N_STEPS - 1
    assert ctl._qp.h.shape == (n, fusion.N_Z, fusion.N_Z)
    assert ctl._qp.f.shape == ctl._qp.k.shape == (n, fusion.N_Z, 8)


def test_condensed_qp_matches_the_per_tick_build(uturn, uturn_preview8, rng):
    # at every preview point k, against `condense` of models discretized
    # point by point, step j taking the model at tick k + j, clamped to
    # the last tick
    ctl = FusionController(uturn_preview8, PARAMS)
    p, n = uturn_preview8, len(uturn_preview8)

    def model(i):
        ref = CartesianState(*p.gamma[i])
        ref = ref._replace(v_x=max(ref.v_x, V_EPS))
        return discretize_augment(*linearize(ref, PARAMS))

    a_aug, b_aug = map(np.array, zip(*[model(i) for i in range(n)]))
    ticks = [np.minimum(np.arange(n) + j, n - 1) for j in range(N_STEPS)]
    qp = condense([m for t in ticks for m in (a_aug[t], b_aug[t])])
    np.testing.assert_allclose(ctl._qp.h, qp.h, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ctl._qp.f, qp.f, rtol=0, atol=1e-12)
    gamma_aug = rng.normal(0.0, 0.3, (n, 8, 1))
    np.testing.assert_allclose(ctl._qp.k @ gamma_aug,
                               np.linalg.solve(ctl._qp.h, -ctl._qp.f @ gamma_aug),
                               rtol=0, atol=1e-12)


def test_tick_stats_recorded(matched_run):
    assert matched_run.mean_tick_ms > 0.0
    assert all(r.kkt_residual < 1e-8 for r in matched_run.records)


def test_the_tick_log_is_read_only(matched_run):
    r = matched_run.records[-1]
    with pytest.raises(ValueError):
        r.applied[1] = 0.0
    assert r.t == matched_run.records.data[-1, 0]


def test_a_deploy_retains_under_400_bytes_a_tick(matched_run, uturn, uturn_pretraj,
                                                 uturn_preview8):
    # each tick logs 35 floats (280 bytes): the controller's 16 and the
    # trace's 19, in flat arrays; 922 bytes a tick when each was a
    # TickRecord of four arrays plus a list of the trace row
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = deploy_run(uturn_preview8, uturn, uturn_pretraj, PARAMS, PARAMS, TIRES,
                         record_trace=True)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.completed
    assert retained / len(res.records) < 400


# -- plant mismatch ----------------------------------------------------


@pytest.fixture(scope="module")
def mismatch_run(uturn, uturn_pretraj, uturn_preview8):
    dp, dt = DeploymentSpec(mu=0.75, mass_scale=1.1).apply(PARAMS, TIRES)
    return deploy_run(uturn_preview8, uturn, uturn_pretraj, PARAMS, dp, dt)


@pytest.fixture(scope="module")
def tracker_only_run(uturn, uturn_pretraj, uturn_preview8):
    return deploy_run(uturn_preview8, uturn, uturn_pretraj, PARAMS, PARAMS,
                      TIRES, mode="mpc_only")


@pytest.mark.parametrize("mode, feedforward, mpc", [
    ("fused", False, True), ("mpc_only", True, True), ("replay", False, False)])
def test_each_mode_builds_only_what_it_reads(mode, feedforward, mpc, uturn_preview8):
    ctl = FusionController(uturn_preview8, PARAMS, mode)
    assert (ctl._u_ff is not None, ctl._qp is not None) == (feedforward, mpc)


def test_an_unknown_mode_is_refused(uturn, uturn_pretraj, uturn_preview8):
    # the three modes are the whole choice: no mode without either input
    with pytest.raises(ValueError, match=re.escape(str(MODES))):
        FusionController(uturn_preview8, PARAMS, mode="coast")
    with pytest.raises(ValueError, match=re.escape(str(MODES))):
        deploy_run(uturn_preview8, uturn, uturn_pretraj, PARAMS, PARAMS, TIRES,
                   mode="coast")


def test_completes_with_heavier_vehicle_and_less_grip(mismatch_run):
    assert mismatch_run.completed


def test_tracker_only_mode_completes(tracker_only_run):
    # primary channel ablated: the corrective tracker plus feedforward
    # must still drive the preview
    assert tracker_only_run.completed


# Each run is a deploy-corpus cell, whose record is its only golden:
# the episode is pinned exactly, the applied commands to 1e-8 absolute.
DEPLOY_CELLS = {"matched": "uturn-mu0.85-m1.0-fused", "mismatch": "uturn-mu0.75-m1.1-fused",
                "tracker_only": "uturn-mu0.85-m1.0-mpc_only"}


@pytest.mark.parametrize("case", sorted(DEPLOY_CELLS))
def test_deploy_matches_golden(case, request):
    want, res = CORPUS_CELLS[DEPLOY_CELLS[case]], request.getfixturevalue(f"{case}_run")
    assert (res.episode.status, len(res.records)) == (want["status"], want["ticks"])
    assert (res.episode.t_f, res.episode.s_final) == (want["t_f"], want["s_final"])
    applied = np.array([r.applied for r in res.records])
    np.testing.assert_allclose(applied.sum(axis=0), want["applied_sum"], rtol=0, atol=1e-8)
    np.testing.assert_allclose(applied.max(axis=0), want["applied_max"], rtol=0, atol=1e-8)


def test_deployment_spec_apply():
    spec = DeploymentSpec(mu=0.65, mass_scale=1.1, tire_b_scale=0.9,
                          tire_d_scale=1.05)
    p, t = spec.apply(PARAMS, TIRES)
    assert p.m == pytest.approx(1980.0)
    assert t.mu == 0.65
    assert t.b == pytest.approx(TIRES.b * 0.9)
    assert t.d == pytest.approx(TIRES.d * 1.05)
    # no-op spec changes nothing
    p2, t2 = DeploymentSpec().apply(PARAMS, TIRES)
    assert p2 == PARAMS and t2 == TIRES


@pytest.mark.parametrize("spec", [
    DeploymentSpec(tire_d_scale=0.0), DeploymentSpec(mu=-0.5),
    DeploymentSpec(tire_b_scale=-1.0), DeploymentSpec(mass_scale=math.nan),
], ids=["d_zero", "mu_negative", "b_negative", "mass_nan"])
def test_deployment_spec_rejects_a_non_physical_plant(spec):
    # a zero D would divide by zero in the kernel, and a negative mu or B
    # would crash the car as if the controller had failed
    with pytest.raises(ValueError, match="must be finite and positive"):
        spec.apply(PARAMS, TIRES)


def test_a_qp_that_does_not_converge_is_counted(monkeypatch, uturn, uturn_pretraj,
                                                uturn_preview8):
    # every tenth solve fails, in a plant with less grip and more mass
    # than the preview's: the run goes on, each failure is counted, its
    # tick applies no correction, and the next tick starts from the
    # correction held before it (the last two entries of gamma_aug)
    held = []

    def flaky(gamma_aug, qp):
        held.append(gamma_aug[6:].tolist())
        if len(held) % 10 == 0:
            raise NoConvergence("forced")
        return solve_qp(gamma_aug, qp)

    monkeypatch.setattr(fusion, "solve_qp", flaky)
    params, tires = DeploymentSpec(mu=0.75, mass_scale=1.1).apply(PARAMS, TIRES)
    res = deploy_run(uturn_preview8, uturn, uturn_pretraj, PARAMS, params, tires)
    assert res.completed
    assert len(held) == len(res.records)  # one solve a tick
    failed = range(9, len(held), 10)
    assert res.qp_failures == len(failed) > 10
    for i in failed:
        assert not res.records[i].du_mpc.any() and res.records[i].kkt_residual == 0.0
    for i in failed[:-1]:
        assert held[i + 1] == held[i]
    assert sum(any(held[i]) for i in failed) > 10  # a correction was held


# -- fallback ----------------------------------------------------------


def test_forced_fallback_brakes(monkeypatch, uturn, uturn_pretraj, uturn_preview8):
    # zero threshold: the safety layer triggers immediately everywhere
    monkeypatch.setattr(fusion, "FALLBACK_BETA", 0.0)
    monkeypatch.setattr(fusion, "FALLBACK_HYSTERESIS", 0.0)
    res = deploy_run(uturn_preview8, uturn, uturn_pretraj, PARAMS, PARAMS, TIRES)
    assert not res.completed  # braking to a stop cannot finish the lap
    assert res.fallback_events >= 1
    for r in res.records:
        assert r.fallback
        assert r.applied[1] == 0.0
        assert r.applied[2] == 3.0


def test_fallback_counts_each_engagement_once(uturn, uturn_preview8):
    # 75 deg engages, the brake holds down to 65 deg, and the next swing
    # past 75 deg is a second engagement
    ctl = FusionController(uturn_preview8, PARAMS, mode="replay")
    g = uturn_preview8.gamma[50]
    obs = observe(PlantState(x=g[0], y=g[1], phi=g[2], v_x=5.0), uturn)
    for deg in (0.0, 80.0, 70.0, 60.0, 80.0, 0.0):
        ctl(obs, PlantState(x=g[0], y=g[1], phi=g[2], v_x=5.0,
                            v_y=5.0 * math.tan(math.radians(deg))))
    assert [r.fallback for r in ctl.records] == [False, True, True, False, True, False]
    assert ctl.fallback_events == 2


# -- bookkeeping helpers -----------------------------------------------


def test_completion_degrees(uturn):
    deg, total = completion_degrees(uturn, 30.0 + math.pi * 11 / 2)
    assert total == pytest.approx(180.0)
    assert deg == pytest.approx(90.0)
    assert completion_degrees(uturn, 0.0)[0] == 0.0
    assert completion_degrees(uturn, 1e9)[0] == pytest.approx(180.0)
