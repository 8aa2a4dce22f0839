"""Deployment controller: previews, scene matching, fusion, fallback."""

import dataclasses
import math

import numpy as np
import pytest

from driftcorner import fusion
from driftcorner.errors import NoMatch, PreviewFailed
from driftcorner.fusion import (
    DeploymentSpec,
    FallbackConfig,
    FusionController,
    PreviewTrajectory,
    SceneLibraryEntry,
    completion_degrees,
    deploy_run,
    descriptor_distance,
    generate_preview,
    load_preview,
    match_curve,
    params_digest,
    save_preview,
    speed_bucket,
    track_descriptor,
    write_deploy_csv,
)
from driftcorner.mpc import solve_qp
from driftcorner.plant import PlantState, TireParams, VehicleParams
from driftcorner.track import to_frenet

PARAMS = VehicleParams()
TIRES = TireParams()


# -- preview generation and files --------------------------------------


def test_preview_is_complete_and_uniform(uturn, uturn_preview8):
    p = uturn_preview8
    assert p.v_ini == 8.0
    assert p.track_id == "uturn"
    assert np.all(np.diff(p.s) >= -1e-9)
    assert np.max(p.s) == pytest.approx(uturn.s_max, abs=1.0)
    np.testing.assert_allclose(np.diff(p.t), 0.01, atol=1e-12)
    assert p.gamma.shape == (len(p), 6) and p.a_rl.shape == (len(p), 3)


def test_preview_generation_rejects_crashing_policy(uturn, uturn_pretraj):
    steer_hard = lambda obs: np.array([0.52, 800.0, 0.0])
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
    assert back.t_f == uturn_preview8.t_f


def test_load_preview_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.txt"
    p.write_text("t,x,y\n0,0,0\n")
    with pytest.raises(ValueError):
        load_preview(p)


def test_preview_validation():
    bad_t = np.array([0.0, 0.02])  # not 10 ms ticks
    with pytest.raises(ValueError):
        PreviewTrajectory(t=bad_t, gamma=np.zeros((2, 6)),
                          a_rl=np.zeros((2, 3)), s=np.array([0.0, 1.0]),
                          policy_checksum=0.0, plant_digest="x",
                          track_id="t", v_ini=9.0, t_f=1.0)


def test_speed_bucketing():
    assert speed_bucket(8.74) == 8.5
    assert speed_bucket(8.76) == 9.0


def test_params_digest_tracks_plant_changes():
    base = params_digest(PARAMS, TIRES)
    assert base == params_digest(VehicleParams(), TireParams())
    assert base != params_digest(dataclasses.replace(PARAMS, m=1900.0), TIRES)
    assert base != params_digest(PARAMS, dataclasses.replace(TIRES, mu=0.75))


# -- scene matching ----------------------------------------------------


def test_descriptor_values(all_tracks):
    d = track_descriptor(all_tracks["uturn"])
    assert d[0] == pytest.approx(math.pi)
    assert d[1] == pytest.approx(11.0)
    assert d[2] == pytest.approx(5.5)


def test_match_finds_same_geometry(all_tracks, uturn_preview8):
    library = []
    for kind, track in all_tracks.items():
        entry = SceneLibraryEntry(kind, track_descriptor(track))
        if kind == "uturn":
            entry.add(uturn_preview8)
        library.append(entry)
    hit, dist = match_curve(track_descriptor(all_tracks["uturn"]), library)
    assert hit.track_id == "uturn" and dist == pytest.approx(0.0)
    assert hit.preview_for(8.2) is uturn_preview8
    with pytest.raises(NoMatch):  # gentle sweeping bend: nothing similar
        match_curve((0.3, 40.0, 7.0), library)
    with pytest.raises(NoMatch):
        match_curve(track_descriptor(all_tracks["uturn"]), [])
    empty = SceneLibraryEntry("x", (1.0, 10.0, 5.0))
    with pytest.raises(NoMatch):
        empty.preview_for(9.0)


def test_descriptor_distance_symmetry(rng):
    a = (1.0, 12.0, 5.0)
    b = (2.0, 9.0, 6.0)
    assert descriptor_distance(a, b) == descriptor_distance(b, a)
    assert descriptor_distance(a, a) == 0.0


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


def test_tick_accumulates_qp_rate_onto_correction(monkeypatch, uturn,
                                                  uturn_preview8):
    # each tick adds the QP's first input rate to the correction it holds
    rates = []

    def recording(*args):
        out = solve_qp(*args)
        rates.append(out[0])
        return out

    monkeypatch.setattr(fusion, "solve_qp", recording)
    ctl = FusionController(uturn_preview8, uturn, PARAMS)
    g = uturn_preview8.gamma[50]
    state = PlantState(x=g[0], y=g[1] + 0.3, phi=g[2], v_x=g[3], v_y=g[4],
                       yaw_rate=g[5])
    total = np.zeros(2)
    for _ in range(3):
        ctl(state)
        total += rates[-1]
        np.testing.assert_allclose(np.asarray(ctl.u_mpc), total, atol=1e-15)
    assert len(rates) == 3 and np.any(total != 0.0)


def test_tick_stats_recorded(matched_run):
    assert matched_run.mean_tick_ms > 0.0
    assert all(r.kkt_residual < 1e-8 for r in matched_run.records)


# -- plant mismatch ----------------------------------------------------


def test_completes_with_heavier_vehicle_and_less_grip(uturn, uturn_pretraj,
                                                      uturn_preview8):
    spec = DeploymentSpec(mu=0.75, mass_scale=1.1)
    dp, dt = spec.apply(PARAMS, TIRES)
    res = deploy_run(uturn_preview8, uturn, uturn_pretraj, PARAMS, dp, dt)
    assert res.completed


def test_tracker_only_mode_completes(uturn, uturn_pretraj, uturn_preview8):
    # primary channel ablated: the corrective tracker plus feedforward
    # must still drive the preview
    res = deploy_run(uturn_preview8, uturn, uturn_pretraj, PARAMS, PARAMS,
                     TIRES, primary_enabled=False)
    assert res.completed


def test_deployment_spec_apply():
    spec = DeploymentSpec(mu=0.65, mass_scale=1.1, tire_b_scale=0.9,
                          tire_d_scale=1.05)
    p, t = spec.apply(PARAMS, TIRES)
    assert p.m == pytest.approx(1980.0)
    assert t.mu == 0.65
    assert t.b_front == pytest.approx(TIRES.b_front * 0.9)
    assert t.d_rear == pytest.approx(TIRES.d_rear * 1.05)
    # no-op spec changes nothing
    p2, t2 = DeploymentSpec().apply(PARAMS, TIRES)
    assert p2 == PARAMS and t2 == TIRES


# -- fallback ----------------------------------------------------------


def test_forced_fallback_brakes(uturn, uturn_pretraj, uturn_preview8):
    # zero threshold: the safety layer triggers immediately everywhere
    fb = FallbackConfig(beta_threshold=0.0, p_bm=3.0, hysteresis=0.0)
    res = deploy_run(uturn_preview8, uturn, uturn_pretraj, PARAMS, PARAMS,
                     TIRES, fallback=fb)
    assert not res.completed  # braking to a stop cannot finish the lap
    assert res.fallback_events >= 1
    for r in res.records:
        assert r.fallback
        assert r.applied[1] == 0.0
        assert r.applied[2] == 3.0


def test_fallback_config_validation():
    with pytest.raises(ValueError):
        FallbackConfig(p_bm=0.0)


# -- bookkeeping helpers -----------------------------------------------


def test_completion_degrees(uturn):
    deg, total = completion_degrees(uturn, 30.0 + math.pi * 11 / 2)
    assert total == pytest.approx(180.0)
    assert deg == pytest.approx(90.0)
    assert completion_degrees(uturn, 0.0)[0] == 0.0
    assert completion_degrees(uturn, 1e9)[0] == pytest.approx(180.0)


def test_deploy_csv(matched_run, tmp_path):
    path = tmp_path / "deploy.csv"
    write_deploy_csv(matched_run, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,a_rl_delta")
    assert len(lines) == len(matched_run.records) + 1
