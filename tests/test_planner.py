"""Path planning and speed profiling."""

import math

import numpy as np
import pytest

from driftcorner import planner
from driftcorner.planner import (
    centerline_path,
    curvature_objective,
    load_pretrajectory,
    minimize_curvature,
    offset_path,
    path_curvature,
    plan_pretrajectory,
    plan_speed,
    reference_time,
    save_pretrajectory,
    SpeedPlan,
)
from driftcorner.track import build_library_track


MU, G = 0.85, 9.81


# -- spline machinery --------------------------------------------------


def test_spline_is_c1_at_knots(uturn):
    path = minimize_curvature(uturn)
    eps = 1e-7
    for k in path.knots[1:-1]:
        _, dl_m, _ = path.derivatives(k - eps)
        _, dl_p, _ = path.derivatives(k + eps)
        assert abs(dl_m - dl_p) < 1e-5


def test_a_stack_of_splines_evaluates_as_each_alone(rng):
    # minimize_curvature's Jacobian evaluates stacked rows of knot values
    knots = np.sort(rng.uniform(0.0, 50.0, 12))
    stack = rng.normal(size=(5, 12))
    s = np.linspace(0.0, 50.0, 200)
    slopes = planner._catmull_rom_slopes(knots, stack)
    together = planner._hermite_eval(knots, stack, slopes, s)
    for i, values in enumerate(stack):
        path = offset_path(knots, values)
        np.testing.assert_array_equal(slopes[i], path.slopes)
        for whole, alone in zip(together, path.derivatives(s)):
            np.testing.assert_array_equal(whole[i], alone)


def test_centerline_curvature_is_track_curvature(uturn):
    # the composed Cartesian curve carries the track's own curvature
    kappa = path_curvature(centerline_path(uturn), uturn, np.array([10.0, 45.0]))
    assert kappa[0] == 0.0  # straight entry
    assert kappa[1] == pytest.approx(1 / 11)  # arc


def test_centerline_objective_is_curvature_integral(all_tracks):
    # oracle: centerline J = integral of kappa_c^2 = arc_len / R^2
    for kind, track in all_tracks.items():
        arc_len = {"uturn": math.pi * 11, "right_angle": math.pi * 11 / 2,
                   "turn_135": 3 * math.pi / 4 * 11}[kind]
        j = curvature_objective(centerline_path(track), track, n_dense=20000)
        assert j == pytest.approx(arc_len / 11**2, rel=2e-3)


# -- minimum-curvature optimization ------------------------------------


def test_planned_path_beats_centerline(all_tracks):
    for track in all_tracks.values():
        planned = plan_pretrajectory(track)
        j_plan = curvature_objective(planned.path, track)
        j_center = curvature_objective(centerline_path(track), track)
        assert j_plan <= 0.95 * j_center


# Right angles whose Hermite segments once overshot a clipped knot and
# left the corridor margin: corner 37 of tests/data/plan_corpus.json and
# two corners of a seeded generated family.
TIGHT_RIGHT_ANGLES = [
    dict(radius=9.211769505271786, width=5.068795727345085,
         entry_len=37.433683663087734, exit_len=35.93910407227898),
    dict(radius=8.38, width=5.17, entry_len=24.9, exit_len=56.1),
    dict(radius=10.0, width=5.0, entry_len=15.0, exit_len=25.0),
]


def test_planned_path_stays_in_corridor(all_tracks):
    tight = [build_library_track("right_angle", **spec) for spec in TIGHT_RIGHT_ANGLES]
    for track in [*all_tracks.values(), *tight]:
        pre = plan_pretrajectory(track)
        s = np.linspace(0.0, track.s_max, 4000)
        assert np.max(np.abs(pre.path(s))) <= track.half_width - 1.0 + 1e-6


def test_local_optimality_of_planned_path(uturn, rng):
    # J does not improve under small perturbations of the knot values
    pre = plan_pretrajectory(uturn)
    path = pre.path
    j0 = curvature_objective(path, uturn, n_dense=2000)
    for _ in range(20):
        delta = rng.normal(0.0, 1e-3, len(path.values))
        trial = offset_path(path.knots, path.values + delta)
        assert curvature_objective(trial, uturn, n_dense=2000) >= j0 - 1e-7


# -- speed planning ----------------------------------------------------


def test_speed_respects_adhesion_everywhere(all_tracks):
    for track in all_tracks.values():
        pre = plan_pretrajectory(track)
        kappa = path_curvature(pre.path, track, pre.s)
        assert np.all(pre.v_d**2 * np.abs(kappa) <= MU * G + 1e-9)


def test_arc_speed_matches_adhesion_limit(uturn):
    # constant-radius oracle: v = sqrt(mu g R) on the R = 11 m arc
    plan = plan_speed(centerline_path(uturn), uturn, MU)
    want = math.sqrt(MU * G * 11.0)
    assert want == pytest.approx(9.577, abs=1e-3)
    mid_arc = (30.0 < plan.s) & (plan.s < 30.0 + math.pi * 11 - 8.0)
    assert np.max(plan.v_d[mid_arc]) == pytest.approx(want, abs=1e-6)


def test_longitudinal_accel_within_limits(uturn):
    plan = plan_speed(plan_pretrajectory(uturn).path, uturn, MU)
    v, s, stretch = plan.v_d, plan.s, plan.stretch
    dsig = np.diff(s) * 0.5 * (stretch[:-1] + stretch[1:])
    accel = np.diff(v**2) / (2.0 * dsig)
    assert np.max(accel) <= 3.0 + 1e-6
    assert np.min(accel) >= -6.0 - 1e-6


def test_straight_speed_cap(uturn):
    plan = plan_speed(centerline_path(uturn), uturn, mu=5.0)
    assert np.max(plan.v_d) <= 16.0 + 1e-12


def test_start_speed_clamp(uturn):
    pre = plan_pretrajectory(uturn)
    assert pre.v_d[0] <= 9.0 + 1e-12


def test_speed_plan_rejects_bad_arguments(uturn):
    # a NaN mu planned NaN speeds and an infinite one a finite t_ref
    for mu in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="mu must be finite and positive"):
            plan_speed(centerline_path(uturn), uturn, mu=mu)


# -- reference time ----------------------------------------------------


def test_reference_time_constant_speed_oracle(uturn):
    n = 400
    s = np.linspace(0.0, uturn.s_max, n + 1)
    plan = SpeedPlan(s=s, v_d=np.full(n + 1, 10.0), mu=MU, stretch=np.ones(n + 1))
    assert reference_time(plan) == pytest.approx(uturn.s_max / 10.0, rel=1e-12)


def test_reference_time_with_unit_stretch_is_trapezoid_like(uturn):
    # non-uniform speed oracle: t = integral ds / v for v linear in s
    n = 2000
    s = np.linspace(0.0, uturn.s_max, n + 1)
    v = 8.0 + 4.0 * s / uturn.s_max
    plan = SpeedPlan(s=s, v_d=v, mu=MU, stretch=np.ones(n + 1))
    want = uturn.s_max / 4.0 * math.log(12.0 / 8.0)
    assert reference_time(plan) == pytest.approx(want, rel=1e-8)


# -- convenience wrapper and file format -------------------------------


def test_plan_is_deterministic(uturn):
    a = plan_pretrajectory(uturn)
    b = plan_pretrajectory(uturn)
    np.testing.assert_array_equal(a.l, b.l)
    np.testing.assert_array_equal(a.v_d, b.v_d)
    assert a.t_ref == b.t_ref


def test_pretrajectory_round_trip(uturn, uturn_pretraj, tmp_path):
    # the file holds the spline and mu, and the load rebuilds the samples;
    # tests/test_plan_corpus.py compares every field of every corpus plan
    p = tmp_path / "pre.txt"
    save_pretrajectory(uturn_pretraj, p)
    keys = [ln.partition(" = ")[0] for ln in p.read_text().splitlines()]
    assert keys == ["# driftcorner pretrajectory v2", "# mu", "# converged",
                    "# knots", "# values"]
    assert load_pretrajectory(p, uturn).t_ref == uturn_pretraj.t_ref


def test_track_and_plan_compare_and_hash_by_identity(uturn, uturn_pretraj):
    # value equality over array fields raised instead of answering
    for obj, twin in [(uturn, build_library_track("uturn")),
                      (uturn_pretraj, plan_pretrajectory(uturn, use_centerline=True))]:
        assert obj == obj and obj != twin
        assert len({obj, obj, twin}) == 2


def test_mu_monotonicity(uturn):
    # less grip, slower plan: t_ref must not decrease as mu drops
    times = [plan_pretrajectory(uturn, mu=m).t_ref for m in (0.95, 0.85, 0.75, 0.65)]
    assert all(a < b for a, b in zip(times, times[1:]))
