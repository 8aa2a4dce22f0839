"""Track geometry: construction, Frenet conversions, file format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcorner.errors import (
    AmbiguousProjection,
    BadInputFile,
    BadTrackSpec,
    OffCorridor,
    OutOfRange,
)
from driftcorner.track import (
    FrenetPoint,
    TrackGeometry,
    build_library_track,
    load_track,
    save_track,
    to_cartesian,
    to_frenet,
)


def random_on_track_points(track, n, rng):
    s = rng.uniform(0.0, track.s_max, n)
    l = rng.uniform(-track.half_width, track.half_width, n)
    return s, l


# -- library construction ----------------------------------------------


def test_uturn_dimensions(uturn):
    # 30 m entry + half-circle of radius 11 + 70 m exit
    assert uturn.s_max == pytest.approx(30 + math.pi * 11 + 70)
    assert uturn.half_width == 2.75
    assert uturn.heading_curvature_at(50.0)[1] == pytest.approx(1 / 11, abs=1e-9)
    assert uturn.heading_curvature_at(10.0)[1] == 0.0


def test_right_angle_arc_length(right_angle):
    assert right_angle.s_max == pytest.approx(30 + math.pi * 11 / 2 + 70)


def test_heading_change_totals(all_tracks):
    expect = {"uturn": math.pi, "right_angle": math.pi / 2, "turn_135": 3 * math.pi / 4}
    for kind, track in all_tracks.items():
        sweep = track.heading_at(track.s_max) - track.heading_at(0.0)
        assert sweep == pytest.approx(expect[kind], abs=1e-9)


def test_bad_track_specs():
    with pytest.raises(BadTrackSpec):
        build_library_track("hairpin")
    with pytest.raises(BadTrackSpec):
        build_library_track("uturn", radius=2.0, width=5.5)
    with pytest.raises(BadTrackSpec):
        build_library_track("uturn", entry_len=-1.0)


def test_heading_integrates_curvature(uturn):
    # heading increments must match the curvature integral between samples
    b = uturn.seg_breaks
    s = np.unique(np.concatenate([np.linspace(b0, b1, 500) for b0, b1 in zip(b, b[1:])]))
    dh = np.diff([uturn.heading_at(float(v)) for v in s])
    mid_k = np.array([uturn.heading_curvature_at(float(v))[1] for v in (s[:-1] + s[1:]) / 2])
    assert np.max(np.abs(dh - mid_k * np.diff(s))) < 1e-6


def test_curvature_query_bounds(uturn):
    with pytest.raises(OutOfRange):
        uturn.heading_curvature_at(-0.5)
    with pytest.raises(OutOfRange):
        uturn.heading_at(uturn.s_max + 0.5)


def test_vectorized_curvature_takes_the_segment_of_every_s(all_tracks):
    # the rule it replaced: the last break at or below s, clipped to the
    # first and the last segment; NaN sorts past every break
    for track in all_tracks.values():
        b, kappa = track.seg_breaks, track.seg_kappa
        s = np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                            [-1e9, -1.0, -0.0, track.s_max + 1.0, 1e9,
                             np.inf, -np.inf, np.nan],
                            np.linspace(0.0, track.s_max, 997)])
        want = kappa[np.clip(np.searchsorted(b, s, side="right") - 1,
                             0, len(kappa) - 1)]
        np.testing.assert_array_equal(track.curvature_at_many(s), want)
        assert track.curvature_at_many(np.nan) == kappa[-1]


# -- Frenet round trip --------------------------------------------------


def test_round_trip_on_track_points(all_tracks, rng):
    for track in all_tracks.values():
        s, l = random_on_track_points(track, 1000, rng)
        for si, li in zip(s, l):
            x, y = to_cartesian(FrenetPoint(float(si), float(li)), track)
            fp = to_frenet((x, y), track)
            x2, y2 = to_cartesian(fp, track)
            assert math.hypot(x2 - x, y2 - y) < 1e-6


def test_projection_matches_brute_force(uturn, rng):
    from scipy.optimize import minimize_scalar

    s_dense = np.linspace(0.0, uturn.s_max, 200_000)
    cx, cy, _ = np.array([uturn.frame_at(float(v)) for v in s_dense]).T
    s, l = random_on_track_points(uturn, 50, rng)
    for si, li in zip(s, l):
        x, y = to_cartesian(FrenetPoint(float(si), float(li)), uturn)
        fp = to_frenet((x, y), uturn)
        coarse = s_dense[np.argmin((cx - x) ** 2 + (cy - y) ** 2)]

        def dist2(sv):
            px, py, _ = uturn.frame_at(float(np.clip(sv, 0, uturn.s_max)))
            return (px - x) ** 2 + (py - y) ** 2

        ref = minimize_scalar(
            dist2, bounds=(coarse - 0.01, coarse + 0.01), method="bounded",
            options={"xatol": 1e-9},
        ).x
        assert abs(fp.s - ref) < 1e-4


def test_projection_at_track_start(uturn):
    x, y = to_cartesian(FrenetPoint(0.0, 0.3), uturn)
    fp = to_frenet((x, y), uturn)
    assert fp.s == pytest.approx(0.0, abs=1e-9)
    assert fp.l == pytest.approx(0.3, abs=1e-9)


def test_left_of_travel_is_positive_l(uturn):
    # entry runs along +x from the origin, so +y is left of travel
    fp = to_frenet((10.0, 1.0), uturn)
    assert fp.l == pytest.approx(1.0, abs=1e-9)
    assert to_frenet((10.0, -1.0), uturn).l == pytest.approx(-1.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(s=st.floats(0.0, 1.0), l=st.floats(-2.6, 2.6))
def test_round_trip_property(s, l):
    track = build_library_track("right_angle")
    p = FrenetPoint(s * track.s_max, l)
    x, y = to_cartesian(p, track)
    x2, y2 = to_cartesian(to_frenet((x, y), track), track)
    assert math.hypot(x2 - x, y2 - y) < 1e-6


def test_hint_window_projection(uturn):
    x, y = to_cartesian(FrenetPoint(55.0, -0.8), uturn)
    fp = to_frenet((x, y), uturn, s_hint=54.0)
    assert fp.s == pytest.approx(55.0, abs=1e-6)


def test_hint_window_clamps_the_foot(uturn):
    # the true foot at s = 70 lies outside [54 - 8, 54 + 8]
    x, y = to_cartesian(FrenetPoint(70.0, 0.0), uturn)
    assert to_frenet((x, y), uturn, s_hint=54.0).s == pytest.approx(62.0, abs=1e-12)


def test_arc_centre_is_off_corridor(uturn):
    # 11 m from every point of the arc and of both straights' ends, against
    # a 3 * 2.75 m corridor: the corridor test comes before the tie test
    with pytest.raises(OffCorridor):
        to_frenet((30.0, 11.0), uturn)


@pytest.mark.parametrize("radius, hint", [(3.0, None), (3.0, 34.0),
                                          (7.0, None), (7.0, 41.0)])
def test_arc_centre_in_corridor_is_ambiguous(radius, hint):
    # with the hint in the middle of the 7 m arc only the arc is searched,
    # and every point of it is a foot
    track = build_library_track("uturn", radius=radius)
    with pytest.raises(AmbiguousProjection):
        to_frenet((30.0, radius), track, s_hint=hint)


def test_projection_queries_the_frame_at_most_twice(monkeypatch, all_tracks, rng):
    # the closed form needs no iteration over frame queries
    calls = []
    frame_at = TrackGeometry.frame_at

    def counting(self, s):
        calls.append(s)
        return frame_at(self, s)

    monkeypatch.setattr(TrackGeometry, "frame_at", counting)
    for track in all_tracks.values():
        s, l = random_on_track_points(track, 20, rng)
        for si, li in zip(s, l):
            x, y = to_cartesian(FrenetPoint(float(si), float(li)), track)
            for hint in (None, float(si) + 1.0):
                calls.clear()
                to_frenet((x, y), track, s_hint=hint)
                assert len(calls) <= 2


# -- file format -------------------------------------------------------


def test_track_file_round_trip(uturn, tmp_path):
    path = tmp_path / "track.csv"
    save_track(uturn, path)
    back = load_track(path)
    assert back.half_width == uturn.half_width
    assert back.s_max == pytest.approx(uturn.s_max)
    np.testing.assert_array_equal(back.seg_breaks, uturn.seg_breaks)
    np.testing.assert_array_equal(back.seg_kappa, uturn.seg_kappa)
    # analytic segment map survives the round trip
    assert back.heading_curvature_at(50.0)[1] == pytest.approx(1 / 11, abs=1e-12)
    # the header, the half width and the segment map, and no rows
    assert len(path.read_text().splitlines()) == 3


def test_load_rejects_an_arc_tighter_than_the_half_width(uturn, tmp_path):
    # the U-turn's 11 m arc inside a 12 m half width
    path = tmp_path / "wide.txt"
    save_track(uturn, path)
    text = path.read_text()
    path.write_text(text.replace(f"# half_width = {uturn.half_width!r}",
                                 "# half_width = 12.0"))
    with pytest.raises(BadInputFile, match="radius of curvature"):
        load_track(path)


def test_load_rejects_foreign_files(tmp_path):
    p = tmp_path / "junk.csv"
    p.write_text("s,x,y\n0,0,0\n")
    with pytest.raises(BadInputFile):
        load_track(p)


def test_load_refuses_a_version_1_file(uturn, tmp_path):
    # version 1 also held sampled rows, a second copy of the centerline
    path = tmp_path / "v1.csv"
    save_track(uturn, path)
    text = path.read_text().replace("track v2", "track v1")
    path.write_text(text + "s,x,y,heading,curvature\n0.0,0.0,0.0,0.0,0.0\n")
    with pytest.raises(BadInputFile, match="build-track") as exc:
        load_track(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("fault, edit, message", [
    ("nan_curvature", lambda text: text.replace(f":{1 / 11!r};", ":nan;"), "finite"),
    ("no_end", lambda text: text.replace(":end", ":0.0"), "s_max:end"),
    ("end_inside", lambda text: text.replace(f":{1 / 11!r};", ":end;"), "float"),
    ("a_row", lambda text: text + "0.0,0.0,0.0,0.0,0.0\n", "unexpected line"),
])
def test_load_refuses_a_broken_file(fault, edit, message, uturn, tmp_path):
    path = tmp_path / f"{fault}.csv"
    save_track(uturn, path)
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    with pytest.raises(BadInputFile, match=message) as exc:
        load_track(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("breaks, kappa, half_width, message", [
    ([0.0, 10.0, 20.0], [0.0], 1.0, "one more break"),
    ([0.0], [], 1.0, "one more break"),
    ([0.0, 10.0, 10.0], [0.0, 0.1], 1.0, "increasing"),
    ([0.0, 20.0, 10.0], [0.0, 0.1], 1.0, "increasing"),
    ([1.0, 10.0, 20.0], [0.0, 0.1], 1.0, "from 0"),
    ([0.0, 10.0, np.inf], [0.0, 0.1], 1.0, "finite"),
    ([0.0, 10.0, 20.0], [0.0, np.nan], 1.0, "finite"),
    ([0.0, 10.0, 20.0], [0.0, -0.5], 2.0, "radius of curvature"),
    ([0.0, 10.0], [0.0], np.nan, "half_width"),
])
def test_track_geometry_checks_its_segment_map(breaks, kappa, half_width, message):
    with pytest.raises(BadTrackSpec, match=message):
        TrackGeometry(half_width=half_width, seg_breaks=np.array(breaks),
                      seg_kappa=np.array(kappa))
