"""Arc-length track representation and Cartesian <-> Frenet conversion.

A track is a segment map: straight lines and circular arcs, each of
constant curvature, joined tangent-continuously, with a constant half
width.  The centerline starts at the origin heading along +x.  Heading,
curvature and position queries are analytic, and the Frenet projection
is a closed-form foot on each line and arc.  Library tracks (U-turn,
90 degree, 135 degree) are a straight entry, one arc and a straight exit.

A track file (`textfile` convention, version 2) holds the half width
and the segment map on one line each, and no rows.

Sign convention: l > 0 lies to the left of the direction of travel.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import textfile
from .errors import (
    AmbiguousProjection,
    BadTrackSpec,
    OffCorridor,
    OutOfRange,
)

CORRIDOR_FACTOR = 3.0  # half widths from the centerline that still project
HINT_WINDOW = 8.0  # m, s distance from s_hint searched by to_frenet

TRACK_FILE = textfile.Format("track", 2, ("half_width", "segments"),
                             recreate="driftcorner build-track")


class FrenetPoint(NamedTuple):
    s: float
    l: float


@dataclass(frozen=True, eq=False)
class TrackGeometry:
    """Immutable centerline geometry; safe for concurrent read.

    Segment k runs from seg_breaks[k] to seg_breaks[k + 1] at constant
    curvature seg_kappa[k]."""

    half_width: float
    seg_breaks: np.ndarray  # m, from 0, strictly increasing
    seg_kappa: np.ndarray  # 1/m, one fewer than seg_breaks
    # Per-segment start pose and curvature (s0, x0, y0, h0, kappa), and
    # the breaks, as Python floats for the scalar queries.
    _segments: tuple = field(default=(), init=False, repr=False)
    _breaks: tuple = field(default=(), init=False, repr=False)

    @property
    def s_max(self) -> float:
        return self._breaks[-1]

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise BadTrackSpec("half_width must be finite and positive")
        breaks, kappa = self.seg_breaks, self.seg_kappa
        if len(breaks) != len(kappa) + 1 or not len(kappa):
            raise BadTrackSpec("the segment map needs a segment, and one more "
                               "break than curvatures")
        if not np.all(np.isfinite(breaks)) or breaks[0] != 0.0 \
                or np.any(np.diff(breaks) <= 0):
            raise BadTrackSpec("segment breaks must be finite and strictly "
                               "increasing from 0")
        if not np.all(np.isfinite(kappa)):
            raise BadTrackSpec("segment curvatures must be finite")
        # a tighter turn folds the corridor's inner edge over itself
        if np.max(np.abs(kappa)) * self.half_width >= 1.0:
            raise BadTrackSpec("every radius of curvature must exceed the half width")
        object.__setattr__(self, "_segments", _segment_poses(breaks, kappa))
        object.__setattr__(self, "_breaks", tuple(breaks.tolist()))

    # -- analytic scalar queries ---------------------------------------

    def _segment_index(self, s: float) -> int:
        idx = bisect_right(self._breaks, s) - 1
        return min(max(idx, 0), len(self._segments) - 1)

    def _segment_at(self, s: float) -> tuple[float, float, float, float, float]:
        """(s0, x0, y0, h0, kappa) of the segment holding s, after the
        range check."""
        if s < -1e-9 or s > self._breaks[-1] + 1e-9:
            raise OutOfRange(f"s = {s} outside [0, {self.s_max}]")
        return self._segments[self._segment_index(s)]

    def curvature_at_many(self, s: np.ndarray) -> np.ndarray:
        """Vectorized curvature query (no bounds check).

        Searching the interior breaks gives each s its segment directly:
        below 0 the first, past s_max (and NaN, sorted last) the last, and
        on a break the segment it starts."""
        return self.seg_kappa[np.searchsorted(self.seg_breaks[1:-1], s, side="right")]

    def heading_at(self, s: float) -> float:
        return self.heading_curvature_at(s)[0]

    def heading_curvature_at(self, s: float) -> tuple[float, float]:
        """(heading, curvature) at s from one range check and lookup."""
        s0, _, _, h0, kappa = self._segment_at(s)
        return float(h0 + kappa * (s - s0)), kappa

    def frame_at(self, s: float) -> tuple[float, float, float]:
        """(x, y, heading) of the centerline frame at s."""
        s0, x0, y0, h0, kappa = self._segment_at(s)
        x, y, _ = _advance(x0, y0, h0, kappa, s - s0)
        return x, y, float(h0 + kappa * (s - s0))


def _advance(x: float, y: float, h: float, kappa: float, ds: float):
    """Propagate a pose along a constant-curvature segment."""
    if abs(kappa) < 1e-12:
        return x + ds * math.cos(h), y + ds * math.sin(h), h
    h1 = h + kappa * ds
    x1 = x + (math.sin(h1) - math.sin(h)) / kappa
    y1 = y - (math.cos(h1) - math.cos(h)) / kappa
    return x1, y1, h1


def _segment_poses(seg_breaks: np.ndarray, seg_kappa: np.ndarray) -> tuple:
    """Start pose and curvature (s, x, y, heading, kappa) of each
    constant-curvature segment, from the origin heading along +x."""
    poses = []
    x, y, h = 0.0, 0.0, 0.0
    for k, kappa in enumerate(seg_kappa.tolist()):
        s0 = float(seg_breaks[k])
        poses.append((s0, x, y, h, kappa))
        ds = float(seg_breaks[k + 1]) - s0
        x, y, h = _advance(x, y, h, kappa, ds)
    return tuple(poses)


LIBRARY_KINDS = ("uturn", "right_angle", "turn_135")

_ARC_ANGLE = {"uturn": math.pi, "right_angle": math.pi / 2, "turn_135": 3 * math.pi / 4}


def build_library_track(
    kind: str,
    radius: float = 11.0,
    width: float = 5.5,
    entry_len: float = 30.0,
    exit_len: float = 70.0,
) -> TrackGeometry:
    """Straight entry + left circular arc + straight exit.

    Joins are tangent-continuous with a curvature step (no clothoids)."""
    if kind not in _ARC_ANGLE:
        raise BadTrackSpec(f"unknown track kind {kind!r}")
    if radius <= width / 2:
        raise BadTrackSpec("radius must exceed half the track width")
    if entry_len < 0 or exit_len < 0:
        raise BadTrackSpec("entry/exit lengths must be non-negative")
    segments = []  # (length, kappa)
    if entry_len > 0:
        segments.append((entry_len, 0.0))
    segments.append((_ARC_ANGLE[kind] * radius, 1.0 / radius))
    if exit_len > 0:
        segments.append((exit_len, 0.0))
    lengths, kappas = zip(*segments)
    return TrackGeometry(
        half_width=width / 2,
        seg_breaks=np.concatenate(([0.0], np.cumsum(lengths))),
        seg_kappa=np.array(kappas),
    )


# -- Frenet conversion ------------------------------------------------


def to_cartesian(fp: FrenetPoint, track: TrackGeometry) -> tuple[float, float]:
    """Inverse Frenet map: offset l along the left normal at arc length s."""
    x, y, h = track.frame_at(fp.s)
    return x - fp.l * math.sin(h), y + fp.l * math.cos(h)


def _segment_feet(
    track: TrackGeometry, px: float, py: float, lo: float, hi: float
) -> tuple[list[float], list[float]]:
    """Nearest point of each segment overlapping [lo, hi], in closed form:
    the dot product with the direction on a line, the heading of the
    point about the centre on an arc (taken nearest the mid-heading of
    the searched part, so clamping picks the nearer end).  A point at an
    arc's centre gets both ends of the arc."""
    k0, k1 = track._segment_index(lo), track._segment_index(hi) + 1
    ss, ds = [], []
    for (s0, x0, y0, h0, kappa), s1 in zip(track._segments[k0:k1],
                                           track._breaks[k0 + 1:k1 + 1]):
        a = max(lo - s0, 0.0)
        b = min(hi, s1) - s0
        if abs(kappa) < 1e-12:
            ts = [(px - x0) * math.cos(h0) + (py - y0) * math.sin(h0)]
        else:
            # centre c; a point on the arc is c + (sin h, -cos h) / kappa
            cx = x0 - math.sin(h0) / kappa
            cy = y0 + math.cos(h0) / kappa
            if math.hypot(px - cx, py - cy) < 1e-9:
                ts = [a, b]  # every point of the arc is a foot
            else:
                h = math.atan2(kappa * (px - cx), kappa * (cy - py))
                mid = 0.5 * (a + b)
                ts = [mid + math.remainder(h - h0 - kappa * mid, 2.0 * math.pi) / kappa]
        for t in ts:
            t = min(max(t, a), b)
            fx, fy, _ = _advance(x0, y0, h0, kappa, t)
            ss.append(s0 + t)
            ds.append(math.hypot(px - fx, py - fy))
    return ss, ds


def to_frenet(
    point: tuple[float, float],
    track: TrackGeometry,
    s_hint: float | None = None,
) -> FrenetPoint:
    """Project a Cartesian point onto the centerline.

    The foot is the nearest point over the segment map's lines and arcs,
    each found in closed form; ties go to the smaller s.  l is the offset
    from the frame at the foot (cross-product rule).  `s_hint` restricts
    the search to s within HINT_WINDOW of a known arc length (warm start
    for per-tick projections).

    Raises OffCorridor when |l| exceeds CORRIDOR_FACTOR half widths, then
    AmbiguousProjection when a second foot more than 1 m away along s
    lies equally near.
    """
    px, py = float(point[0]), float(point[1])
    lo, hi = 0.0, track.s_max
    if s_hint is not None:
        lo, hi = max(s_hint - HINT_WINDOW, lo), min(s_hint + HINT_WINDOW, hi)
    s_feet, d_feet = _segment_feet(track, px, py, lo, hi)
    d_min = min(d_feet)
    # index() takes the first, smallest-s, tie; the clamp undoes rounding
    # of s0 + t past the window
    s_star = min(max(s_feet[d_feet.index(d_min)], lo), hi)

    x, y, h = track.frame_at(s_star)
    # Signed lateral offset via the cross-product rule (left positive).
    l = (py - y) * math.cos(h) - (px - x) * math.sin(h)
    corridor = CORRIDOR_FACTOR * track.half_width
    if abs(l) > corridor:
        raise OffCorridor(f"|l| = {abs(l):.3f} exceeds corridor {corridor:.3f}")
    for s, d in zip(s_feet, d_feet):
        if d - d_min < 1e-9 and abs(s - s_star) > 1.0:
            raise AmbiguousProjection((s_star, s))
    return FrenetPoint(float(s_star), float(l))


# -- file format ------------------------------------------------------


def save_track(track: TrackGeometry, path: str | Path) -> None:
    """Write the half width and the segment map
    `s0:kappa0;s1:kappa1;...;s_max:end`."""
    seg = ";".join(f"{b!r}:{k!r}" for b, k in zip(track._breaks, track.seg_kappa.tolist()))
    textfile.write(path, TRACK_FILE, {"half_width": track.half_width,
                                      "segments": f"{seg};{track.s_max!r}:end"})


def load_track(path: str | Path) -> TrackGeometry:
    def build(fields, rows):
        items = [item.partition(":") for item in fields["segments"].split(";")]
        if items[-1][2] != "end":
            raise ValueError("the segment map does not end in 's_max:end'")
        return TrackGeometry(half_width=float(fields["half_width"]),
                             seg_breaks=np.array([float(b) for b, _, _ in items]),
                             seg_kappa=np.array([float(k) for _, _, k in items[:-1]]))
    return textfile.read(path, TRACK_FILE, build)
