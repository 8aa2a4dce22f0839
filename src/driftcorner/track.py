"""Arc-length track representation and Cartesian <-> Frenet conversion.

A track is a centerline sampled along arc length s together with heading,
curvature and a constant half width.  Library tracks (U-turn, 90 degree,
135 degree) are built from straight + circular-arc segments and carry an
exact segment map (piecewise-constant curvature), which makes heading,
curvature and position queries analytic, and the Frenet projection a
closed-form foot on each line and arc.  Tracks loaded from files without
a segment map fall back to linear interpolation between samples, and
project onto the sample polyline.

Sign convention: l > 0 lies to the left of the direction of travel.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    AmbiguousProjection,
    BadTrackSpec,
    OffCorridor,
    OutOfRange,
)

SAMPLE_STEP = 0.1  # m, centerline sampling step
CORRIDOR_FACTOR = 3.0  # half widths from the centerline that still project
HINT_WINDOW = 8.0  # m, s distance from s_hint searched by to_frenet

TRACK_FILE_VERSION = "driftcorner track v1"


class FrenetPoint(NamedTuple):
    s: float
    l: float


@dataclass(frozen=True)
class TrackGeometry:
    """Immutable centerline geometry; safe for concurrent read."""

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray  # unwrapped, rad
    curvature: np.ndarray  # 1/m
    half_width: float
    # Exact piecewise-constant-curvature segment map (library tracks and
    # files that carry it).  seg_breaks has one more entry than seg_kappa.
    seg_breaks: np.ndarray | None = None
    seg_kappa: np.ndarray | None = None
    # Per-segment start pose and curvature (s0, x0, y0, h0, kappa), and
    # the breaks, as Python floats for the scalar queries.
    _segments: tuple | None = field(default=None, init=False, repr=False)
    _breaks: tuple | None = field(default=None, init=False, repr=False)

    @property
    def s_max(self) -> float:
        return float(self.s[-1])

    def __post_init__(self):
        if self.half_width <= 0:
            raise BadTrackSpec("half_width must be positive")
        if self.s[0] != 0.0 or np.any(np.diff(self.s) <= 0):
            raise BadTrackSpec("s must be strictly increasing from 0")
        # a tighter turn folds the corridor's inner edge over itself
        kappa = self.curvature if self.seg_kappa is None else self.seg_kappa
        if np.max(np.abs(kappa)) * self.half_width >= 1.0:
            raise BadTrackSpec("every radius of curvature must exceed the half width")
        if self.seg_breaks is not None:
            object.__setattr__(self, "_segments", _segment_poses(self))
            object.__setattr__(self, "_breaks", tuple(self.seg_breaks.tolist()))

    # -- analytic / interpolated scalar queries ------------------------

    def _check_s(self, s: float) -> None:
        if s < -1e-9 or s > self.s_max + 1e-9:
            raise OutOfRange(f"s = {s} outside [0, {self.s_max}]")

    def _segment_index(self, s: float) -> int:
        idx = bisect_right(self._breaks, s) - 1
        return min(max(idx, 0), len(self._segments) - 1)

    def _segment_at(self, s: float) -> tuple[float, float, float, float, float]:
        """(s0, x0, y0, h0, kappa) of the segment holding s, after the
        range check."""
        self._check_s(s)
        return self._segments[self._segment_index(s)]

    def curvature_at(self, s: float) -> float:
        if self.seg_kappa is not None:
            return self._segment_at(s)[4]
        self._check_s(s)
        return float(np.interp(s, self.s, self.curvature))

    def curvature_at_many(self, s: np.ndarray) -> np.ndarray:
        """Vectorized curvature query (no bounds check).

        Searching the interior breaks gives each s its segment directly:
        below 0 the first, past s_max (and NaN, sorted last) the last, and
        on a break the segment it starts."""
        if self.seg_kappa is not None:
            return self.seg_kappa[
                np.searchsorted(self.seg_breaks[1:-1], s, side="right")]
        return np.interp(s, self.s, self.curvature)

    def heading_at(self, s: float) -> float:
        return self.heading_curvature_at(s)[0]

    def heading_curvature_at(self, s: float) -> tuple[float, float]:
        """(heading, curvature) at s from one range check and lookup."""
        if self.seg_breaks is not None:
            s0, _, _, h0, kappa = self._segment_at(s)
            return float(h0 + kappa * (s - s0)), kappa
        self._check_s(s)
        return (float(np.interp(s, self.s, self.heading)),
                float(np.interp(s, self.s, self.curvature)))

    def position_at(self, s: float) -> tuple[float, float]:
        """Centerline point at arc length s."""
        return self.frame_at(s)[:2]

    def frame_at(self, s: float) -> tuple[float, float, float]:
        """(x, y, heading) of the centerline frame at s."""
        if self.seg_breaks is not None:
            s0, x0, y0, h0, kappa = self._segment_at(s)
            x, y, _ = _advance(x0, y0, h0, kappa, s - s0)
            return x, y, float(h0 + kappa * (s - s0))
        self._check_s(s)
        return (float(np.interp(s, self.s, self.x)),
                float(np.interp(s, self.s, self.y)),
                float(np.interp(s, self.s, self.heading)))


class _ArcSegment(NamedTuple):
    length: float
    kappa: float


def _advance(x: float, y: float, h: float, kappa: float, ds: float):
    """Propagate a pose along a constant-curvature segment."""
    if abs(kappa) < 1e-12:
        return x + ds * math.cos(h), y + ds * math.sin(h), h
    h1 = h + kappa * ds
    x1 = x + (math.sin(h1) - math.sin(h)) / kappa
    y1 = y - (math.cos(h1) - math.cos(h)) / kappa
    return x1, y1, h1


def _segment_poses(track: TrackGeometry) -> tuple:
    """Start pose and curvature (s, x, y, heading, kappa) of each
    constant-curvature segment."""
    poses = []
    x, y, h = float(track.x[0]), float(track.y[0]), float(track.heading[0])
    for k, kappa in enumerate(track.seg_kappa.tolist()):
        s0 = float(track.seg_breaks[k])
        poses.append((s0, x, y, h, kappa))
        ds = float(track.seg_breaks[k + 1]) - s0
        x, y, h = _advance(x, y, h, kappa, ds)
    return tuple(poses)


def _build_from_segments(
    segments: list[_ArcSegment], half_width: float, step: float = SAMPLE_STEP
) -> TrackGeometry:
    seg_breaks = np.concatenate(
        ([0.0], np.cumsum([seg.length for seg in segments]))
    )
    seg_kappa = np.array([seg.kappa for seg in segments])

    s_list, x_list, y_list, h_list, k_list = [0.0], [0.0], [0.0], [0.0], []
    x, y, h = 0.0, 0.0, 0.0
    k_list.append(segments[0].kappa)
    s_base = 0.0
    for seg in segments:
        n = max(1, int(round(seg.length / step)))
        for i in range(1, n + 1):
            ds = seg.length * i / n
            xi, yi, hi = _advance(x, y, h, seg.kappa, ds)
            s_list.append(s_base + ds)
            x_list.append(xi)
            y_list.append(yi)
            h_list.append(hi)
            k_list.append(seg.kappa)
        x, y, h = _advance(x, y, h, seg.kappa, seg.length)
        s_base += seg.length
    return TrackGeometry(
        s=np.array(s_list),
        x=np.array(x_list),
        y=np.array(y_list),
        heading=np.array(h_list),
        curvature=np.array(k_list),
        half_width=half_width,
        seg_breaks=seg_breaks,
        seg_kappa=seg_kappa,
    )


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
    segments = []
    if entry_len > 0:
        segments.append(_ArcSegment(entry_len, 0.0))
    segments.append(_ArcSegment(_ARC_ANGLE[kind] * radius, 1.0 / radius))
    if exit_len > 0:
        segments.append(_ArcSegment(exit_len, 0.0))
    return _build_from_segments(segments, half_width=width / 2)


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


def _polyline_feet(
    track: TrackGeometry, px: float, py: float, lo: float, hi: float
) -> tuple[list[float], list[float]]:
    """Nearest point of each sample interval overlapping [lo, hi]."""
    j0 = int(np.clip(np.searchsorted(track.s, lo, side="right") - 1, 0, len(track.s) - 2))
    j1 = max(int(np.searchsorted(track.s, hi)), j0 + 1)
    s, x, y = track.s[j0:j1 + 1], track.x[j0:j1 + 1], track.y[j0:j1 + 1]
    dx, dy, dsi = np.diff(x), np.diff(y), np.diff(s)
    t = ((px - x[:-1]) * dx + (py - y[:-1]) * dy) / (dx * dx + dy * dy)
    s_foot = np.clip(s[:-1] + t * dsi, np.maximum(s[:-1], lo), np.minimum(s[1:], hi))
    t = (s_foot - s[:-1]) / dsi
    d = np.hypot(px - x[:-1] - t * dx, py - y[:-1] - t * dy)
    return s_foot.tolist(), d.tolist()


def to_frenet(
    point: tuple[float, float],
    track: TrackGeometry,
    s_hint: float | None = None,
) -> FrenetPoint:
    """Project a Cartesian point onto the centerline.

    The foot is the nearest point over the segment map's lines and arcs,
    each found in closed form, or over the sample polyline for a track
    without a segment map; ties go to the smaller s.  l is the offset from
    the frame at the foot (cross-product rule).  `s_hint` restricts the
    search to s within HINT_WINDOW of a known arc length (warm start for
    per-tick projections).

    Raises OffCorridor when |l| exceeds CORRIDOR_FACTOR half widths, then
    AmbiguousProjection when a second foot more than 1 m away along s
    lies equally near.
    """
    px, py = float(point[0]), float(point[1])
    lo, hi = 0.0, track.s_max
    if s_hint is not None:
        lo, hi = max(s_hint - HINT_WINDOW, lo), min(s_hint + HINT_WINDOW, hi)
    feet = _segment_feet if track.seg_breaks is not None else _polyline_feet
    s_feet, d_feet = feet(track, px, py, lo, hi)
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
    path = Path(path)
    lines = [f"# {TRACK_FILE_VERSION}", f"# half_width = {track.half_width!r}"]
    if track.seg_breaks is not None:
        seg = ";".join(
            f"{float(b)!r}:{float(k)!r}"
            for b, k in zip(track.seg_breaks[:-1], track.seg_kappa)
        )
        lines.append(f"# segments = {seg};{float(track.s_max)!r}:end")
    lines.append("s,x,y,heading,curvature")
    for row in zip(track.s, track.x, track.y, track.heading, track.curvature):
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def load_track(path: str | Path) -> TrackGeometry:
    path = Path(path)
    half_width = None
    seg_breaks = None
    seg_kappa = None
    rows = []
    with open(path) as fh:
        first = fh.readline().strip()
        if first != f"# {TRACK_FILE_VERSION}":
            raise BadTrackSpec(f"{path}: unrecognized track file header {first!r}")
        for line in fh:
            line = line.strip()
            if not line or line.startswith("s,"):
                continue
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition(" = ")
                if key == "half_width":
                    half_width = float(value)
                elif key == "segments":
                    breaks, kappas = [], []
                    for item in value.split(";"):
                        b, _, k = item.partition(":")
                        breaks.append(float(b))
                        if k != "end":
                            kappas.append(float(k))
                    seg_breaks = np.array(breaks)
                    seg_kappa = np.array(kappas)
                continue
            rows.append([float(v) for v in line.split(",")])
            if len(rows[-1]) != 5:  # s, x, y, heading, curvature
                raise BadTrackSpec(f"{path}: expected rows of 5 numbers")
    if half_width is None:
        raise BadTrackSpec(f"{path}: no half_width header line")
    if not rows:
        raise BadTrackSpec(f"{path}: no rows after the header")
    data = np.array(rows)
    return TrackGeometry(
        s=data[:, 0],
        x=data[:, 1],
        y=data[:, 2],
        heading=data[:, 3],
        curvature=data[:, 4],
        half_width=half_width,
        seg_breaks=seg_breaks,
        seg_kappa=seg_kappa,
    )
