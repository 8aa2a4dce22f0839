"""Arc-length track representation and Cartesian <-> Frenet conversion.

A track is a centerline sampled along arc length s together with heading,
curvature and a constant half width.  Library tracks (U-turn, 90 degree,
135 degree) are built from straight + circular-arc segments and carry an
exact segment map (piecewise-constant curvature), which makes heading,
curvature and position queries analytic.  Tracks loaded from files without
a segment map fall back to linear interpolation between samples.

Sign convention: l > 0 lies to the left of the direction of travel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    AmbiguousProjection,
    BadGridSpec,
    BadTrackSpec,
    OffCorridor,
    OutOfRange,
)

SAMPLE_STEP = 0.1  # m, centerline sampling step

TRACK_FILE_VERSION = "driftcorner track v1"


class FrenetPoint(NamedTuple):
    s: float
    l: float


@dataclass(frozen=True)
class DiscretizedGrid:
    """Uniform (s, l) grid over the corridor (Frenet road points)."""

    s_values: np.ndarray  # shape (n+1,)
    l_values: np.ndarray  # shape (m,)
    n: int
    m: int
    l_min: float
    l_max: float


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
    # Per-segment start poses, precomputed for analytic queries.
    _seg_pose: np.ndarray | None = field(default=None, repr=False)

    @property
    def s_max(self) -> float:
        return float(self.s[-1])

    def __post_init__(self):
        if self.half_width <= 0:
            raise BadTrackSpec("half_width must be positive")
        if self.s[0] != 0.0 or np.any(np.diff(self.s) <= 0):
            raise BadTrackSpec("s must be strictly increasing from 0")
        if self.seg_breaks is not None and self._seg_pose is None:
            poses = _segment_poses(self)
            object.__setattr__(self, "_seg_pose", poses)

    # -- analytic / interpolated scalar queries ------------------------

    def _check_s(self, s: float) -> None:
        if s < -1e-9 or s > self.s_max + 1e-9:
            raise OutOfRange(f"s = {s} outside [0, {self.s_max}]")

    def _segment_index(self, s: float) -> int:
        idx = int(np.searchsorted(self.seg_breaks, s, side="right")) - 1
        return min(max(idx, 0), len(self.seg_kappa) - 1)

    def curvature_at(self, s: float) -> float:
        self._check_s(s)
        if self.seg_kappa is not None:
            return float(self.seg_kappa[self._segment_index(s)])
        return float(np.interp(s, self.s, self.curvature))

    def curvature_at_many(self, s: np.ndarray) -> np.ndarray:
        """Vectorized curvature query (no bounds check)."""
        if self.seg_kappa is not None:
            idx = np.clip(
                np.searchsorted(self.seg_breaks, s, side="right") - 1,
                0, len(self.seg_kappa) - 1,
            )
            return self.seg_kappa[idx]
        return np.interp(s, self.s, self.curvature)

    def heading_at(self, s: float) -> float:
        self._check_s(s)
        if self.seg_breaks is not None:
            k = self._segment_index(s)
            s0, x0, y0, h0 = self._seg_pose[k]
            return float(h0 + self.seg_kappa[k] * (s - s0))
        return float(np.interp(s, self.s, self.heading))

    def position_at(self, s: float) -> tuple[float, float]:
        """Centerline point at arc length s."""
        self._check_s(s)
        if self.seg_breaks is not None:
            k = self._segment_index(s)
            s0, x0, y0, h0 = self._seg_pose[k]
            return _advance(x0, y0, h0, float(self.seg_kappa[k]), s - s0)[:2]
        x = float(np.interp(s, self.s, self.x))
        y = float(np.interp(s, self.s, self.y))
        return x, y

    def frame_at(self, s: float) -> tuple[float, float, float]:
        """(x, y, heading) of the centerline frame at s."""
        x, y = self.position_at(s)
        return x, y, self.heading_at(s)


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


def _segment_poses(track: TrackGeometry) -> np.ndarray:
    """Start pose (s, x, y, heading) of each constant-curvature segment."""
    poses = np.empty((len(track.seg_kappa), 4))
    x, y, h = float(track.x[0]), float(track.y[0]), float(track.heading[0])
    for k, kappa in enumerate(track.seg_kappa):
        s0 = float(track.seg_breaks[k])
        poses[k] = (s0, x, y, h)
        ds = float(track.seg_breaks[k + 1]) - s0
        x, y, h = _advance(x, y, h, float(kappa), ds)
    return poses


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


def _tangent_residual(track: TrackGeometry, s: float, px: float, py: float) -> float:
    x, y, h = track.frame_at(s)
    return (px - x) * math.cos(h) + (py - y) * math.sin(h)


def to_frenet(
    point: tuple[float, float],
    track: TrackGeometry,
    corridor_factor: float = 3.0,
    s_hint: float | None = None,
    hint_window: float = 8.0,
) -> FrenetPoint:
    """Project a Cartesian point onto the centerline.

    Coarse nearest-sample search (ties toward smaller s) followed by a
    bisection refinement of the perpendicular-foot condition, which makes
    the to_cartesian round trip exact to the refinement tolerance.

    `s_hint` restricts the coarse search to a window around a known
    arc length (warm start for per-tick projections).
    """
    px, py = float(point[0]), float(point[1])
    if s_hint is not None:
        j0 = int(np.searchsorted(track.s, s_hint - hint_window))
        j1 = int(np.searchsorted(track.s, s_hint + hint_window)) + 1
    else:
        j0, j1 = 0, len(track.s)
    xs = track.x[j0:j1]
    ys = track.y[j0:j1]
    d2 = (xs - px) ** 2 + (ys - py) ** 2
    i0 = j0 + int(np.argmin(d2))  # argmin takes the first (smallest-s) tie

    # Ambiguity: a second local minimum numerically tied in distance but
    # far away along s.
    d = np.sqrt(d2)
    interior = np.arange(1, len(d) - 1)
    local_min = interior[(d[interior] <= d[interior - 1]) & (d[interior] <= d[interior + 1])]
    for j in local_min:
        if (
            abs(track.s[j0 + j] - track.s[i0]) > 1.0
            and abs(d[j] - d[i0 - j0]) < 1e-9
        ):
            raise AmbiguousProjection((float(track.s[i0]), float(track.s[j0 + j])))

    ilo, ihi = max(i0 - 1, 0), min(i0 + 1, len(track.s) - 1)
    lo = float(track.s[ilo])
    hi = float(track.s[ihi])
    g_lo = _tangent_residual(track, lo, px, py)
    g_hi = _tangent_residual(track, hi, px, py)
    for _ in range(5):  # widen the bracket if the foot lies just outside
        if (g_lo > 0) != (g_hi > 0):
            break
        if g_lo > 0 and ihi < len(track.s) - 1:
            ihi += 1
            hi = float(track.s[ihi])
            g_hi = _tangent_residual(track, hi, px, py)
        elif g_lo < 0 and ilo > 0:
            ilo -= 1
            lo = float(track.s[ilo])
            g_lo = _tangent_residual(track, lo, px, py)
        else:
            break
    if abs(g_lo) < 1e-12:
        s_star = lo  # foot exactly at the bracket edge (e.g. track start)
    elif abs(g_hi) < 1e-12:
        s_star = hi
    elif g_lo > 0 and g_hi > 0:
        s_star = hi  # past the bracket; clamp toward track end
        if i0 == len(track.s) - 1:
            s_star = track.s_max
    elif g_lo < 0 and g_hi < 0:
        s_star = lo
        if i0 == 0:
            s_star = 0.0
    else:
        for _ in range(80):  # bisection on the perpendicular-foot condition
            mid = 0.5 * (lo + hi)
            g_mid = _tangent_residual(track, mid, px, py)
            if abs(g_mid) < 1e-12:
                lo = hi = mid
                break
            if (g_mid > 0) == (g_lo > 0):
                lo, g_lo = mid, g_mid
            else:
                hi, g_hi = mid, g_mid
        s_star = 0.5 * (lo + hi)

    x, y, h = track.frame_at(s_star)
    # Signed lateral offset via the cross-product rule (left positive).
    l = (py - y) * math.cos(h) - (px - x) * math.sin(h)
    if abs(l) > corridor_factor * track.half_width:
        raise OffCorridor(
            f"|l| = {abs(l):.3f} exceeds corridor {corridor_factor * track.half_width:.3f}"
        )
    return FrenetPoint(float(s_star), float(l))


def discretize(
    track: TrackGeometry, n: int, m: int, l_min: float, l_max: float
) -> DiscretizedGrid:
    """Uniform Frenet road-point grid: (n+1) stations along s, m offsets."""
    if n < 1 or m < 2:
        raise BadGridSpec("need n >= 1 and m >= 2")
    if l_min >= l_max:
        raise BadGridSpec("need l_min < l_max")
    if l_min < -track.half_width - 1e-12 or l_max > track.half_width + 1e-12:
        raise BadGridSpec("[l_min, l_max] must lie within the track width")
    s_values = np.linspace(0.0, track.s_max, n + 1)
    l_values = l_min + np.arange(m) * (l_max - l_min) / m
    return DiscretizedGrid(
        s_values=s_values, l_values=l_values, n=n, m=m, l_min=l_min, l_max=l_max
    )


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
            raise BadTrackSpec(f"unrecognized track file header: {first!r}")
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
    if half_width is None:
        raise BadTrackSpec("track file missing half_width header")
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
