"""Corner geometry owned by the benchmark.

Every library track is a straight entry, a left circular arc and a
straight exit.  This module describes such a corner by its parameters
and projects points onto it in closed form.  The projection does not
call the `driftcorner` package, so it can check that package's outputs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

ARC_ANGLE = {"uturn": math.pi, "right_angle": math.pi / 2,
             "turn_135": 3 * math.pi / 4}
KINDS = tuple(ARC_ANGLE)


class Corner(NamedTuple):
    kind: str
    radius: float = 11.0  # m
    width: float = 5.5  # m
    entry_len: float = 30.0  # m
    exit_len: float = 70.0  # m

    @property
    def angle(self) -> float:
        return ARC_ANGLE[self.kind]

    @property
    def half_width(self) -> float:
        return 0.5 * self.width

    @property
    def length(self) -> float:
        return self.entry_len + self.angle * self.radius + self.exit_len

    @property
    def breaks(self) -> tuple[float, float]:
        """Arc lengths where the curvature steps (arc start, arc end)."""
        return self.entry_len, self.entry_len + self.angle * self.radius

    def centerline_kappa_sq_integral(self) -> float:
        """Integral of squared curvature along the centerline, exact."""
        return self.angle / self.radius

    def library_kwargs(self) -> dict:
        return dict(radius=self.radius, width=self.width,
                    entry_len=self.entry_len, exit_len=self.exit_len)


LIBRARY = tuple(Corner(kind) for kind in KINDS)

def project(corner: Corner, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Frenet coordinates (s, l) of points on a corner.

    The corner starts at the origin heading along +x and turns left
    about the centre (entry_len, radius).  Each point is projected onto
    the entry line, the arc and the exit line, each clamped to its
    segment, and the nearest foot wins; l > 0 lies to the left."""
    px = np.atleast_1d(np.asarray(x, dtype=float))
    py = np.atleast_1d(np.asarray(y, dtype=float))
    e, r, th, xl = corner.entry_len, corner.radius, corner.angle, corner.exit_len

    # entry line: foot (s, 0)
    s_in = np.clip(px, 0.0, e)
    d_in = np.hypot(px - s_in, py)
    l_in = py

    # arc: angle swept from the arc start, measured about the centre
    dx, dy = px - e, py - r
    u = np.clip(np.arctan2(dx, -dy), 0.0, th)
    fx, fy = e + r * np.sin(u), r - r * np.cos(u)
    tx, ty = np.cos(u), np.sin(u)
    d_arc = np.hypot(px - fx, py - fy)
    l_arc = tx * (py - fy) - ty * (px - fx)
    s_arc = e + r * u

    # exit line from the arc end along heading th
    x1, y1 = e + r * math.sin(th), r - r * math.cos(th)
    cx, cy = math.cos(th), math.sin(th)
    t_out = np.clip((px - x1) * cx + (py - y1) * cy, 0.0, xl)
    d_out = np.hypot(px - (x1 + t_out * cx), py - (y1 + t_out * cy))
    l_out = cx * (py - y1) - cy * (px - x1)
    s_out = e + r * th + t_out

    dist = np.stack([d_in, d_arc, d_out])
    pick = np.argmin(dist, axis=0)
    s = np.choose(pick, [s_in, s_arc, s_out])
    l = np.choose(pick, [l_in, l_arc, l_out])
    return s, l
