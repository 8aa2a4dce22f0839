"""Pre-trajectory planning: minimum-curvature path + friction-limited speed.

The lateral offset l(s) is a C1 piecewise-cubic (Hermite) spline over
knots along s, with zero slope at both ends.  One Gauss-Newton refinement
of the knot offsets, started from the centerline, every knot free and
clipped to the corridor, minimizes the integral of squared curvature of
the composed Cartesian path.  Speed is capped pointwise by the
lateral-adhesion limit, then smoothed by a forward-backward
longitudinal-acceleration pass that the powertrain and the friction
ellipse limit.

A pre-trajectory is a function of its offset spline and adhesion mu:
`PreTrajectory` holds both beside the samples s, l, x, y, kappa, v_d and
the reference time t_ref that `plan_speed` and `build_pretrajectory`
derive from them.  The file (`textfile` convention, version 2) holds mu,
the converged flag, the knots and the values, and no rows;
`load_pretrajectory` rebuilds the samples on the track it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import textfile
from .plant import G, T_MAX, TireParams, VehicleParams
from .track import FrenetPoint, TrackGeometry, to_cartesian

CORRIDOR_MARGIN = 1.0  # m, kept clear of each boundary: boundary-check
# half width (0.4) plus bounding-box overhang and tracking-error budget
V_STRAIGHT_MAX = 16.0  # m/s, speed cap on zero-curvature sections
A_LONG_LIMITS = (-6.0, 3.0)  # m/s^2, (braking, accelerating)
V_START = 9.0  # m/s, the entry speed: the nominal start's and the plan's cap at s = 0
SPEED_DS = 0.25  # m, target spacing of the speed-plan samples
KNOT_SPACING = 2.0  # m, target spacing of the offset-spline knots
MIN_KNOT_INTERVALS = 10
MAX_ITER = 2000  # Gauss-Newton iterations of minimize_curvature
TOL = 1e-8  # stop once one iteration lowers the objective by less
JAC_BLOCK = 8  # knots per stacked Jacobian evaluation, see minimize_curvature


class Boundary(NamedTuple):
    """End offsets of a path; None is a free end.  Every plan has free
    ends and records `Boundary()`; the end slopes are always zero."""

    l0: float | None = None
    l1: float | None = None


# -- C1 Hermite spline over s -----------------------------------------


def _hermite_eval(knots, values, slopes, s):
    """Evaluate a cubic Hermite spline and its first two derivatives.
    The values and slopes at the knots are on the last axis, so a stack
    of splines over the same knots evaluates at once."""
    s = np.asarray(s, dtype=float)
    idx = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, len(knots) - 2)
    h = knots[idx + 1] - knots[idx]
    t = (s - knots[idx]) / h
    p0, p1 = values[..., idx], values[..., idx + 1]
    m0, m1 = slopes[..., idx] * h, slopes[..., idx + 1] * h
    t2, t3 = t * t, t * t * t
    l = (
        (2 * t3 - 3 * t2 + 1) * p0
        + (t3 - 2 * t2 + t) * m0
        + (-2 * t3 + 3 * t2) * p1
        + (t3 - t2) * m1
    )
    dl = (
        (6 * t2 - 6 * t) * p0
        + (3 * t2 - 4 * t + 1) * m0
        + (-6 * t2 + 6 * t) * p1
        + (3 * t2 - 2 * t) * m1
    ) / h
    ddl = (
        (12 * t - 6) * p0
        + (6 * t - 4) * m0
        + (-12 * t + 6) * p1
        + (6 * t - 2) * m1
    ) / (h * h)
    return l, dl, ddl


def _catmull_rom_slopes(knots, values):
    """Central-difference slopes at the interior knots, zero at the ends;
    the knots are on the last axis of `values`."""
    slopes = np.zeros_like(values)
    if len(knots) > 2:
        slopes[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (knots[2:] - knots[:-2])
    return slopes


@dataclass(frozen=True, eq=False)
class LateralOffsetPath:
    """C1 piecewise-cubic lateral offset l(s)."""

    knots: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    boundary: Boundary
    converged: bool = True

    def __call__(self, s):
        return _hermite_eval(self.knots, self.values, self.slopes, s)[0]

    def derivatives(self, s):
        """(l, dl/ds, d2l/ds2) at s (scalar or array)."""
        return _hermite_eval(self.knots, self.values, self.slopes, s)


def offset_path(knots, values, converged: bool = True) -> LateralOffsetPath:
    """The spline through `values` at `knots`, with Catmull-Rom slopes."""
    return LateralOffsetPath(knots, values, _catmull_rom_slopes(knots, values),
                             Boundary(), converged)


# -- curvature of the composed path -----------------------------------


def _frenet_path_curvature(track, s, l, dl, ddl, kc=None):
    """Signed Cartesian curvature of the offset path at track arc length s."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if kc is None:
        kc = track.curvature_at_many(s)
    a = 1.0 - kc * l  # tangential component of p'
    b = dl  # normal component of p'
    # kappa_c' = 0 a.e. on piecewise-constant-curvature tracks
    ppt = -2.0 * kc * dl
    ppn = a * kc + ddl
    return (a * ppn - b * ppt) / np.maximum(a * a + b * b, 1e-12) ** 1.5


def path_curvature(path: LateralOffsetPath, track: TrackGeometry, s):
    """Signed Cartesian curvature of the planned path at the array s."""
    return _frenet_path_curvature(track, s, *path.derivatives(s))


def curvature_objective(
    path: LateralOffsetPath, track: TrackGeometry, n_dense: int = 600
) -> float:
    """J = integral of squared Cartesian curvature along the track."""
    s = np.linspace(0.0, track.s_max, n_dense)
    kappa = path_curvature(path, track, s)
    return float(np.trapezoid(kappa**2, s))


def centerline_path(track: TrackGeometry) -> LateralOffsetPath:
    return offset_path(np.array([0.0, track.s_max]), np.zeros(2))


# -- minimum-curvature optimization -----------------------------------


def minimize_curvature(track: TrackGeometry) -> LateralOffsetPath:
    """Minimum-squared-curvature lateral offset within the corridor.

    The knots are `KNOT_SPACING` apart, at least `MIN_KNOT_INTERVALS`
    intervals.  Sequential linearized least squares (Gauss-Newton) on
    the curvature residual at the knot offsets, every knot free and
    clipped to the corridor, with a backtracking line search on the true
    objective.  It starts from the centerline and returns where the
    iteration stops."""
    lim = track.half_width - CORRIDOR_MARGIN
    n = max(MIN_KNOT_INTERVALS, int(round(track.s_max / KNOT_SPACING)))
    knots = np.linspace(0.0, track.s_max, n + 1)
    values = np.zeros_like(knots)
    n_knots = len(knots)

    s_dense = np.linspace(0.0, track.s_max, 600)
    kc_dense = track.curvature_at_many(s_dense)
    w = np.sqrt(np.gradient(s_dense))  # trapezoid weights for the residual

    def kappa_dense(v):  # one row per row of knot values
        slopes = _catmull_rom_slopes(knots, v)
        l, dl, ddl = _hermite_eval(knots, v, slopes, s_dense)
        return _frenet_path_curvature(track, s_dense, l, dl, ddl, kc=kc_dense)

    k_cur = kappa_dense(values)
    j_cur = float(np.trapezoid(k_cur**2, s_dense))
    eps = 1e-6
    converged = False
    for _ in range(MAX_ITER):
        # forward differences, JAC_BLOCK knots to a stack of splines:
        # blocks this small keep each temporary a small heap block (8 x
        # 600 floats), where one stack of all the knots raised deploy's
        # peak RSS by about 0.4 MB
        perturbed = np.tile(values, (n_knots, 1))
        perturbed[np.diag_indices(n_knots)] += eps  # row i moves knot i
        jac = np.empty((len(s_dense), n_knots))
        for i in range(0, n_knots, JAC_BLOCK):
            block = perturbed[i:i + JAC_BLOCK]
            jac[:, i:i + len(block)] = ((kappa_dense(block) - k_cur) / eps).T
        # Weighted LLS step with mild damping (trust region).
        a = jac * w[:, None]
        b = -k_cur * w
        damp = 1e-3 * np.linalg.norm(a) / n_knots
        a_reg = np.vstack([a, damp * np.eye(n_knots)])
        b_reg = np.concatenate([b, np.zeros(n_knots)])
        delta_v, *_ = np.linalg.lstsq(a_reg, b_reg, rcond=None)
        alpha = 1.0
        while alpha > 1e-8:
            trial = np.clip(values + alpha * delta_v, -lim, lim)
            k_trial = kappa_dense(trial)
            j_trial = float(np.trapezoid(k_trial**2, s_dense))
            if j_trial < j_cur:
                break
            alpha *= 0.5
        else:
            converged = True  # no descent along the step
            break
        delta = j_cur - j_trial
        values, k_cur, j_cur = trial, k_trial, j_trial
        if delta < TOL:
            converged = True
            break
    return offset_path(knots, values, converged)


# -- speed planning and reference time --------------------------------


@dataclass(frozen=True, eq=False)
class SpeedPlan:
    s: np.ndarray  # track arc length samples
    v_d: np.ndarray  # m/s
    mu: float
    stretch: np.ndarray  # d(path length)/ds at samples


def plan_speed(
    path: LateralOffsetPath, track: TrackGeometry, mu: float
) -> SpeedPlan:
    """Adhesion-limited speed with a forward-backward acceleration pass.

    The forward pass is additionally limited by the training plant's
    drive force minus its losses, both passes respect the friction-ellipse
    coupling with the lateral demand, and the speed at s = 0 is capped at
    `V_START`, so the plan is drivable rather than merely
    adhesion-feasible pointwise.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be finite and positive, not {mu!r}")
    a_min, a_max = A_LONG_LIMITS
    n = max(2, int(math.ceil(track.s_max / SPEED_DS)))
    if n % 2:
        n += 1  # even interval count for Simpson quadrature
    s = np.linspace(0.0, track.s_max, n + 1)
    l, dl, ddl = path.derivatives(s)
    kappa = np.abs(_frenet_path_curvature(track, s, l, dl, ddl))
    cap = np.where(
        kappa > 1e-9, np.sqrt(mu * G / np.maximum(kappa, 1e-9)), np.inf
    )
    cap = np.minimum(cap, V_STRAIGHT_MAX)
    kc = track.curvature_at_many(s)
    stretch = np.hypot(1.0 - kc * l, dl)
    dsig = np.diff(s) * 0.5 * (stretch[:-1] + stretch[1:])

    def ellipse(v, k):
        """Longitudinal grip fraction left beside the lateral demand."""
        lat = v * v * k / (mu * G)
        return math.sqrt(max(0.0, 1.0 - min(lat, 1.0) ** 2))

    p = VehicleParams()

    def a_fwd(v, k):
        f = T_MAX / p.r_w - p.c_rr * p.m * G - p.c_drag * v * v
        return min(a_max, f / p.m, mu * G) * ellipse(v, k)

    def a_bwd(v, k):
        return min(-a_min, mu * G) * ellipse(v, k)

    v = cap.copy()
    v[0] = min(v[0], V_START)
    for i in range(len(v) - 1):  # forward: drive/adhesion limit
        a = a_fwd(v[i], kappa[i])
        v[i + 1] = min(v[i + 1], math.sqrt(v[i] ** 2 + 2 * max(a, 0.0) * dsig[i]))
    for i in range(len(v) - 1, 0, -1):  # backward: braking limit
        a = a_bwd(v[i], kappa[i])
        v[i - 1] = min(v[i - 1], math.sqrt(v[i] ** 2 + 2 * a * dsig[i - 1]))
    return SpeedPlan(s=s, v_d=v, mu=mu, stretch=stretch)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson on a uniform grid with an even interval count."""
    h = x[1] - x[0]
    return float(h / 3.0 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum()))


@dataclass(frozen=True, eq=False)
class PreTrajectory:
    """A planned path and adhesion, and what `build_pretrajectory`
    derives from them: the reference traversal time and the dense
    samples s, l, x, y, kappa, v_d."""

    path: LateralOffsetPath
    mu: float
    t_ref: float
    s: np.ndarray
    l: np.ndarray
    x: np.ndarray
    y: np.ndarray
    kappa: np.ndarray
    v_d: np.ndarray

    def l_ref(self, s):
        return np.interp(s, self.s, self.l)

    def v_ref(self, s):
        return np.interp(s, self.s, self.v_d)


def reference_time(speed: SpeedPlan) -> float:
    """Traversal time of the speed plan (path length over speed)."""
    return _simpson(speed.stretch / speed.v_d, speed.s)


def build_pretrajectory(
    path: LateralOffsetPath, track: TrackGeometry, speed: SpeedPlan
) -> PreTrajectory:
    s = speed.s
    l, dl, ddl = path.derivatives(s)
    kappa = _frenet_path_curvature(track, s, l, dl, ddl)
    xy = np.array(
        [to_cartesian(FrenetPoint(float(si), float(li)), track) for si, li in zip(s, l)]
    )
    return PreTrajectory(
        path=path,
        mu=speed.mu,
        t_ref=reference_time(speed),
        s=s,
        l=l,
        x=xy[:, 0],
        y=xy[:, 1],
        kappa=kappa,
        v_d=speed.v_d,
    )


def plan_pretrajectory(
    track: TrackGeometry, mu: float = TireParams.mu, use_centerline: bool = False
) -> PreTrajectory:
    """End-to-end planning convenience used by the CLI and experiments."""
    path = centerline_path(track) if use_centerline else minimize_curvature(track)
    speed = plan_speed(path, track, mu)
    return build_pretrajectory(path, track, speed)


# -- file format ------------------------------------------------------

PRETRAJ_FILE = textfile.Format("pretrajectory", 2, ("mu", "converged", "knots", "values"),
                               recreate="driftcorner plan")


def save_pretrajectory(pre: PreTrajectory, path: str | Path) -> None:
    """Write mu, the converged flag, and the knots and values of the
    offset spline; the samples are derived from these on load."""
    textfile.write(path, PRETRAJ_FILE, {
        "mu": float(pre.mu), "converged": bool(pre.path.converged),
        "knots": ",".join(map(repr, pre.path.knots.tolist())),
        "values": ",".join(map(repr, pre.path.values.tolist())),
    })


def load_pretrajectory(path: str | Path, track: TrackGeometry) -> PreTrajectory:
    """Rebuild a saved pre-trajectory on `track` from its spline and mu."""
    def build(fields, rows):
        if fields["converged"] not in ("True", "False"):
            raise ValueError(f"converged is {fields['converged']!r}, not True or False")
        knots, values = (np.array([float(v) for v in fields[k].split(",")])
                         for k in ("knots", "values"))
        if not (np.all(np.isfinite(knots)) and knots[0] == 0.0
                and np.all(np.diff(knots) > 0.0)):
            raise ValueError("the knots are not finite and strictly rising from 0")
        if abs(knots[-1] - track.s_max) > 1e-9:
            raise ValueError(f"the knots end at s = {float(knots[-1])!r} m, not at "
                             f"the track's s_max = {track.s_max!r} m")
        if len(values) != len(knots):
            raise ValueError(f"{len(knots)} knots but {len(values)} values")
        lim = track.half_width - CORRIDOR_MARGIN
        if not np.all(np.abs(values) <= lim):
            raise ValueError(f"a value is not finite or beyond the corridor +-{lim!r} m")
        spline = offset_path(knots, values, converged=fields["converged"] == "True")
        return build_pretrajectory(spline, track, plan_speed(spline, track, float(fields["mu"])))
    return textfile.read(path, PRETRAJ_FILE, build)
