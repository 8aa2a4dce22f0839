"""Pre-trajectory planning: minimum-curvature path + friction-limited speed.

The lateral offset l(s) is a C1 piecewise-cubic (Hermite) spline over
knots along s.  A dynamic-programming pass over the discretized road
grid seeds a projected-gradient refinement of the knot offsets; the
objective is the integral of squared curvature of the composed Cartesian
path.  Speed is capped pointwise by the lateral-adhesion limit and then
smoothed by a forward-backward longitudinal-acceleration pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import BadTrackSpec, Infeasible, RankDeficient
from .plant import ActuatorLimits, VehicleParams
from .track import DiscretizedGrid, FrenetPoint, TrackGeometry, discretize, to_cartesian

G = 9.81

CORRIDOR_MARGIN = 1.0  # m, kept clear of each boundary: boundary-check
# half width (0.4) plus bounding-box overhang and tracking-error budget
V_STRAIGHT_MAX = 16.0  # m/s, speed cap on zero-curvature sections
A_LONG_LIMITS = (-6.0, 3.0)  # m/s^2, (braking, accelerating)


class Boundary(NamedTuple):
    """Endpoint constraints: slopes are always enforced; offsets of None
    are left free for the optimizer (slope-only form of the boundary
    conditions)."""

    l0: float | None = None
    dl0: float = 0.0
    l1: float | None = None
    dl1: float = 0.0


# -- C1 Hermite spline over s -----------------------------------------


def _hermite_eval(knots, values, slopes, s):
    """Evaluate a cubic Hermite spline and its first two derivatives."""
    s = np.asarray(s, dtype=float)
    idx = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, len(knots) - 2)
    h = knots[idx + 1] - knots[idx]
    t = (s - knots[idx]) / h
    p0, p1 = values[idx], values[idx + 1]
    m0, m1 = slopes[idx] * h, slopes[idx + 1] * h
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


def _catmull_rom_slopes(knots, values, dl0, dl1):
    slopes = np.empty_like(values)
    slopes[0] = dl0
    slopes[-1] = dl1
    if len(values) > 2:
        slopes[1:-1] = (values[2:] - values[:-2]) / (knots[2:] - knots[:-2])
    return slopes


@dataclass(frozen=True)
class LateralOffsetPath:
    """C1 piecewise-cubic lateral offset l(s)."""

    knots: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    boundary: Boundary
    converged: bool = True
    residual_rms: float = 0.0

    def __call__(self, s):
        return _hermite_eval(self.knots, self.values, self.slopes, s)[0]

    def derivatives(self, s):
        """(l, dl/ds, d2l/ds2) at s (scalar or array)."""
        return _hermite_eval(self.knots, self.values, self.slopes, s)

    @property
    def segments(self) -> np.ndarray:
        """Power-basis coefficients (a0, a1, a2, a3) per knot interval,
        in the local coordinate u = s - knot."""
        h = np.diff(self.knots)
        p0, p1 = self.values[:-1], self.values[1:]
        m0, m1 = self.slopes[:-1], self.slopes[1:]
        a0 = p0
        a1 = m0
        a2 = (3 * (p1 - p0) / h - 2 * m0 - m1) / h
        a3 = (2 * (p0 - p1) / h + m0 + m1) / (h * h)
        return np.column_stack([a0, a1, a2, a3])


def fit_lateral_polynomial(
    points: list[FrenetPoint], knots: np.ndarray
) -> LateralOffsetPath:
    """Least-squares C1 cubic spline through Frenet samples.

    Unknowns are the knot values and slopes; C1 continuity holds by
    construction of the Hermite basis."""
    knots = np.asarray(knots, dtype=float)
    pts = np.asarray([(p.s, p.l) for p in points], dtype=float)
    s, l_obs = pts[:, 0], pts[:, 1]
    n_knots = len(knots)
    idx = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, n_knots - 2)
    h = knots[idx + 1] - knots[idx]
    t = (s - knots[idx]) / h
    t2, t3 = t * t, t ** 3
    design = np.zeros((len(s), 2 * n_knots))
    rows = np.arange(len(s))
    design[rows, idx] = 2 * t3 - 3 * t2 + 1
    design[rows, idx + 1] += -2 * t3 + 3 * t2
    design[rows, n_knots + idx] = (t3 - 2 * t2 + t) * h
    design[rows, n_knots + idx + 1] += (t3 - t2) * h
    sol, _, rank, _ = np.linalg.lstsq(design, l_obs, rcond=None)
    if rank < 2 * n_knots:
        raise RankDeficient(
            f"normal equations rank {rank} < {2 * n_knots}; degenerate point placement"
        )
    values, slopes = sol[:n_knots], sol[n_knots:]
    resid = design @ sol - l_obs
    boundary = Boundary(values[0], slopes[0], values[-1], slopes[-1])
    return LateralOffsetPath(
        knots=knots,
        values=values,
        slopes=slopes,
        boundary=boundary,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


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


def path_curvature(
    path: LateralOffsetPath,
    track: TrackGeometry,
    s,
    mode: str = "cartesian",
):
    """Curvature of the planned path at s.

    'paper_literal' treats l(s) as a planar graph (ignores track
    curvature); 'cartesian' differentiates the composed Cartesian curve.
    """
    scalar = np.isscalar(s)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    l, dl, ddl = path.derivatives(s_arr)
    if mode == "paper_literal":
        out = ddl / (1.0 + dl * dl) ** 1.5
    elif mode == "cartesian":
        out = _frenet_path_curvature(track, s_arr, l, dl, ddl)
    else:
        raise ValueError(f"unknown curvature mode {mode!r}")
    return float(out[0]) if scalar else out


def curvature_objective(
    path: LateralOffsetPath, track: TrackGeometry, n_dense: int = 600
) -> float:
    """J = integral of squared Cartesian curvature along the track."""
    s = np.linspace(0.0, track.s_max, n_dense)
    kappa = path_curvature(path, track, s, mode="cartesian")
    return float(np.trapezoid(kappa**2, s))


def _objective_on_grid(track, knots, values, slopes, s_dense, kc_dense):
    l, dl, ddl = _hermite_eval(knots, values, slopes, s_dense)
    kappa = _frenet_path_curvature(track, s_dense, l, dl, ddl, kc=kc_dense)
    return float(np.trapezoid(kappa**2, s_dense))


def centerline_path(track: TrackGeometry) -> LateralOffsetPath:
    knots = np.array([0.0, track.s_max])
    zeros = np.zeros(2)
    return LateralOffsetPath(knots, zeros.copy(), zeros.copy(), Boundary())


# -- minimum-curvature optimization -----------------------------------


def _dp_seed(track, grid: DiscretizedGrid, boundary: Boundary) -> np.ndarray:
    """Dynamic programming over the road grid (Menger vertex curvature).

    Returns the seeded lateral offsets at grid.s_values."""
    s_vals = grid.s_values
    n_st = len(s_vals)
    first = grid.l_values if boundary.l0 is None else np.array([boundary.l0])
    last = grid.l_values if boundary.l1 is None else np.array([boundary.l1])
    cand = [first]
    cand += [grid.l_values for _ in range(n_st - 2)]
    cand += [last]
    xy = [
        np.array([to_cartesian(FrenetPoint(float(s_vals[i]), float(l)), track)
                  for l in cand[i]])
        for i in range(n_st)
    ]

    def vertex_cost(a, b, c):
        ab = b - a
        bc = c - b
        ac = c - a
        la, lb, lc = (np.hypot(*ab), np.hypot(*bc), np.hypot(*ac))
        if la * lb * lc < 1e-12:
            return np.inf
        cross = ab[0] * bc[1] - ab[1] * bc[0]
        kappa = 2.0 * cross / (la * lb * lc)
        return kappa * kappa * 0.5 * (la + lb)

    # dp[j, k]: best cost of reaching edge (station i: node j) -> (i+1: node k)
    dp = np.zeros((len(cand[0]), len(cand[1])))
    back: list[np.ndarray] = []
    for i in range(1, n_st - 1):
        nxt = cand[i + 1]
        new = np.full((len(cand[i]), len(nxt)), np.inf)
        arg = np.zeros((len(cand[i]), len(nxt)), dtype=int)
        for j in range(len(cand[i])):
            for k in range(len(nxt)):
                costs = dp[:, j] + np.array(
                    [vertex_cost(xy[i - 1][p], xy[i][j], xy[i + 1][k])
                     for p in range(len(cand[i - 1]))]
                )
                p_best = int(np.argmin(costs))
                new[j, k] = costs[p_best]
                arg[j, k] = p_best
        dp, back = new, back + [arg]

    j_best, k_best = np.unravel_index(int(np.argmin(dp)), dp.shape)
    path_idx = [k_best, j_best]
    for arg in reversed(back):
        path_idx.append(int(arg[path_idx[-1], path_idx[-2]]))
    path_idx.reverse()
    offsets = np.array(
        [cand[i][path_idx[i]] for i in range(n_st)]
    )
    return offsets


def minimize_curvature(
    track: TrackGeometry,
    grid: DiscretizedGrid,
    boundary: Boundary = Boundary(),
    margin: float = CORRIDOR_MARGIN,
    max_iter: int = 2000,
    tol: float = 1e-8,
) -> LateralOffsetPath:
    """Minimum-squared-curvature lateral offset within the corridor."""
    lim = track.half_width - margin
    for end in (boundary.l0, boundary.l1):
        if end is not None and abs(end) > lim:
            raise Infeasible("boundary offsets violate the corridor margin")

    knots = np.asarray(grid.s_values, dtype=float)
    values = np.clip(_dp_seed(track, grid, boundary), -lim, lim)
    if boundary.l0 is not None:
        values[0] = boundary.l0
    if boundary.l1 is not None:
        values[-1] = boundary.l1
    # Knot indices the optimizer may move: interior knots always, the
    # endpoints when their offsets are unconstrained.
    free = np.arange(0 if boundary.l0 is None else 1,
                     len(values) if boundary.l1 is None else len(values) - 1)

    def make_path(v):
        slopes = _catmull_rom_slopes(knots, v, boundary.dl0, boundary.dl1)
        return LateralOffsetPath(knots, v, slopes, boundary)

    s_dense = np.linspace(0.0, track.s_max, 600)
    kc_dense = track.curvature_at_many(s_dense)

    def objective(v):
        slopes = _catmull_rom_slopes(knots, v, boundary.dl0, boundary.dl1)
        return _objective_on_grid(track, knots, v, slopes, s_dense, kc_dense)

    w = np.sqrt(np.gradient(s_dense))  # trapezoid weights for the residual

    def kappa_dense(v):
        slopes = _catmull_rom_slopes(knots, v, boundary.dl0, boundary.dl1)
        l, dl, ddl = _hermite_eval(knots, v, slopes, s_dense)
        return _frenet_path_curvature(track, s_dense, l, dl, ddl, kc=kc_dense)

    def refine(start: np.ndarray) -> tuple[np.ndarray, float, bool]:
        """Sequential linearized least squares (Gauss-Newton) on the
        curvature residual, clipped to the corridor, with a backtracking
        line search on the true objective."""
        values = start.copy()
        j_cur = objective(values)
        converged = False
        n_free = len(free)
        eps = 1e-6
        for _ in range(max_iter):
            k0 = kappa_dense(values)
            jac = np.empty((len(s_dense), n_free))
            for i, idx in enumerate(free):
                vp = values.copy()
                vp[idx] += eps
                jac[:, i] = (kappa_dense(vp) - k0) / eps
            # Weighted LLS step with mild damping (trust region).
            a = jac * w[:, None]
            b = -k0 * w
            damp = 1e-3 * np.linalg.norm(a) / max(n_free, 1)
            a_reg = np.vstack([a, damp * np.eye(n_free)])
            b_reg = np.concatenate([b, np.zeros(n_free)])
            delta_v, *_ = np.linalg.lstsq(a_reg, b_reg, rcond=None)
            alpha = 1.0
            improved = False
            while alpha > 1e-8:
                trial = values.copy()
                trial[free] = np.clip(values[free] + alpha * delta_v, -lim, lim)
                j_trial = objective(trial)
                if j_trial < j_cur:
                    improved = True
                    break
                alpha *= 0.5
            if not improved:
                converged = True
                break
            delta = j_cur - j_trial
            values, j_cur = trial, j_trial
            if delta < tol:
                converged = True
                break
        return values, j_cur, converged

    # Multi-start: DP seed plus the clipped centerline-consistent start.
    seeds = [values]
    flat = np.zeros_like(values)
    if boundary.l0 is not None:
        flat[0] = boundary.l0
    if boundary.l1 is not None:
        flat[-1] = boundary.l1
    seeds.append(flat)
    best = None
    for seed in seeds:
        cand_values, j_cand, conv = refine(seed)
        if best is None or j_cand < best[1]:
            best = (cand_values, j_cand, conv)
    values, j_cur, converged = best
    path = make_path(values)
    return LateralOffsetPath(
        path.knots, path.values, path.slopes, boundary, converged=converged
    )


# -- speed planning and reference time --------------------------------


@dataclass(frozen=True)
class SpeedPlan:
    s: np.ndarray  # track arc length samples
    v_d: np.ndarray  # m/s
    mu: float
    g: float = G
    stretch: np.ndarray | None = None  # d(path length)/ds at samples


def plan_speed(
    path: LateralOffsetPath,
    track: TrackGeometry,
    mu: float,
    g: float = G,
    a_long_limits: tuple[float, float] = A_LONG_LIMITS,
    v_straight_max: float = V_STRAIGHT_MAX,
    ds: float = 0.25,
    powertrain: "object | None" = None,
    v_start: float | None = None,
) -> SpeedPlan:
    """Adhesion-limited speed with a forward-backward acceleration pass.

    When `powertrain` (a plant VehicleParams) is given, the forward pass
    is additionally limited by available drive force minus losses, and
    both passes respect the friction-ellipse coupling with the lateral
    demand, so the plan is drivable rather than merely adhesion-feasible
    pointwise.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    a_min, a_max = a_long_limits
    if not a_min < 0 < a_max:
        raise ValueError("need a_min < 0 < a_max")
    n = max(2, int(math.ceil(track.s_max / ds)))
    if n % 2:
        n += 1  # even interval count for Simpson quadrature
    s = np.linspace(0.0, track.s_max, n + 1)
    l, dl, ddl = path.derivatives(s)
    kappa = np.abs(_frenet_path_curvature(track, s, l, dl, ddl))
    cap = np.where(
        kappa > 1e-9, np.sqrt(mu * g / np.maximum(kappa, 1e-9)), np.inf
    )
    cap = np.minimum(cap, v_straight_max)
    kc = track.curvature_at_many(s)
    stretch = np.hypot(1.0 - kc * l, dl)
    dsig = np.diff(s) * 0.5 * (stretch[:-1] + stretch[1:])

    def ellipse(v, k):
        """Longitudinal grip fraction left beside the lateral demand."""
        lat = v * v * k / (mu * g)
        return math.sqrt(max(0.0, 1.0 - min(lat, 1.0) ** 2))

    t_max = ActuatorLimits().t_max

    def a_fwd(v, k):
        a = a_max
        if powertrain is not None:
            p = powertrain
            f = t_max / p.r_w - p.c_rr * p.m * g - p.c_drag * v * v
            a = min(a, f / p.m)
        return min(a, mu * g) * ellipse(v, k)

    def a_bwd(v, k):
        return min(-a_min, mu * g) * ellipse(v, k)

    v = cap.copy()
    if v_start is not None:
        v[0] = min(v[0], v_start)
    for i in range(len(v) - 1):  # forward: drive/adhesion limit
        a = a_fwd(v[i], kappa[i])
        v[i + 1] = min(v[i + 1], math.sqrt(v[i] ** 2 + 2 * max(a, 0.0) * dsig[i]))
    for i in range(len(v) - 1, 0, -1):  # backward: braking limit
        a = a_bwd(v[i], kappa[i])
        v[i - 1] = min(v[i - 1], math.sqrt(v[i] ** 2 + 2 * a * dsig[i - 1]))
    return SpeedPlan(s=s, v_d=v, mu=mu, g=g, stretch=stretch)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson on a uniform grid with an even interval count."""
    h = x[1] - x[0]
    return float(h / 3.0 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum()))


@dataclass(frozen=True)
class PreTrajectory:
    """Planned path + speed plan + its reference traversal time."""

    path: LateralOffsetPath | None
    speed: SpeedPlan
    t_ref: float
    # Dense samples (the file contract): s, l, x, y, kappa, v_d
    s: np.ndarray = field(default=None)
    l: np.ndarray = field(default=None)
    x: np.ndarray = field(default=None)
    y: np.ndarray = field(default=None)
    kappa: np.ndarray = field(default=None)
    v_d: np.ndarray = field(default=None)

    def l_ref(self, s):
        return np.interp(s, self.s, self.l)

    def v_ref(self, s):
        return np.interp(s, self.s, self.v_d)


def reference_time(speed: SpeedPlan) -> float:
    """Traversal time of the speed plan (path length over speed)."""
    stretch = speed.stretch if speed.stretch is not None else np.ones_like(speed.s)
    return _simpson(stretch / speed.v_d, speed.s)


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
        speed=speed,
        t_ref=reference_time(speed),
        s=s,
        l=l,
        x=xy[:, 0],
        y=xy[:, 1],
        kappa=kappa,
        v_d=speed.v_d,
    )


def plan_pretrajectory(
    track: TrackGeometry,
    mu: float = 0.85,
    boundary: Boundary = Boundary(),
    n: int | None = None,
    m: int = 13,
    margin: float = CORRIDOR_MARGIN,
    use_centerline: bool = False,
    powertrain: "object | None" = None,
    v_start: float | None = 9.0,
) -> PreTrajectory:
    """End-to-end planning convenience used by the CLI and experiments."""
    lim = track.half_width - margin
    if n is None:
        n = max(10, int(round(track.s_max / 2.0)))
    # The road-point grid spans [l_min, l_max) with m points; pick l_max one
    # step beyond +lim so the candidates cover the corridor symmetrically
    # (and include the centerline when m is odd).
    while m * 2 * lim / (m - 1) > lim + track.half_width:
        m += 2
    grid = discretize(track, n, m, -lim, -lim + m * 2 * lim / (m - 1))
    if use_centerline:
        path = centerline_path(track)
    else:
        path = minimize_curvature(track, grid, boundary, margin=margin)
    if powertrain is None:
        powertrain = VehicleParams()
    speed = plan_speed(path, track, mu, powertrain=powertrain,
                       v_start=v_start)
    return build_pretrajectory(path, track, speed)


# -- file format ------------------------------------------------------

PRETRAJ_FILE_VERSION = "driftcorner pretrajectory v1"


def save_pretrajectory(pre: PreTrajectory, path: str | Path) -> None:
    path = Path(path)
    b = pre.path.boundary if pre.path is not None else Boundary()
    lines = [
        f"# {PRETRAJ_FILE_VERSION}",
        f"# t_ref = {pre.t_ref!r}",
        f"# mu = {pre.speed.mu!r}",
        f"# boundary = {b.l0!r},{b.dl0!r},{b.l1!r},{b.dl1!r}",
        "s,l,x,y,kappa,v_d",
    ]
    for row in zip(pre.s, pre.l, pre.x, pre.y, pre.kappa, pre.v_d):
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def load_pretrajectory(path: str | Path) -> PreTrajectory:
    path = Path(path)
    t_ref = mu = None
    rows = []
    with open(path) as fh:
        first = fh.readline().strip()
        if first != f"# {PRETRAJ_FILE_VERSION}":
            raise BadTrackSpec(f"unrecognized pretrajectory header: {first!r}")
        for line in fh:
            line = line.strip()
            if not line or line.startswith("s,"):
                continue
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition(" = ")
                if key == "t_ref":
                    t_ref = float(value)
                elif key == "mu":
                    mu = float(value)
                continue
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows)
    if t_ref is None or mu is None:
        raise BadTrackSpec("pretrajectory file missing t_ref/mu header")
    speed = SpeedPlan(s=data[:, 0], v_d=data[:, 5], mu=mu)
    return PreTrajectory(
        path=None,
        speed=speed,
        t_ref=t_ref,
        s=data[:, 0],
        l=data[:, 1],
        x=data[:, 2],
        y=data[:, 3],
        kappa=data[:, 4],
        v_d=data[:, 5],
    )
