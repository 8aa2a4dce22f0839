"""Corrective model-predictive tracker on the linear-tire chassis model.

A six-state Cartesian model (position, heading, body velocities, yaw
rate) with linear tire forces is linearized about a reference point,
discretized exactly under zero-order hold, and augmented with the
previous input so the decision variables are input *rates*.  The
linearization and the discretization also take stacks of reference
points, so a whole reference trajectory is modelled in one pass.  A
two-step prediction feeds a four-variable dense QP solved by an
active-set iteration; every solution is KKT-checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import Infeasible, NoConvergence, SingularSpeed
from .plant import VehicleParams

V_EPS = 0.5  # m/s, model-singularity guard on 1/v_x terms
N_STATE = 6
N_INPUT = 2
N_AUG = N_STATE + N_INPUT


class CartesianState(NamedTuple):
    """[X, Y, phi, v_x, v_y, yaw_rate] sample of a reference curve."""

    x: float
    y: float
    phi: float
    v_x: float
    v_y: float
    yaw_rate: float

    def vector(self) -> np.ndarray:
        return np.array(self, dtype=float)


class MpcInput(NamedTuple):
    delta_f: float  # rad
    a_xt: float  # m/s^2


@dataclass(frozen=True)
class MpcWeights:
    """Cost weights, sample time and box limits of the tracker."""

    q: np.ndarray = field(
        default_factory=lambda: np.diag([50.0, 50.0, 20.0, 5.0, 5.0, 5.0]))
    r: np.ndarray = field(default_factory=lambda: np.diag([200.0, 10.0]))
    t_s: float = 0.01  # s
    u_min: np.ndarray = field(
        default_factory=lambda: np.array([-0.524, -8.0]))
    u_max: np.ndarray = field(
        default_factory=lambda: np.array([0.524, 3.0]))
    du_min: np.ndarray = field(
        default_factory=lambda: np.array([-0.07, -0.8]))
    du_max: np.ndarray = field(
        default_factory=lambda: np.array([0.07, 0.8]))

    def __post_init__(self):
        qe = np.linalg.eigvalsh(0.5 * (self.q + self.q.T))
        re = np.linalg.eigvalsh(0.5 * (self.r + self.r.T))
        if qe.min() < -1e-12:
            raise ValueError("Q must be positive semidefinite")
        if re.min() <= 0.0:
            raise ValueError("R must be positive definite")
        if self.t_s <= 0.0:
            raise ValueError("T_s must be positive")


def dynamics_rhs(
    gamma: np.ndarray, u: np.ndarray, params: VehicleParams
) -> np.ndarray:
    """Continuous right-hand side of the linear-tire model.

    Front slip = delta - (v_y + l_f*r)/v_x, rear slip = (l_r*r - v_y)/v_x,
    lateral force per tire = C*slip (two tires per axle).
    """
    _, _, phi, v_x, v_y, r = gamma
    delta, a_xt = u
    if v_x < V_EPS:
        raise SingularSpeed(f"v_x={v_x:.3f} below {V_EPS}")
    p = params
    ff = p.c_cf * (delta - (v_y + p.l_f * r) / v_x)
    fr = p.c_cr * ((p.l_r * r - v_y) / v_x)
    return np.array([
        v_x * math.cos(phi) - v_y * math.sin(phi),
        v_x * math.sin(phi) + v_y * math.cos(phi),
        r,
        v_y * r + a_xt,
        -v_x * r + 2.0 * (ff + fr) / p.m,
        2.0 * (p.l_f * ff - p.l_r * fr) / p.i_z,
    ])


def linearize(
    ref: CartesianState, params: VehicleParams
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic Jacobians (A_t, B_t) of the model at a reference point.

    The fields of `ref` may be arrays of one shape; the Jacobians then
    stack along it, (..., 6, 6) and (..., 6, 2).
    """
    phi, vx, vy, r = ref.phi, ref.v_x, ref.v_y, ref.yaw_rate
    if np.any(vx < V_EPS):
        raise SingularSpeed(f"reference v_x={np.min(vx):.3f} below {V_EPS}")
    p = params
    c, s = np.cos(phi), np.sin(phi)
    cf, cr = p.c_cf, p.c_cr
    a = np.zeros(np.shape(vx) + (N_STATE, N_STATE))
    a[..., 0, 2] = -vx * s - vy * c
    a[..., 0, 3] = c
    a[..., 0, 4] = -s
    a[..., 1, 2] = vx * c - vy * s
    a[..., 1, 3] = s
    a[..., 1, 4] = c
    a[..., 2, 5] = 1.0
    a[..., 3, 4] = r
    a[..., 3, 5] = vy
    a[..., 4, 3] = -r + 2.0 * (cf * (vy + p.l_f * r) - cr * (p.l_r * r - vy)) / (p.m * vx * vx)
    a[..., 4, 4] = -2.0 * (cf + cr) / (p.m * vx)
    a[..., 4, 5] = -vx + 2.0 * (-cf * p.l_f + cr * p.l_r) / (p.m * vx)
    a[..., 5, 3] = 2.0 * (p.l_f * cf * (vy + p.l_f * r) + p.l_r * cr * (p.l_r * r - vy)) / (p.i_z * vx * vx)
    a[..., 5, 4] = 2.0 * (-p.l_f * cf + p.l_r * cr) / (p.i_z * vx)
    a[..., 5, 5] = 2.0 * (-p.l_f ** 2 * cf - p.l_r ** 2 * cr) / (p.i_z * vx)
    b = np.zeros(np.shape(vx) + (N_STATE, N_INPUT))
    b[..., 3, 1] = 1.0
    b[..., 4, 0] = 2.0 * cf / p.m
    b[..., 5, 0] = 2.0 * p.l_f * cf / p.i_z
    return a, b


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a truncated series.

    `a` may be a stack (..., n, n).  The whole stack shares one scaling,
    set by its largest 1-norm, and one series length.
    """
    norm = float(np.max(np.abs(a).sum(axis=-2), initial=0.0))
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0.5 else 0
    x = a / (2.0 ** squarings)
    out = np.eye(a.shape[-1])
    term = np.eye(a.shape[-1])
    for k in range(1, 40):
        term = term @ x / k
        out = out + term
        if np.max(np.abs(term)) < 1e-18 * max(1.0, np.max(np.abs(out))):
            break
    for _ in range(squarings):
        out = out @ out
    return out


def discretize_augment(
    a_t: np.ndarray, b_t: np.ndarray, t_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization with input-rate augmentation.

    exp([[A, B], [0, 0]] T_s) = [[A_d, B_d], [0, I]] (Van Loan, IEEE TAC
    1978) is the augmented model a_aug of the state [Gamma; u_{k-1}],
    and its last two columns [B_d; I] are b_aug.  Stacks (..., 6, 6) and
    (..., 6, 2) give stacks (..., 8, 8) and (..., 8, 2), exponentiated
    in one pass.
    """
    if t_s <= 0.0:
        raise ValueError("t_s must be positive")
    big = np.zeros(a_t.shape[:-2] + (N_AUG, N_AUG))
    big[..., :N_STATE, :N_STATE] = a_t * t_s
    big[..., :N_STATE, N_STATE:] = b_t * t_s
    a_aug = expm(big)
    return a_aug, a_aug[..., N_STATE:].copy()


def predict_two_step(
    gamma_aug: np.ndarray,
    a_k: np.ndarray,
    b_k: np.ndarray,
    a_k1: np.ndarray,
    b_k1: np.ndarray,
    du_k: np.ndarray,
    du_k1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Two applications of the augmented prediction model."""
    g1 = a_k @ gamma_aug + b_k @ du_k
    g2 = a_k1 @ g1 + b_k1 @ du_k1
    return g1, g2


# -- dense QP ---------------------------------------------------------


@dataclass
class QpSolution:
    z: np.ndarray  # stacked (du_k, du_k1)
    objective: float
    active: list[int]
    kkt_residual: float
    iterations: int


def solve_box_qp(
    h: np.ndarray,
    g: np.ndarray,
    a_ineq: np.ndarray,
    b_ineq: np.ndarray,
    max_iter: int = 60,
) -> QpSolution:
    """min 1/2 z'Hz + g'z  s.t.  A z <= b, H positive definite.

    Primal active-set iteration: start unconstrained, add the most
    violated constraint, drop constraints with negative multipliers.
    Falls back to exhaustive active-set enumeration if it cycles.
    """
    n = len(g)
    m = len(b_ineq)

    def solve_eq(active: list[int]):
        k = len(active)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = h
        rhs = np.empty(n + k)
        rhs[:n] = -g
        if k:
            aa = a_ineq[active]
            kkt[:n, n:] = aa.T
            kkt[n:, :n] = aa
            rhs[n:] = b_ineq[active]
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None, None
        return sol[:n], sol[n:]

    active: list[int] = []
    for it in range(max_iter):
        z, lam = solve_eq(active)
        if z is None:
            # Degenerate working set; drop the newest member.
            active.pop()
            continue
        if lam is not None and len(active) and np.min(lam) < -1e-11:
            active.pop(int(np.argmin(lam)))
            continue
        slack = a_ineq @ z - b_ineq
        worst = int(np.argmax(slack))
        if slack[worst] <= 1e-10:
            obj = 0.5 * z @ h @ z + g @ z
            res = _kkt_residual(h, g, a_ineq, b_ineq, z, active, lam)
            return QpSolution(z, obj, sorted(active), res, it + 1)
        if worst in active:  # numerical stall
            break
        active.append(worst)

    # Exhaustive enumeration over active sets (small problem, safe net).
    best = None
    for k in range(0, n + 1):
        for combo in itertools.combinations(range(m), k):
            z, lam = solve_eq(list(combo))
            if z is None or (lam is not None and len(combo)
                             and np.min(lam) < -1e-9):
                continue
            if np.max(a_ineq @ z - b_ineq) > 1e-9:
                continue
            obj = 0.5 * z @ h @ z + g @ z
            if best is None or obj < best.objective - 1e-12:
                res = _kkt_residual(h, g, a_ineq, b_ineq, z, list(combo), lam)
                best = QpSolution(z, obj, sorted(combo), res, max_iter)
    if best is None:
        raise NoConvergence("active-set QP failed to find a feasible point")
    return best


def _kkt_residual(h, g, a_ineq, b_ineq, z, active, lam) -> float:
    grad = h @ z + g
    if active:
        grad = grad + a_ineq[active].T @ np.asarray(lam)
    stat = float(np.max(np.abs(grad)))
    comp = 0.0
    if active:
        comp = float(np.max(np.abs(np.asarray(lam)
                                   * (a_ineq[active] @ z - b_ineq[active]))))
    return max(stat, comp)


# Box constraints A z <= b on z = (du_k, du_{k+1}), the same on every
# tick.  Each row pair bounds both input channels from above and below:
# the rates du_k and du_{k+1}, then the accumulated inputs u(k) and
# u(k+1), which couple the two steps.
A_INEQ = np.kron([[1, 0], [-1, 0], [0, 1], [0, -1],
                  [1, 0], [-1, 0], [1, 1], [-1, -1]], np.eye(2))
A_INEQ.flags.writeable = False


def solve_qp(
    gamma_aug: np.ndarray,
    refs: tuple[np.ndarray, np.ndarray],
    mats: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    weights: MpcWeights,
) -> tuple[np.ndarray, np.ndarray, QpSolution]:
    """Two-step tracking QP in the input-rate variables.

    gamma_aug: current augmented state [Gamma; u_{k-1}].
    refs: reference 6-vectors for steps k+1 and k+2.
    mats: (A_k, B_k, A_{k+1}, B_{k+1}) from discretize_augment.
    Returns (du_k, du_{k+1}, the QP solution with its KKT residual).
    """
    a_k, b_k, a_k1, b_k1 = mats
    q, r = weights.q, weights.r

    # Gamma(k+1) = the state rows of A_k x + B_k du_k; Gamma(k+2) = those
    # of A_{k+1}A_k x + A_{k+1}B_k du_k + B_{k+1} du_{k+1}.
    free1 = (a_k @ gamma_aug)[:N_STATE]
    free2 = (a_k1 @ a_k @ gamma_aug)[:N_STATE]
    m1 = np.hstack([b_k[:N_STATE], np.zeros((N_STATE, N_INPUT))])
    m2 = np.hstack([(a_k1 @ b_k)[:N_STATE], b_k1[:N_STATE]])
    err1, err2 = free1 - refs[0], free2 - refs[1]
    r2 = np.zeros((4, 4))
    r2[:2, :2] = r
    r2[2:, 2:] = r
    h = 2.0 * (m1.T @ q @ m1 + m2.T @ q @ m2 + r2)
    g = 2.0 * (m1.T @ q @ err1 + m2.T @ q @ err2)
    h = 0.5 * (h + h.T)

    u_prev = gamma_aug[N_STATE:]
    lo1 = np.maximum(weights.du_min, weights.u_min - u_prev)
    hi1 = np.minimum(weights.du_max, weights.u_max - u_prev)
    if np.any(lo1 > hi1 + 1e-12):
        raise Infeasible("rate box and accumulated-input box are disjoint")
    b_ineq = np.concatenate([
        weights.du_max, -weights.du_min,
        weights.du_max, -weights.du_min,
        weights.u_max - u_prev, -(weights.u_min - u_prev),
        weights.u_max - u_prev, -(weights.u_min - u_prev),
    ])
    sol = solve_box_qp(h, g, A_INEQ, b_ineq)
    return sol.z[:2], sol.z[2:], sol
