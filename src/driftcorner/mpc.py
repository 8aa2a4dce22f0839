"""Corrective model-predictive tracker on the linear-tire chassis model.

A six-state Cartesian model (position, heading, body velocities, yaw
rate) with linear tire forces is linearized about a reference point,
discretized exactly under zero-order hold at the control period T_S,
and augmented with the previous input so the decision variables are
input *rates*.  The linearization and the discretization also take
stacks of reference points, so a whole reference trajectory is
modelled in one pass.

The tracker solves one problem: over N_STEPS sample times, drive the
deviation from the reference to zero, with the state weights Q, the
rate weights R, the rate box DU_MIN..DU_MAX and the input box
U_MIN..U_MAX, all module constants.  The state is the deviation
gamma_aug itself, so the targets are zero and everything in the dense
QP over the stacked rates but the gradient is fixed by the step models.
`condense` builds, offline and for a whole stack at once, the Hessian
H, the gradient map F (g = F gamma_aug) and the unconstrained gain
K = -H^-1 F.  What runs per tick is `solve_qp`: two small products for
g and the unconstrained minimizer, the box bounds, and `solve_box_qp`,
a dual active set that starts from that minimizer and returns at once
when it is feasible.  It ends finitely for a strictly convex QP; its
one failure exit is the NoConvergence of an iteration guard, which the
fusion controller counts, applying no correction on that tick.  Every
solution is KKT-checked against the gradient formed from F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Infeasible, NoConvergence, SingularSpeed
from .plant import CONTROL_DT, DELTA_MAX, VehicleParams

V_EPS = 0.5  # m/s, model-singularity guard on 1/v_x terms
N_STATE = 6
N_INPUT = 2
N_AUG = N_STATE + N_INPUT
N_STEPS = 2  # the horizon, in sample times
N_Z = N_STEPS * N_INPUT  # decision variables (du_k, ..., du_{k+N_STEPS-1})

# The tracker's one configuration: sample time, the model's linear
# tire stiffness, cost weights on the state deviation and on the input
# rates, and the boxes on the rates and on the accumulated inputs
# (delta_f in rad, a_xt in m/s^2); the steering box is the plant's.
T_S = CONTROL_DT  # s
C_CF = 8.0e4  # N/rad per tire, front
C_CR = 8.0e4  # N/rad per tire, rear
Q = np.diag([50.0, 50.0, 20.0, 5.0, 5.0, 5.0])
R = np.diag([200.0, 10.0])
U_MIN = np.array([-DELTA_MAX, -8.0])
U_MAX = np.array([DELTA_MAX, 3.0])
DU_MIN = np.array([-0.07, -0.8])
DU_MAX = np.array([0.07, 0.8])
QP_MAX_ITER = 60  # active-set iterations before NoConvergence
for _const in (Q, R, U_MIN, U_MAX, DU_MIN, DU_MAX):
    _const.flags.writeable = False


class CartesianState(NamedTuple):
    """[X, Y, phi, v_x, v_y, yaw_rate] sample of a reference curve."""

    x: float
    y: float
    phi: float
    v_x: float
    v_y: float
    yaw_rate: float


class MpcInput(NamedTuple):
    delta_f: float  # rad
    a_xt: float  # m/s^2


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
    ff = C_CF * (delta - (v_y + p.l_f * r) / v_x)
    fr = C_CR * ((p.l_r * r - v_y) / v_x)
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
    cf, cr = C_CF, C_CR
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
    a_t: np.ndarray, b_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization with input-rate augmentation.

    exp([[A, B], [0, 0]] T_S) = [[A_d, B_d], [0, I]] (Van Loan, IEEE TAC
    1978) is the augmented model a_aug of the state [Gamma; u_{k-1}],
    and its last two columns [B_d; I] are b_aug.  Stacks (..., 6, 6) and
    (..., 6, 2) give stacks (..., 8, 8) and (..., 8, 2), exponentiated
    in one pass.
    """
    big = np.zeros(a_t.shape[:-2] + (N_AUG, N_AUG))
    big[..., :N_STATE, :N_STATE] = a_t * T_S
    big[..., :N_STATE, N_STATE:] = b_t * T_S
    a_aug = expm(big)
    return a_aug, a_aug[..., N_STATE:].copy()


class CondensedQp(NamedTuple):
    """The tracking QP with the state left symbolic.

    For the augmented deviation gamma_aug the QP is min 1/2 z'Hz + g'z
    over the stacked rates z = (du_k, ..., du_{k+N-1}) with
    g = f gamma_aug, and k gamma_aug is its unconstrained minimizer.
    The fields may be stacks over leading axes."""

    h: np.ndarray  # (..., 2N, 2N)
    f: np.ndarray  # (..., 2N, 8)
    k: np.ndarray  # (..., 2N, 8), -H^-1 f


def condense(mats) -> CondensedQp:
    """Condensed QP of the step models (A_0, B_0, ..., A_{N-1}, B_{N-1}),
    from discretize_augment, one pair per step of the horizon.

    From x_0 = gamma_aug, x_{j+1} = A_j x_j + B_j du_j; the state rows
    of x_1 .. x_N, stacked, are P x_0 + M z, whose target is zero.  With
    q_bar = diag(Q, .., Q) and r_bar = diag(R, .., R), H = 2(M' q_bar M
    + r_bar) and f = 2M' q_bar P.  Stacks of models give stacks of QPs.
    """
    n = len(mats) // 2
    q_bar, r_bar = np.zeros((n * N_STATE, n * N_STATE)), np.zeros((n * N_INPUT, n * N_INPUT))
    free, pred = [], []
    for j in range(n):  # x_{j+1} = x_free x_0 + x_pred z
        a, b = mats[2 * j], mats[2 * j + 1]
        rows, cols = slice(j * N_STATE, (j + 1) * N_STATE), slice(j * N_INPUT, (j + 1) * N_INPUT)
        q_bar[rows, rows], r_bar[cols, cols] = Q, R  # cheaper than np.kron(np.eye(n), Q)
        if j == n - 1:  # no step follows: only the state rows are needed
            a, b = a[..., :N_STATE, :], b[..., :N_STATE, :]
        x_free = a if j == 0 else a @ x_free
        x_pred = np.zeros(b.shape[:-1] + (n * N_INPUT,)) if j == 0 else a @ x_pred
        x_pred[..., cols] = b
        free.append(x_free[..., :N_STATE, :])
        pred.append(x_pred[..., :N_STATE, :])
    free, pred = np.concatenate(free, axis=-2), np.concatenate(pred, axis=-2)
    w = 2.0 * np.swapaxes(pred, -1, -2) @ q_bar
    h = w @ pred + 2.0 * r_bar
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    f = w @ free
    return CondensedQp(h, f, -np.linalg.solve(h, f))


# -- dense QP ---------------------------------------------------------


@dataclass
class QpSolution:
    z: np.ndarray  # stacked (du_k, ..., du_{k+N-1})
    active: list[int]
    kkt_residual: float
    iterations: int


def solve_box_qp(
    h: np.ndarray,
    g: np.ndarray,
    a_ineq: np.ndarray,
    b_ineq: np.ndarray,
    z_free: np.ndarray | None = None,
) -> QpSolution:
    """min 1/2 z'Hz + g'z  s.t.  A z <= b, H positive definite.

    Dual active set (Goldfarb and Idnani, Math. Prog. 27, 1983): from the
    unconstrained minimizer, raise the multiplier of the most violated
    row p, moving z and the working rows' multipliers along the bordered
    KKT system [[H, N'], [N, 0]] of the working rows N.  A full step,
    where row p comes to hold, adds p; a partial step, where a working
    multiplier reaches zero first, drops that row and goes on with p.
    The multipliers stay nonnegative and the working rows independent.
    Exits: the solution, once no row is violated; Infeasible, when p
    depends on the working rows and no multiplier can fall; and
    NoConvergence after QP_MAX_ITER iterations, one per step and one per
    check.  `z_free`, when given, is -H^-1 g computed beforehand; a
    feasible one returns after one iteration without a solve.
    """
    n = len(g)
    z = np.linalg.solve(h, -g) if z_free is None else z_free
    lam = np.zeros(len(b_ineq))  # nonzero on the working rows and on p
    active: list[int] = []  # the working rows
    p = -1  # the row being added
    for it in range(QP_MAX_ITER):
        if p < 0:
            slack = a_ineq @ z - b_ineq
            p = int(np.argmax(slack))
            if slack[p] <= 1e-10:
                res = _kkt_residual(h, g, a_ineq, z, lam, slack)
                return QpSolution(z, sorted(active), res, it + 1)
        rows, a_p, k = a_ineq[active], a_ineq[p], len(active)
        kkt = np.block([[h, rows.T], [rows, np.zeros((k, k))]])
        step = np.linalg.solve(kkt, np.concatenate([-a_p, np.zeros(k)]))
        dz, dlam = step[:n], step[n:]
        rate = -float(a_p @ dz)  # dz'H dz, the fall of row p's violation
        falling = np.flatnonzero(dlam < 0.0)
        t_drop = -lam[active][falling] / dlam[falling]
        t = float(np.min(t_drop, initial=math.inf))
        # the rate is rounding alone when a_p depends on the rows
        full = rate > 1e-9 * float(a_p @ a_p) / np.trace(h)
        if full:
            t_full = float(a_p @ z - b_ineq[p]) / rate
            full, t = t_full <= t, min(t, t_full)
            z = z + t * dz
        elif t == math.inf:
            raise Infeasible(f"row {p} depends on the working rows {active}, "
                             "and no step satisfies it")
        lam[active] += t * dlam
        lam[p] += t
        if full:
            active.append(p)
            p = -1
        else:
            lam[active.pop(int(falling[np.argmin(t_drop)]))] = 0.0
    raise NoConvergence(f"active set not settled in {QP_MAX_ITER} iterations")


def _kkt_residual(h, g, a_ineq, z, lam, slack) -> float:
    """Largest KKT violation of z and the multipliers lam, with the
    slack A z - b."""
    return max(float(np.abs(h @ z + g + a_ineq.T @ lam).max()),
               float(np.abs(lam * slack).max()))


# Box constraints A z <= b on z = (du_k, ..., du_{k+N-1}), the same on
# every tick.  Each row pair bounds both input channels from above and
# below: du_k by the intersection of its rate box and the box on u(k),
# each later du_{k+j} by its rate box, and each partial sum
# du_k + ... + du_{k+j} by the box on u(k+j), which couples the steps.
A_INEQ = np.kron(
    np.kron(np.vstack([np.eye(N_STEPS, dtype=int), np.tri(N_STEPS, dtype=int)[1:]]), [[1], [-1]]),
    np.eye(N_INPUT))
A_INEQ.flags.writeable = False
# The boxes' bounds as Python floats, for the per-tick arithmetic.
(_U_MIN_D, _U_MIN_A), (_U_MAX_D, _U_MAX_A) = U_MIN.tolist(), U_MAX.tolist()
(_DU_MIN_D, _DU_MIN_A), (_DU_MAX_D, _DU_MAX_A) = DU_MIN.tolist(), DU_MAX.tolist()
_DU_ROWS = [_DU_MAX_D, _DU_MAX_A, -_DU_MIN_D, -_DU_MIN_A] * (N_STEPS - 1)


def solve_qp(
    gamma_aug: np.ndarray, qp: CondensedQp
) -> tuple[np.ndarray, np.ndarray, QpSolution]:
    """One tick of the tracking QP in the input-rate variables.

    gamma_aug: the augmented deviation [Gamma - Gamma_ref; u_{k-1}].
    qp: the tick's condensed QP from `condense`; qp.k gives the
    unconstrained minimizer without a solve.
    Returns (du_k, the later rates stacked, the QP solution with its KKT residual).
    Raises Infeasible when the rate and input boxes are disjoint, and
    NoConvergence when `solve_box_qp` does not converge.

    g and the minimizer stay numpy products, which fixes their summation
    order; the rate and input bounds of the tick are a few numbers, so
    they are formed on Python floats and go into one array, b.
    """
    g = qp.f @ gamma_aug
    z_free = qp.k @ gamma_aug

    d_prev, a_prev = gamma_aug[N_STATE:].tolist()
    up_d, up_a = _U_MAX_D - d_prev, _U_MAX_A - a_prev
    down_d, down_a = _U_MIN_D - d_prev, _U_MIN_A - a_prev
    # the room first: then max and min return it when it is NaN, as
    # np.maximum and np.minimum do
    lo_d, lo_a = max(down_d, _DU_MIN_D), max(down_a, _DU_MIN_A)
    hi_d, hi_a = min(up_d, _DU_MAX_D), min(up_a, _DU_MAX_A)
    if lo_d > hi_d + 1e-12 or lo_a > hi_a + 1e-12:
        raise Infeasible("rate box and accumulated-input box are disjoint")
    b_ineq = np.array([hi_d, hi_a, -lo_d, -lo_a, *_DU_ROWS,
                       *[up_d, up_a, -down_d, -down_a] * (N_STEPS - 1)])
    sol = solve_box_qp(qp.h, g, A_INEQ, b_ineq, z_free=z_free)
    return sol.z[:N_INPUT], sol.z[N_INPUT:], sol
