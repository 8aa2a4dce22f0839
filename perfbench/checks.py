"""Output checks of the set-up plans, the deploy runs and training.

Each check recomputes a quantity apart from the program, or tests a
property the method must have, and returns a list of failure messages
(empty when the output passes).  The benchmark's own tests feed each
check a deliberately corrupted output and expect a failure.
"""

from __future__ import annotations

import math

import numpy as np

from geometry import Corner, project

G = 9.81
V_STRAIGHT_MAX = 16.0  # m/s, the planner's straight-line cap
A_LONG_LIMITS = (-6.0, 3.0)  # m/s^2, the planner's (braking, driving) limits
CORRIDOR_MARGIN = 1.0  # m, the planner's clearance from each boundary
ACTION_LOW = np.array([-0.524, 0.0, 0.0])  # ActuatorLimits() box
ACTION_HIGH = np.array([0.524, 1000.0, 10.0])
T_F_TOLERANCE = 0.5  # s, matched-plant deploy time against the preview's


# -- plan ---------------------------------------------------------------


def _fd_curvature(x: np.ndarray, y: np.ndarray, h: float, k: int = 1) -> np.ndarray:
    """Curvature from central differences over +-k samples of spacing h/k,
    at samples k .. n-k-1."""
    x1 = (x[2 * k:] - x[:-2 * k]) / (2 * h)
    y1 = (y[2 * k:] - y[:-2 * k]) / (2 * h)
    x2 = (x[2 * k:] - 2 * x[k:-k] + x[:-2 * k]) / (h * h)
    y2 = (y[2 * k:] - 2 * y[k:-k] + y[:-2 * k]) / (h * h)
    return (x1 * y2 - y1 * x2) / (x1 * x1 + y1 * y1) ** 1.5


def check_plan(pre, corner: Corner, mu: float = 0.85) -> list[str]:
    """Checks of one `plan_pretrajectory` output on a corner."""
    out = []
    s, x, y, v = pre.s, pre.x, pre.y, pre.v_d
    cs, cl = project(corner, x, y)
    if np.max(np.abs(cl - pre.l)) > 1e-6 or np.max(np.abs(cs - s)) > 1e-6:
        out.append("plan: closed-form (s, l) of (x, y) differs from (pre.s, pre.l) "
                   f"by {np.max(np.abs(cl - pre.l)):.2e} m")
    lim = corner.half_width - CORRIDOR_MARGIN
    if np.max(np.abs(cl)) > lim + 1e-9:
        out.append(f"plan: |l| reaches {np.max(np.abs(cl)):.4f} m, corridor allows {lim:.4f}")

    # curvature by finite differences of the Cartesian samples at steps h
    # and 2h, Richardson-extrapolated, away from the spline knots and the
    # corner's curvature steps (where the path is only C1)
    h = (s[-1] - s[0]) / (len(s) - 1)
    k_fd = (4.0 * _fd_curvature(x[1:-1], y[1:-1], h) - _fd_curvature(x, y, 2 * h, 2)) / 3.0
    smooth = np.ones(len(s), dtype=bool)
    smooth[:2] = smooth[-2:] = False
    knots = pre.path.knots if pre.path is not None else []
    for b in [*knots, *corner.breaks]:
        j = int(np.searchsorted(s, b))
        smooth[max(j - 2, 0):j + 2] = False
    err = np.abs(k_fd - pre.kappa[2:-2])[smooth[2:-2]]
    if not smooth.any() or np.max(err) > 1e-5:
        out.append("plan: finite-difference curvature differs from pre.kappa by "
                   f"{np.max(err) if smooth.any() else np.nan:.2e} 1/m")

    kappa = np.abs(pre.kappa)
    cap = np.sqrt(mu * G / np.maximum(kappa, 1e-12))
    if np.any(v > cap * (1 + 1e-9)) or np.any(v > V_STRAIGHT_MAX + 1e-9):
        out.append(f"plan: v_d exceeds the adhesion or straight-line cap "
                   f"(max v/cap {np.max(v / cap):.6f}, max v {np.max(v):.3f})")
    chord = np.hypot(np.diff(x), np.diff(y))
    accel = np.diff(v * v) / (2.0 * chord)
    a_min, a_max = A_LONG_LIMITS
    if accel.min() < a_min * (1 + 1e-6) - 1e-9 or accel.max() > a_max * (1 + 1e-6):
        out.append(f"plan: speed change implies {accel.min():.3f}..{accel.max():.3f} "
                   f"m/s^2 outside {A_LONG_LIMITS}")
    t_chord = float(np.sum(chord * 0.5 * (1.0 / v[:-1] + 1.0 / v[1:])))
    if abs(t_chord - pre.t_ref) > 2e-3 * t_chord:
        out.append(f"plan: t_ref {pre.t_ref:.4f} s against chord/v quadrature {t_chord:.4f} s")
    j_plan = float(np.trapezoid(pre.kappa ** 2, s))
    j_center = corner.centerline_kappa_sq_integral()
    if j_plan > j_center * (1 + 1e-6):
        out.append(f"plan: integral of kappa^2 {j_plan:.5f} exceeds the centerline's {j_center:.5f}")
    return out


# -- deploy -------------------------------------------------------------


def box_corners(x, y, phi, l_f: float, l_r: float, half_width: float):
    """World (x, y) of the four bounding-box corners, shape (4, n)."""
    c, s = np.cos(phi), np.sin(phi)
    xs, ys = [], []
    for dx in (l_f, -l_r):
        for dy in (half_width, -half_width):
            xs.append(x + dx * c - dy * s)
            ys.append(y + dx * s + dy * c)
    return np.array(xs), np.array(ys)


def check_deploy(res, corner: Corner, trace_columns, vehicle, preview_t_f: float,
                 matched: bool) -> list[str]:
    """Checks of one `deploy_run` result (run with record_trace=True)."""
    out = []
    if not res.completed:
        out.append(f"deploy: run ended '{res.episode.status}' at s={res.episode.s_final:.1f}")
    total = math.degrees(corner.angle)
    if abs(res.completion_deg - total) > 1e-6 or abs(res.total_deg - total) > 1e-6:
        out.append(f"deploy: completion {res.completion_deg:.3f} of {res.total_deg:.3f} deg, "
                   f"corner turns {total:.3f}")
    a_rl = np.array([r.a_rl for r in res.records])
    du = np.array([r.du_mpc for r in res.records])
    u_t = np.array([r.u_t for r in res.records])
    applied = np.array([r.applied for r in res.records])
    if not np.array_equal(u_t, a_rl + du):
        out.append("deploy: u_t != a_rl + du_mpc on "
                   f"{int(np.sum(np.any(u_t != a_rl + du, axis=1)))} ticks")
    if not np.array_equal(applied, np.clip(a_rl + du, ACTION_LOW, ACTION_HIGH)):
        out.append("deploy: applied != clip(a_rl + du_mpc) on "
                   f"{int(np.sum(np.any(applied != np.clip(u_t, ACTION_LOW, ACTION_HIGH), axis=1)))} ticks")
    if any(r.fallback for r in res.records):
        out.append(f"deploy: side-slip fallback engaged on "
                   f"{sum(r.fallback for r in res.records)} ticks")
    trace = res.episode.trace
    col = {name: i for i, name in enumerate(trace_columns)}
    cx, cy = box_corners(trace[:, col["x"]], trace[:, col["y"]], trace[:, col["phi"]],
                         vehicle.l_f, vehicle.l_r, vehicle.veh_half_width)
    _, l = project(corner, cx.ravel(), cy.ravel())
    if np.max(np.abs(l)) > corner.half_width + 1e-9:
        out.append(f"deploy: a box corner reaches |l| = {np.max(np.abs(l)):.3f} m, "
                   f"half width {corner.half_width:.3f}")
    if matched and abs(res.episode.t_f - preview_t_f) > T_F_TOLERANCE:
        out.append(f"deploy: matched-plant t_f {res.episode.t_f:.2f} s against "
                   f"preview {preview_t_f:.2f} s")
    return out


def check_qp_sample(problems) -> list[str]:
    """Re-solve sampled QPs (H, g, A, b, z) with SciPy's SLSQP."""
    from scipy.optimize import minimize

    out = []
    for h, g, a, b, z in problems:
        res = minimize(lambda v: 0.5 * v @ h @ v + g @ v, np.zeros(len(g)),
                       jac=lambda v: h @ v + g, method="SLSQP",
                       constraints=[{"type": "ineq", "fun": lambda v: b - a @ v,
                                     "jac": lambda v: -a}],
                       options={"ftol": 1e-14, "maxiter": 500})
        scale = max(1.0, float(np.max(np.abs(z))))
        if not res.success or np.max(np.abs(res.x - z)) > 1e-6 * scale:
            out.append(f"deploy: QP solution {z} differs from SLSQP {res.x}")
    return out


# -- train --------------------------------------------------------------


def actor_forward(net, obs: np.ndarray) -> np.ndarray:
    """ReLU MLP with the tanh head rescaled into [low, high]."""
    h = obs
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    z = h @ net.weights[-1] + net.biases[-1]
    return net.low + 0.5 * (np.tanh(z) + 1.0) * (net.high - net.low)


def critic_loss(weights, biases, x: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error of a linear-head ReLU MLP."""
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    q = (h @ weights[-1] + biases[-1])[:, 0]
    return float(np.mean((q - y) ** 2))


def check_critic_gradient(critic, backward, forward, x: np.ndarray, y: np.ndarray,
                          rng: np.random.Generator, n_probe: int = 24) -> list[str]:
    """Central finite differences of the MSE loss against the program's
    backward pass, on randomly chosen weights and biases."""
    q, cache = forward(critic, x)
    err = q[:, 0] - y
    gw, gb, _ = backward(critic, cache, (2.0 * err / len(y))[:, None])
    params = list(critic.weights) + list(critic.biases)
    grads = list(gw) + list(gb)
    g_max = max(float(np.max(np.abs(g))) for g in grads)
    worst = 0.0
    for _ in range(n_probe):
        k = int(rng.integers(len(params)))
        idx = tuple(int(rng.integers(d)) for d in params[k].shape)
        eps = 1e-6 * max(1.0, abs(float(params[k][idx])))
        w = [p.copy() for p in params]
        n = len(critic.weights)
        w[k][idx] += eps
        up = critic_loss(w[:n], w[n:], x, y)
        w[k][idx] -= 2 * eps
        down = critic_loss(w[:n], w[n:], x, y)
        fd = (up - down) / (2 * eps)
        an = float(grads[k][idx])
        worst = max(worst, abs(fd - an) / max(abs(fd) + abs(an), 1e-4 * g_max))
    if worst > 1e-4:
        return [f"train: critic gradient differs from finite differences (rel {worst:.2e})"]
    return []


def check_train(state, warmup: int, env_steps: int, forward, backward,
                rng: np.random.Generator) -> list[str]:
    """Checks of the learner state after the timed phase."""
    out = []
    learning_steps = max(0, env_steps - warmup + 1)
    if state.env_steps != env_steps:
        out.append(f"train: state counts {state.env_steps} env steps, benchmark ran {env_steps}")
    if state.critic_updates != learning_steps:
        out.append(f"train: {state.critic_updates} critic updates for {learning_steps} learning steps")
    if abs(state.actor_updates - state.critic_updates / state.hp.policy_delay) > 1:
        out.append(f"train: {state.actor_updates} actor updates for "
                   f"{state.critic_updates} critic updates at delay {state.hp.policy_delay}")
    nets = (state.actor, state.critic1, state.critic2, state.target_actor,
            state.target_critic1, state.target_critic2)
    moments = [a for opt in (state.opt_actor, state.opt_critic1, state.opt_critic2)
               for a in (*opt.m, *opt.v)]
    if not all(np.all(np.isfinite(p)) for net in nets for p in net.parameters()) \
            or not all(np.all(np.isfinite(m)) for m in moments):
        out.append("train: a network parameter or optimizer moment is not finite")

    buf = state.buffer
    n = len(buf)
    obs = buf.obs[:n]
    a = actor_forward(state.actor, obs)
    a_prog, _ = forward(state.actor, obs)
    if np.any(a < state.low) or np.any(a > state.high):
        out.append("train: actor output leaves the action box")
    if np.max(np.abs(a - a_prog)) > 1e-9:
        out.append(f"train: actor forward differs from a reference forward by "
                   f"{np.max(np.abs(a - a_prog)):.2e}")
    cont = buf.done[:n - 1] == 0.0
    if not np.array_equal(buf.obs_next[:n - 1][cont], buf.obs[1:n][cont]):
        out.append("train: stored obs_next[i] != obs[i+1] inside an episode")

    idx = rng.choice(n, size=min(64, n), replace=False)
    act_norm = 2.0 * (buf.act[idx] - state.low) / (state.high - state.low) - 1.0
    x = np.concatenate([obs[idx], act_norm], axis=1)
    out += check_critic_gradient(state.critic1, backward, forward, x, buf.rew[idx], rng)
    return out
