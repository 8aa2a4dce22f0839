"""Hot numeric kernels for the vehicle plant.

The chassis + wheel-spin right-hand side and the fixed-step RK4 loop are
the innermost loops of training and deployment.  They are plain Python
functions over float64 arrays; when numba can be imported they are
compiled with it, otherwise they run as written.  ``NUMBA_ENABLED`` says
which of the two ran.

State layout (float64 array of length 7):
    [X, Y, phi, v_x, v_y, yaw_rate, omega_r]
Vehicle parameter layout (length 10):
    [m, I_z, l_f, l_r, r_w, I_w, K_b, brake_front_frac, c_rr, c_drag]
Tire parameter layout (length 9):
    [B_f, C_f, D_f, E_f, B_r, C_r, D_r, E_r, mu]
"""

from __future__ import annotations

import math

G = 9.81


def _magic_formula(slip, B, C, D, E, peak):
    """Pure-slip Magic Formula force; odd in slip, saturates at `peak*D`."""
    bs = B * slip
    return peak * D * math.sin(C * math.atan(bs - E * (bs - math.atan(bs))))


def _derivative(y, delta, trt, pb, vp, tp, out):
    """Right-hand side of the 3-DOF chassis + rear wheel spin model.

    Returns the lateral acceleration at the c.g. (diagnostic for the
    rollover proxy) in out[7].
    """
    m, iz, lf, lr, rw, iw, kb, bff, c_rr, c_drag = (
        vp[0], vp[1], vp[2], vp[3], vp[4], vp[5], vp[6], vp[7], vp[8], vp[9],
    )
    phi = y[2]
    vx = y[3]
    vy = y[4]
    r = y[5]
    om = y[6]
    mu = tp[8]

    # Static axle loads.
    fzf = m * G * lr / (lf + lr)
    fzr = m * G * lf / (lf + lr)

    vx_s = vx if vx > 0.3 else 0.3  # slip-angle guard at low speed
    alpha_f = math.atan2(vy + lf * r, vx_s) - delta
    alpha_r = math.atan2(vy - lr * r, vx_s)

    # Rear longitudinal slip from wheel spin (lumped axle).
    denom = abs(vx)
    if denom < 0.5:
        denom = 0.5
    sx_r = (om * rw - vx) / denom

    # Pure-slip forces (lateral force opposes the slip angle).
    fy_f0 = -_magic_formula(alpha_f, tp[0], tp[1], tp[2], tp[3], mu * fzf)
    fy_r0 = -_magic_formula(alpha_r, tp[4], tp[5], tp[6], tp[7], mu * fzr)
    fx_r0 = _magic_formula(sx_r, tp[4], tp[5], tp[6], tp[7], mu * fzr)

    # Front longitudinal force: brake demand only (no front drive).
    t_brake_f = bff * kb * pb
    fx_f0 = -(t_brake_f / rw) * math.tanh(vx / 0.5)

    # Friction-ellipse combination per axle.
    peak_f = mu * tp[2] * fzf
    peak_r = mu * tp[6] * fzr
    pf = math.sqrt((fx_f0 / peak_f) ** 2 + (fy_f0 / peak_f) ** 2)
    if pf > 1.0:
        fx_f = fx_f0 / pf
        fy_f = fy_f0 / pf
    else:
        fx_f = fx_f0
        fy_f = fy_f0
    pr = math.sqrt((fx_r0 / peak_r) ** 2 + (fy_r0 / peak_r) ** 2)
    if pr > 1.0:
        fx_r = fx_r0 / pr
        fy_r = fy_r0 / pr
    else:
        fx_r = fx_r0
        fy_r = fy_r0

    # Losses (rolling resistance + aerodynamic drag), smooth-signed.
    f_loss = c_rr * m * G * math.tanh(vx / 0.5) + c_drag * vx * abs(vx)

    cd = math.cos(delta)
    sd = math.sin(delta)
    ax = (fx_f * cd - fy_f * sd + fx_r - f_loss) / m
    ay = (fx_f * sd + fy_f * cd + fy_r) / m

    out[0] = vx * math.cos(phi) - vy * math.sin(phi)
    out[1] = vx * math.sin(phi) + vy * math.cos(phi)
    out[2] = r
    out[3] = vy * r + ax
    out[4] = -vx * r + ay
    out[5] = (lf * (fy_f * cd + fx_f * sd) - lr * fy_r) / iz
    # Lumped rear axle spin: drive torque, brake torque, tire reaction.
    t_brake_r = (1.0 - bff) * kb * pb * math.tanh(om / 0.5)
    out[6] = (trt - t_brake_r - rw * fx_r) / (2.0 * iw)
    out[7] = ay  # lateral acceleration diagnostic
    return 0.0


def _integrate(y, delta, trt, pb, dt, n_sub, vp, tp, work):
    """Fixed-step RK4 with zero-order-hold inputs over the control period.

    `work` is a scratch array of shape (5, 8).  Returns the lateral
    acceleration at the final substep (rollover diagnostic).
    """
    h = dt / n_sub
    k1 = work[0]
    k2 = work[1]
    k3 = work[2]
    k4 = work[3]
    yt = work[4]
    ay = 0.0
    for _ in range(n_sub):
        _derivative(y, delta, trt, pb, vp, tp, k1)
        for i in range(7):
            yt[i] = y[i] + 0.5 * h * k1[i]
        _derivative(yt, delta, trt, pb, vp, tp, k2)
        for i in range(7):
            yt[i] = y[i] + 0.5 * h * k2[i]
        _derivative(yt, delta, trt, pb, vp, tp, k3)
        for i in range(7):
            yt[i] = y[i] + h * k3[i]
        _derivative(yt, delta, trt, pb, vp, tp, k4)
        for i in range(7):
            y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
        if y[3] < 0.0:  # no reverse travel
            y[3] = 0.0
        if y[6] < 0.0:  # no reverse wheel spin
            y[6] = 0.0
        ay = k4[7]
    return ay


magic_formula = _magic_formula
derivative = _derivative
integrate = _integrate

try:
    import numba
except ImportError:
    NUMBA_ENABLED = False
else:
    NUMBA_ENABLED = True
    magic_formula = numba.njit(cache=True)(_magic_formula)
    # Rebind the globals the outer kernels reference so numba picks up
    # the compiled inner functions when it compiles them lazily.
    _magic_formula = magic_formula
    derivative = numba.njit(cache=True)(_derivative)
    _derivative = derivative
    integrate = numba.njit(cache=True)(_integrate)
