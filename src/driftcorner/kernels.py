"""Hot numeric kernel for the vehicle plant, and the modelled vehicle.

The chassis + wheel-spin right-hand side and the fixed-step RK4 loop are
the innermost loop of training and deployment: each control period runs
10 substeps of 4 stages.  `integrate` takes the state as 7 floats and
the four settable values of the plant (mass, adhesion mu, and the
Magic-Formula B and D of both axles) as floats; every other value of
the one modelled vehicle is a constant of this module.  It computes the
quantities that hold over the whole period (static axle loads, tire
peaks, brake forces, the rolling loss, cos/sin of the wheel angle) once
in `_period_constants`, runs the unrolled stages on floats held in
locals, and returns the new state as floats.  The hoisted expressions
keep their per-stage operand order, so the results are bit for bit
those of evaluating everything at every stage.

The kernel is plain Python on floats and `math` functions: at 7 states
and 4 stages a numpy array per stage would cost more than the
arithmetic it holds.

State layout (7 floats):
    [X, Y, phi, v_x, v_y, yaw_rate, omega_r]
"""

from __future__ import annotations

from math import atan, atan2, cos, sin, sqrt, tanh

G = 9.81  # m/s^2
NUMBA_ENABLED = False  # the kernel always runs as plain Python

# The modelled vehicle: every value but the settable four.
I_Z = 3200.0  # kg*m^2, yaw inertia
L_F = 1.4  # m, c.g. to front axle
L_R = 1.6  # m, c.g. to rear axle
R_W = 0.32  # m, wheel radius
I_W = 1.5  # kg*m^2 per wheel
K_B = 600.0  # N*m/MPa; P_max * K_B locks the wheels at mu = 1
BRAKE_FRONT_FRAC = 0.6
C_RR = 0.012  # rolling resistance coefficient
C_DRAG = 0.42  # N/(m/s)^2 aerodynamic drag
TIRE_C = 1.9  # Magic-Formula shape C, both axles
TIRE_E = 0.97  # Magic-Formula curvature E, both axles
WHEELBASE = L_F + L_R
_IW2 = 2.0 * I_W  # the rear axle's two wheels
_BRAKE_F = BRAKE_FRONT_FRAC * K_B
_BRAKE_R = (1.0 - BRAKE_FRONT_FRAC) * K_B


def _tire_curve(slip, B, C, E, scale):
    """Pure-slip Magic Formula force with the scale `peak*D` given whole."""
    bs = B * slip
    return scale * sin(C * atan(bs - E * (bs - atan(bs))))


def magic_formula(slip, B, C, D, E, peak):
    """Pure-slip Magic Formula force; odd in slip, saturates at `peak*D`."""
    return _tire_curve(slip, B, C, E, peak * D)


def _period_constants(delta, trt, pb, m, mu, b, d):
    """The right-hand side's inputs that stay fixed over one control
    period (zero-order-hold inputs and the settable plant values), as
    one tuple of floats."""
    pb = float(pb)
    m = float(m)
    mu = float(mu)
    d = float(d)
    # static axle loads
    fzf = m * G * L_R / WHEELBASE
    fzr = m * G * L_F / WHEELBASE
    return (
        float(delta), cos(delta), sin(delta), float(trt), m, float(b),
        # mu*Fz*D twice: the Magic Formula scales and the friction-ellipse
        # peaks round the product in different operand orders
        mu * fzf * d, mu * fzr * d,
        mu * d * fzf, mu * d * fzr,
        -(_BRAKE_F * pb / R_W),  # front brake force per unit tanh(v_x / 0.5)
        _BRAKE_R * pb,  # rear brake torque per unit tanh(omega / 0.5)
        C_RR * m * G,  # rolling loss per unit tanh(v_x / 0.5)
    )


def _rhs(phi, vx, vy, r, om, const):
    """Right-hand side of the 3-DOF chassis + rear wheel spin model at
    one stage state; returns the 7 state rates and the lateral
    acceleration at the c.g. (diagnostic for the rollover proxy)."""
    (delta, cd, sd, trt, m, b, scale_f, scale_r, peak_f, peak_r, brake_f,
     brake_r, roll) = const

    vx_s = vx if vx > 0.3 else 0.3  # slip-angle guard at low speed
    alpha_f = atan2(vy + L_F * r, vx_s) - delta
    alpha_r = atan2(vy - L_R * r, vx_s)

    # Rear longitudinal slip from wheel spin (lumped axle).
    denom = abs(vx)
    if denom < 0.5:
        denom = 0.5
    sx_r = (om * R_W - vx) / denom

    # Pure-slip Magic Formula forces (lateral force opposes the slip angle).
    fy_f0 = -_tire_curve(alpha_f, b, TIRE_C, TIRE_E, scale_f)
    fy_r0 = -_tire_curve(alpha_r, b, TIRE_C, TIRE_E, scale_r)
    fx_r0 = _tire_curve(sx_r, b, TIRE_C, TIRE_E, scale_r)

    # Front longitudinal force: brake demand only (no front drive).
    th = tanh(vx / 0.5)
    fx_f0 = brake_f * th

    # Friction-ellipse combination per axle.
    pf = sqrt((fx_f0 / peak_f) ** 2 + (fy_f0 / peak_f) ** 2)
    if pf > 1.0:
        fx_f = fx_f0 / pf
        fy_f = fy_f0 / pf
    else:
        fx_f = fx_f0
        fy_f = fy_f0
    pr = sqrt((fx_r0 / peak_r) ** 2 + (fy_r0 / peak_r) ** 2)
    if pr > 1.0:
        fx_r = fx_r0 / pr
        fy_r = fy_r0 / pr
    else:
        fx_r = fx_r0
        fy_r = fy_r0

    # Losses (rolling resistance + aerodynamic drag), smooth-signed.
    f_loss = roll * th + C_DRAG * vx * abs(vx)

    ax = (fx_f * cd - fy_f * sd + fx_r - f_loss) / m
    ay = (fx_f * sd + fy_f * cd + fy_r) / m
    return (
        vx * cos(phi) - vy * sin(phi),
        vx * sin(phi) + vy * cos(phi),
        r,
        vy * r + ax,
        -vx * r + ay,
        (L_F * (fy_f * cd + fx_f * sd) - L_R * fy_r) / I_Z,
        # Lumped rear axle spin: drive torque, brake torque, tire reaction.
        (trt - brake_r * tanh(om / 0.5) - R_W * fx_r) / _IW2,
        ay,
    )


def derivative(y, delta, trt, pb, m, mu, b, d):
    """Right-hand side at state `y`: the 7 state rates, then the lateral
    acceleration at the c.g."""
    return _rhs(float(y[2]), float(y[3]), float(y[4]), float(y[5]), float(y[6]),
                _period_constants(delta, trt, pb, m, mu, b, d))


def integrate(y, delta, trt, pb, dt, n_sub, m, mu, b, d):
    """Fixed-step RK4 with zero-order-hold inputs over the control period.

    Returns the state `y` advanced by `dt`, as 7 floats, followed by the
    lateral acceleration at the final substep (rollover diagnostic).
    """
    const = _period_constants(delta, trt, pb, m, mu, b, d)
    h = dt / n_sub
    hh = 0.5 * h
    h6 = h / 6.0
    px = float(y[0])
    py = float(y[1])
    phi = float(y[2])
    vx = float(y[3])
    vy = float(y[4])
    r = float(y[5])
    om = float(y[6])
    ay = 0.0
    for _ in range(n_sub):
        a0, a1, a2, a3, a4, a5, a6, _ = _rhs(phi, vx, vy, r, om, const)
        b0, b1, b2, b3, b4, b5, b6, _ = _rhs(
            phi + hh * a2, vx + hh * a3, vy + hh * a4, r + hh * a5,
            om + hh * a6, const)
        c0, c1, c2, c3, c4, c5, c6, _ = _rhs(
            phi + hh * b2, vx + hh * b3, vy + hh * b4, r + hh * b5,
            om + hh * b6, const)
        d0, d1, d2, d3, d4, d5, d6, ay = _rhs(
            phi + h * c2, vx + h * c3, vy + h * c4, r + h * c5,
            om + h * c6, const)
        px += h6 * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
        py += h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        phi += h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        vx += h6 * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        vy += h6 * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
        r += h6 * (a5 + 2.0 * b5 + 2.0 * c5 + d5)
        om += h6 * (a6 + 2.0 * b6 + 2.0 * c6 + d6)
        if vx < 0.0:  # no reverse travel
            vx = 0.0
        if om < 0.0:  # no reverse wheel spin
            om = 0.0
    return px, py, phi, vx, vy, r, om, ay
