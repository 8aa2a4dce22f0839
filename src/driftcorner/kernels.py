"""Hot numeric kernel for the vehicle plant, and the modelled vehicle.

The chassis + wheel-spin right-hand side and the fixed-step RK4 loop are
the innermost loop of training and deployment: each control period runs
10 substeps of 4 stages.  `integrate` takes the state as 7 floats and
the four settable values of the plant (mass, adhesion mu, and the
Magic-Formula B and D of both axles) as floats; every other value of
the one modelled vehicle is a constant of this module.  It computes the
quantities that hold over the whole period (static axle loads, tire
peaks, brake forces, the rolling loss, cos/sin of the wheel angle) once
in `_period_constants`, and returns the new state as floats.

`_rhs` (with `derivative`) is the one reference right-hand side.
`integrate` writes the four stages of a substep out, each with the
right-hand side and the Magic-Formula tire curve inline, on floats held
in locals: no call, constant unpack or tuple return per stage.  Every
inlined expression keeps the operand order of `_rhs`, and the hoisted
ones their per-stage order, so the results are bit for bit those of an
RK4 loop over `_rhs` (the tests compare the two).

The kernel is plain Python on floats and `math` functions: at 7 states
and 4 stages a numpy array per stage would cost more than the
arithmetic it holds.

State layout (7 floats):
    [X, Y, phi, v_x, v_y, yaw_rate, omega_r]
"""

from __future__ import annotations

from math import atan, atan2, cos, sin, sqrt, tanh

G = 9.81  # m/s^2
# The period is the controller's 10 ms: N_SUBSTEPS RK4 substeps of
# SUBSTEP_DT, and 0.01 / 10 is the double 0.001.
SUBSTEP_DT = 0.001  # s
N_SUBSTEPS = 10
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


def integrate(y, delta, trt, pb, m, mu, b, d):
    """Fixed-step RK4 with zero-order-hold inputs over the control period.

    Returns the state `y` advanced by N_SUBSTEPS substeps of SUBSTEP_DT,
    as 7 floats, followed by the lateral acceleration at the final
    substep (rollover diagnostic).

    The four stages are written out, each with the right-hand side and
    the tire curve inline: the same expressions as `_rhs`, in the same
    operand order, so the result is bit for bit that of a substep loop
    over `_rhs`.  A stage's rate of phi is its yaw rate.
    """
    (delta, cd, sd, trt, m, b, scale_f, scale_r, peak_f, peak_r, brake_f,
     brake_r, roll) = _period_constants(delta, trt, pb, m, mu, b, d)
    h = SUBSTEP_DT
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
    for _ in range(N_SUBSTEPS):
        # stage 1, at the substep's start
        vs = vx if vx > 0.3 else 0.3
        bs = b * (atan2(vy + L_F * r, vs) - delta)
        fyf = -(scale_f * sin(TIRE_C * atan(bs - TIRE_E * (bs - atan(bs)))))
        bs = b * atan2(vy - L_R * r, vs)
        fyr = -(scale_r * sin(TIRE_C * atan(bs - TIRE_E * (bs - atan(bs)))))
        au = abs(vx)
        bs = b * ((om * R_W - vx) / (0.5 if au < 0.5 else au))
        fxr = scale_r * sin(TIRE_C * atan(bs - TIRE_E * (bs - atan(bs))))
        th = tanh(vx / 0.5)
        fxf = brake_f * th
        q = sqrt((fxf / peak_f) ** 2 + (fyf / peak_f) ** 2)
        if q > 1.0:
            fxf = fxf / q
            fyf = fyf / q
        q = sqrt((fxr / peak_r) ** 2 + (fyr / peak_r) ** 2)
        if q > 1.0:
            fxr = fxr / q
            fyr = fyr / q
        ay = (fxf * sd + fyf * cd + fyr) / m
        cp = cos(phi)
        sp = sin(phi)
        a0 = vx * cp - vy * sp
        a1 = vx * sp + vy * cp
        a3 = vy * r + (fxf * cd - fyf * sd + fxr - (roll * th + C_DRAG * vx * au)) / m
        a4 = -vx * r + ay
        a5 = (L_F * (fyf * cd + fxf * sd) - L_R * fyr) / I_Z
        a6 = (trt - brake_r * tanh(om / 0.5) - R_W * fxr) / _IW2
        # stage 2
        p2 = phi + hh * r
        u2 = vx + hh * a3
        v2 = vy + hh * a4
        r2 = r + hh * a5
        o2 = om + hh * a6
        vs = u2 if u2 > 0.3 else 0.3
        bs = b * (atan2(v2 + L_F * r2, vs) - delta)
        fyf = -(scale_f * sin(TIRE_C * atan(bs - TIRE_E * (bs - atan(bs)))))
        bs = b * atan2(v2 - L_R * r2, vs)
        fyr = -(scale_r * sin(TIRE_C * atan(bs - TIRE_E * (bs - atan(bs)))))
        au = abs(u2)
        bs = b * ((o2 * R_W - u2) / (0.5 if au < 0.5 else au))
        fxr = scale_r * sin(TIRE_C * atan(bs - TIRE_E * (bs - atan(bs))))
        th = tanh(u2 / 0.5)
        fxf = brake_f * th
        q = sqrt((fxf / peak_f) ** 2 + (fyf / peak_f) ** 2)
        if q > 1.0:
            fxf = fxf / q
            fyf = fyf / q
        q = sqrt((fxr / peak_r) ** 2 + (fyr / peak_r) ** 2)
        if q > 1.0:
            fxr = fxr / q
            fyr = fyr / q
        ay = (fxf * sd + fyf * cd + fyr) / m
        cp = cos(p2)
        sp = sin(p2)
        b0 = u2 * cp - v2 * sp
        b1 = u2 * sp + v2 * cp
        b3 = v2 * r2 + (fxf * cd - fyf * sd + fxr - (roll * th + C_DRAG * u2 * au)) / m
        b4 = -u2 * r2 + ay
        b5 = (L_F * (fyf * cd + fxf * sd) - L_R * fyr) / I_Z
        b6 = (trt - brake_r * tanh(o2 / 0.5) - R_W * fxr) / _IW2
        # stage 3
        p3 = phi + hh * r2
        u3 = vx + hh * b3
        v3 = vy + hh * b4
        r3 = r + hh * b5
        o3 = om + hh * b6
        vs = u3 if u3 > 0.3 else 0.3
        bs = b * (atan2(v3 + L_F * r3, vs) - delta)
        fyf = -(scale_f * sin(TIRE_C * atan(bs - TIRE_E * (bs - atan(bs)))))
        bs = b * atan2(v3 - L_R * r3, vs)
        fyr = -(scale_r * sin(TIRE_C * atan(bs - TIRE_E * (bs - atan(bs)))))
        au = abs(u3)
        bs = b * ((o3 * R_W - u3) / (0.5 if au < 0.5 else au))
        fxr = scale_r * sin(TIRE_C * atan(bs - TIRE_E * (bs - atan(bs))))
        th = tanh(u3 / 0.5)
        fxf = brake_f * th
        q = sqrt((fxf / peak_f) ** 2 + (fyf / peak_f) ** 2)
        if q > 1.0:
            fxf = fxf / q
            fyf = fyf / q
        q = sqrt((fxr / peak_r) ** 2 + (fyr / peak_r) ** 2)
        if q > 1.0:
            fxr = fxr / q
            fyr = fyr / q
        ay = (fxf * sd + fyf * cd + fyr) / m
        cp = cos(p3)
        sp = sin(p3)
        c0 = u3 * cp - v3 * sp
        c1 = u3 * sp + v3 * cp
        c3 = v3 * r3 + (fxf * cd - fyf * sd + fxr - (roll * th + C_DRAG * u3 * au)) / m
        c4 = -u3 * r3 + ay
        c5 = (L_F * (fyf * cd + fxf * sd) - L_R * fyr) / I_Z
        c6 = (trt - brake_r * tanh(o3 / 0.5) - R_W * fxr) / _IW2
        # stage 4
        p4 = phi + h * r3
        u4 = vx + h * c3
        v4 = vy + h * c4
        r4 = r + h * c5
        o4 = om + h * c6
        vs = u4 if u4 > 0.3 else 0.3
        bs = b * (atan2(v4 + L_F * r4, vs) - delta)
        fyf = -(scale_f * sin(TIRE_C * atan(bs - TIRE_E * (bs - atan(bs)))))
        bs = b * atan2(v4 - L_R * r4, vs)
        fyr = -(scale_r * sin(TIRE_C * atan(bs - TIRE_E * (bs - atan(bs)))))
        au = abs(u4)
        bs = b * ((o4 * R_W - u4) / (0.5 if au < 0.5 else au))
        fxr = scale_r * sin(TIRE_C * atan(bs - TIRE_E * (bs - atan(bs))))
        th = tanh(u4 / 0.5)
        fxf = brake_f * th
        q = sqrt((fxf / peak_f) ** 2 + (fyf / peak_f) ** 2)
        if q > 1.0:
            fxf = fxf / q
            fyf = fyf / q
        q = sqrt((fxr / peak_r) ** 2 + (fyr / peak_r) ** 2)
        if q > 1.0:
            fxr = fxr / q
            fyr = fyr / q
        ay = (fxf * sd + fyf * cd + fyr) / m
        cp = cos(p4)
        sp = sin(p4)
        d0 = u4 * cp - v4 * sp
        d1 = u4 * sp + v4 * cp
        d3 = v4 * r4 + (fxf * cd - fyf * sd + fxr - (roll * th + C_DRAG * u4 * au)) / m
        d4 = -u4 * r4 + ay
        d5 = (L_F * (fyf * cd + fxf * sd) - L_R * fyr) / I_Z
        d6 = (trt - brake_r * tanh(o4 / 0.5) - R_W * fxr) / _IW2
        px += h6 * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
        py += h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        phi += h6 * (r + 2.0 * r2 + 2.0 * r3 + r4)
        vx += h6 * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        vy += h6 * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
        r += h6 * (a5 + 2.0 * b5 + 2.0 * c5 + d5)
        om += h6 * (a6 + 2.0 * b6 + 2.0 * c6 + d6)
        if vx < 0.0:  # no reverse travel
            vx = 0.0
        if om < 0.0:  # no reverse wheel spin
            om = 0.0
    return px, py, phi, vx, vy, r, om, ay
