"""The vehicle plant's numeric kernel, and the modelled vehicle.

The chassis + wheel-spin right-hand side and the fixed-step RK4 loop are
the innermost loop of training and deployment: each control period runs
10 substeps of 4 stages.  `integrate` takes the state as 7 floats and
the four settable values of the plant (mass, adhesion mu, and the
Magic-Formula B and D of both axles) as floats; every other value of
the one modelled vehicle is a constant of this module.  The quantities
that hold over the whole period (static axle loads, tire peaks, brake
forces, the rolling loss, cos/sin of the wheel angle) are computed once
per period, by `_period_constants`.

`_rhs` (with `derivative` and `magic_formula`) is the right-hand side in
Python, and the reference.  `integrate` runs one C kernel, `_integrate.c`:
a plain RK4 loop over the same right-hand side, in the same operand
order and calling the same libm functions as Python's `math` and `**`,
so its outputs are bit for bit those of an RK4 loop over `_rhs` (the
tests compare the two).  The C file writes no constant: each reaches the
compiler from this module as a -D macro written with `repr()`, which
the compiler reads back as the same double.

The kernel is compiled at first import with the C compiler that Python
was built with (sysconfig's CC), with the flags in `_CFLAGS`.  Two of
them keep the bits: -fno-builtin-pow, since gcc otherwise folds
`pow(x, 2.0)` into `x * x`, which glibc's pow does not always round
alike, and -ffp-contract=off, so that no multiply and add are fused.
Nothing like -march=native or -ffast-math may join them.  The library
is cached in the package's `__pycache__/` under a name that holds a
SHA-256 of the source, the compiler command, the flags and the
constants, so it is built once per source.  There is no Python
fallback: without a working compiler the import fails with an
ImportError that shows the command and the compiler's output.

State layout (7 floats):
    [X, Y, phi, v_x, v_y, yaw_rate, omega_r]
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import struct
import subprocess
import sysconfig
import tempfile
from math import atan, atan2, cos, sin, sqrt, tanh
from pathlib import Path

G = 9.81  # m/s^2
# The period is the controller's 10 ms: N_SUBSTEPS RK4 substeps of
# SUBSTEP_DT, and 0.01 / 10 is the double 0.001.
SUBSTEP_DT = 0.001  # s
N_SUBSTEPS = 10
# perfbench/run.py reports the plant backend from this flag; the kernel
# is the compiled C one (the flag goes with the benchmark's next change)
NUMBA_ENABLED = False

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


_SOURCE = Path(__file__).with_name("_integrate.c")
# -fno-builtin-pow and -ffp-contract=off keep the bits (see above)
_CFLAGS = ("-O1", "-fno-builtin-pow", "-ffp-contract=off", "-shared", "-fPIC")
_MACROS = {"L_F": L_F, "L_R": L_R, "R_W": R_W, "I_Z": I_Z, "IW2": _IW2, "C_DRAG": C_DRAG,
           "TIRE_C": TIRE_C, "TIRE_E": TIRE_E, "SUBSTEP_DT": SUBSTEP_DT,
           "N_SUBSTEPS": N_SUBSTEPS}


def _build(cache_dir: Path) -> Path:
    """The compiled kernel in `cache_dir`, compiled there first unless a
    library of the same source, compiler command, flags and constants is
    already there.  Raises ImportError when the compiler fails."""
    args = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_CFLAGS,
            *(f"-D{name}={value!r}" for name, value in _MACROS.items())]
    key = hashlib.sha256(_SOURCE.read_bytes())
    key.update("\0".join(args).encode())
    lib = cache_dir / f"_integrate.{key.hexdigest()}.so"
    if lib.exists():
        return lib
    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", prefix=".", dir=cache_dir)
    os.close(fd)
    cmd = [*args, "-o", tmp, str(_SOURCE), "-lm"]
    try:
        try:
            done = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise ImportError(f"cannot compile the plant kernel: {shlex.join(cmd)}: {exc}") from exc
        if done.returncode:
            raise ImportError(f"cannot compile the plant kernel: {shlex.join(cmd)} exited "
                              f"{done.returncode}:\n{done.stdout}{done.stderr}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


_integrate = ctypes.CDLL(str(_build(_SOURCE.with_name("__pycache__")))).integrate
_integrate.argtypes = (ctypes.c_void_p,)
_integrate.restype = None
# the C `struct period` of 21 doubles: the state, a_y (the kernel's to
# set), the 13 period constants; the kernel leaves the state a period
# later and a_y in the first 8
_Period = ctypes.c_double * 21
_PERIOD_IN = struct.Struct("7d8x13d")
_PERIOD_OUT = struct.Struct("8d")


def integrate(y, delta, trt, pb, m, mu, b, d):
    """Fixed-step RK4 with zero-order-hold inputs over the control period.

    Returns the state `y` advanced by N_SUBSTEPS substeps of SUBSTEP_DT,
    as 7 floats, followed by the lateral acceleration at the final
    substep (rollover diagnostic).  Runs the C kernel: bit for bit an
    RK4 loop over `_rhs`.
    """
    period = _Period()
    _PERIOD_IN.pack_into(period, 0, y[0], y[1], y[2], y[3], y[4], y[5], y[6],
                      *_period_constants(delta, trt, pb, m, mu, b, d))
    _integrate(period)
    return _PERIOD_OUT.unpack_from(period)
