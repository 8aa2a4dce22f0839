/* The plant's control period: a fixed-step RK4 loop over `rhs`.

   `rhs` is `kernels._rhs` in C: the same expressions in the same operand
   order, calling the same libm functions that Python's `math` module and
   float `**` call, so every output is bit for bit that of the Python
   reference.  The vehicle's constants are not written here: `kernels`
   passes each one as a -D macro (L_F, L_R, R_W, I_Z, IW2, C_DRAG,
   TIRE_C, TIRE_E, SUBSTEP_DT, N_SUBSTEPS), and the period constants of
   `kernels._period_constants` arrive in the `period` struct.  Build with
   -fno-builtin-pow and -ffp-contract=off (see `kernels`). */

#include <math.h>

struct period {
    double y[7];  /* in: X, Y, phi, v_x, v_y, yaw_rate, omega_r; out: a period later */
    double a_y;   /* out: lateral acceleration at the c.g., at the last substep */
    /* in: `kernels._period_constants`, in its order */
    double delta, cd, sd, trt, m, b, scale_f, scale_r, peak_f, peak_r, brake_f, brake_r,
        roll;
};

static double tire_curve(double slip, double b, double scale)
{
    double bs = b * slip;
    return scale * sin(TIRE_C * atan(bs - TIRE_E * (bs - atan(bs))));
}

/* The 7 state rates at one stage state, then the lateral acceleration. */
static void rhs(const struct period *p, double phi, double vx, double vy, double r,
                double om, double k[8])
{
    double vx_s = vx > 0.3 ? vx : 0.3;
    double alpha_f = atan2(vy + L_F * r, vx_s) - p->delta;
    double alpha_r = atan2(vy - L_R * r, vx_s);
    double denom = fabs(vx);
    if (denom < 0.5)
        denom = 0.5;
    double sx_r = (om * R_W - vx) / denom;

    double fy_f0 = -tire_curve(alpha_f, p->b, p->scale_f);
    double fy_r0 = -tire_curve(alpha_r, p->b, p->scale_r);
    double fx_r0 = tire_curve(sx_r, p->b, p->scale_r);
    double th = tanh(vx / 0.5);
    double fx_f0 = p->brake_f * th;

    /* pow(x, 2.0) and not x * x: glibc's pow does not always round as the
       product does, and Python's `x ** 2` calls pow */
    double fx_f = fx_f0, fy_f = fy_f0, fx_r = fx_r0, fy_r = fy_r0;
    double pf = sqrt(pow(fx_f0 / p->peak_f, 2.0) + pow(fy_f0 / p->peak_f, 2.0));
    if (pf > 1.0) {
        fx_f = fx_f0 / pf;
        fy_f = fy_f0 / pf;
    }
    double pr = sqrt(pow(fx_r0 / p->peak_r, 2.0) + pow(fy_r0 / p->peak_r, 2.0));
    if (pr > 1.0) {
        fx_r = fx_r0 / pr;
        fy_r = fy_r0 / pr;
    }

    double f_loss = p->roll * th + C_DRAG * vx * fabs(vx);
    double ax = (fx_f * p->cd - fy_f * p->sd + fx_r - f_loss) / p->m;
    double ay = (fx_f * p->sd + fy_f * p->cd + fy_r) / p->m;
    k[0] = vx * cos(phi) - vy * sin(phi);
    k[1] = vx * sin(phi) + vy * cos(phi);
    k[2] = r;
    k[3] = vy * r + ax;
    k[4] = -vx * r + ay;
    k[5] = (L_F * (fy_f * p->cd + fx_f * p->sd) - L_R * fy_r) / I_Z;
    k[6] = (p->trt - p->brake_r * tanh(om / 0.5) - R_W * fx_r) / IW2;
    k[7] = ay;
}

void integrate(struct period *p)
{
    const double h = SUBSTEP_DT, hh = 0.5 * h, h6 = h / 6.0;
    double *y = p->y;
    double k1[8], k2[8], k3[8], k4[8], z[7];
    for (int n = 0; n < N_SUBSTEPS; n++) {
        rhs(p, y[2], y[3], y[4], y[5], y[6], k1);
        for (int i = 2; i < 7; i++)
            z[i] = y[i] + hh * k1[i];
        rhs(p, z[2], z[3], z[4], z[5], z[6], k2);
        for (int i = 2; i < 7; i++)
            z[i] = y[i] + hh * k2[i];
        rhs(p, z[2], z[3], z[4], z[5], z[6], k3);
        for (int i = 2; i < 7; i++)
            z[i] = y[i] + h * k3[i];
        rhs(p, z[2], z[3], z[4], z[5], z[6], k4);
        for (int i = 0; i < 7; i++)
            y[i] = y[i] + h6 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        p->a_y = k4[7];
        if (y[3] < 0.0) /* no reverse travel */
            y[3] = 0.0;
        if (y[6] < 0.0) /* no reverse wheel spin */
            y[6] = 0.0;
    }
}
