/* Compiled integrator core: the step loop of the RK5(4) integrator over the closed-form flow
 * tensors.  A run's start (the monitor's scale, row 0, the first velocity and the initial step)
 * is _core_py.start, which hcflow.core.bind calls before this loop.  The loop's arithmetic is in
 * _core_kernels.h, which hcflow.core.build renders from hcflow/_core_py.py with hcflow._core_gen
 * into the build's include directory: the closed forms (hcf_closed_k, hcf_closed_phi), the
 * tableau A and E, the loop's constants and L_MIN, and the functions that _core_py names with a
 * leading _ (error_norm, reject_factor, accept_factor, step_floor, sample_cut, polar_monitor,
 * dense_coefficients, dense_eval).  This file holds only the control flow of
 * _core_py._integrate (_core_py documents geometry ids, parameter packing and the algorithm),
 * the stage sums and the row emission, which mirror it by hand and give the same bits: they
 * repeat the Python operations in order, min() and max() keep Python's argument order, and sums
 * run left to right from 0.0.  Build it as hcflow.core does, with -std=c99 -O2 -fno-builtin
 * -ffp-contract=off: gcc's builtins fold pow(x, 2.0) into x*x, and contraction fuses a*b + c.
 * Where Python raises (OverflowError from **, ZeroDivisionError), the loop returns an ERR_ code;
 * exp, cos and sin are plain libm calls, whose inf or NaN the Python lane takes where math
 * raises.  The loop integrates the log-polar state (x, y, L = log |z|^2, theta = arg z), from
 * L = -inf at z = 0, skips the tableau's zero weights and tests the six new stages of a step
 * once, as _core_py does.  It emits each stride sample inside its step; the Python lane records
 * the steps and evaluates their samples after its loop, as arrays with the same per-sample
 * operations, so a sample's error still comes before any later step's. */
#include <math.h>
#include <string.h>

enum { REACHED_TMAX, EXTINCT, FAILURE, ERR_OVERFLOW, ERR_ZERO_DIVISION, ERR_GEOMETRY, ERR_BUFFER };

/* Python's min(a, b) and max(a, b): the first argument wins ties and NaNs. */
static double pmin(double a, double b) { return b < a ? b : a; }
static double pmax(double a, double b) { return b > a ? b : a; }
/* Python's x ** y and x / y; *fault keeps the first error, as a raise would. */
static double pw(double x, double y, int *fault) {
    double r = pow(x, y);
    if (!*fault && isinf(r) && isfinite(x)) *fault = ERR_OVERFLOW;
    return r;
}
static double dv(double x, double y, int *fault) {
    if (!*fault && y == 0.0) *fault = ERR_ZERO_DIVISION;
    return x / y;
}
#define PW(x, y) pw(x, y, fault)
#define DV(x, y) dv(x, y, fault)
/* uses pmin, pmax, pw, dv, PW, DV and ERR_GEOMETRY; <> skips this file's own directory, so the
 * build's -I directory wins over any stray copy beside it */
#include <_core_kernels.h>

/* Kernel and row buffer of one run, and the last emitted theta (its bits) with its cos and sin. */
typedef struct { int geom; double p1, p2, *rows; long cap, n; double th, cos_th, sin_th; } Run;

/* The velocity of the state (x, y, L, theta): L' = -2 Re phi, theta' = -Im phi. */
static int rhs(const Run *r, const double *s, double *f) {
    int err = hcf_closed_phi(r->geom, r->p1, r->p2, s[0], s[1], exp(s[2]), s[3], f);
    f[2] = 2.0 * f[2];
    for (int c = 0; c < 4; c++) f[c] = -f[c];
    return err;
}
/* The Cartesian state z of the state s: z = exp(L / 2) (cos theta, sin theta), and z = 0 where
 * exp(L) is below the normal range (L < L_MIN).  cos and sin are recomputed only when theta's
 * bits change (theta stays on the w * z entries); memcmp, not ==, so -0.0 keeps sin(-0.0). */
static void cartesian(Run *r, const double *s, double *z) {
    z[0] = s[0], z[1] = s[1], z[2] = z[3] = 0.0;
    if (!(s[2] < L_MIN)) {
        if (memcmp(&s[3], &r->th, sizeof r->th) != 0)
            r->th = s[3], r->cos_th = cos(s[3]), r->sin_th = sin(s[3]);
        double rr = exp(0.5 * s[2]);
        z[2] = rr * r->cos_th, z[3] = rr * r->sin_th;
    }
}
/* Append the row (t, z, -K(z)) of the state s, z its Cartesian state. */
static int emit(Run *r, double t, const double *s) {
    if (r->n == r->cap) return ERR_BUFFER;
    double *row = r->rows + 9 * r->n++;
    int err;
    row[0] = t;
    cartesian(r, s, row + 1);
    err = hcf_closed_k(r->geom, r->p1, r->p2, row + 1, row + 5);
    for (int c = 5; c < 9; c++) row[c] = -row[c];
    return err;
}
/* Whether the row of the state s can be made: the closed form at its Cartesian state returns
 * no ERR_ code (_core_py's row_defined). */
static int row_defined(Run *r, const double *s) {
    double z[4], k[4];
    cartesian(r, s, z);
    return hcf_closed_k(r->geom, r->p1, r->p2, z, k) == 0;
}

#define CHECK(call) do { if ((status = (call)) != 0) goto done; } while (0)
#define FINISH(st, m) do { status = (st); out[4] = (m); goto done; } while (0)

/* The step loop of _core_py._integrate.  begin is the vector of _core_py.start: the state
 * (x, y, L, theta), its velocity f0, the initial step h, the monitor's scale (3) and m0.  rows
 * (cap rows of 9) holds row 0, which the caller wrote; out receives (row count, accepted,
 * rejected, t_est or NaN for None, final monitor).  Returns a STATUS_ code of _core_py or an
 * ERR_ code. */
int hcf_run_closed_flow(int geom, double p1, double p2, const double *begin, double t_max,
                        double rel_tol, double abs_tol, double stride, double threshold,
                        long max_steps, double *rows, long cap, double *out) {
    Run r = {geom, p1, p2, rows, cap, 1, begin[3], cos(begin[3]), sin(begin[3])};
    const double *inv_scale = begin + 9;
    double y0[4], y1[4], ys[4], y_end[4], e[4], k[28], q[16];  /* k: seven stages of four */
    double h = begin[8], t = 0.0, err = 0.0, err_prev = 1.0, t_end, t_cut, m_last = begin[12], m1;
    double lo, hi, mid, mids[BISECTIONS], ts;
    long n_acc = 0, n_rej = 0, n_dec = 0, next_sample = 1;  /* n_dec: see _core_py._integrate */
    int status = 0, bad, extinct, have_q;

    memcpy(y0, begin, sizeof y0);
    memcpy(k, begin + 4, 4 * sizeof *k);
    out[3] = NAN;
    while (!status && t < t_max) {  /* status: a fault of reject_factor or accept_factor */
        if (t_max - t <= h) h = t_max - t;  /* the step to t_max, which is never an underflow */
        else if (h < step_floor(t)) {  /* extinct if the last 11 monitors shrink */
            if (!(m_last < EXTINCT_MARGIN && n_dec >= EXTINCT_DECREASES)) FINISH(FAILURE, m_last);
            out[3] = t;
            CHECK(emit(&r, t, y0));
            FINISH(EXTINCT, m_last);
        }
        if (n_acc + n_rej >= max_steps) FINISH(FAILURE, m_last);
        for (int s = 1; s < 7; s++) {  /* six new stages, first-same-as-last: k[0..3] is rhs(y0) */
            memcpy(ys, y0, sizeof ys);
            for (int j = 0; j < s; j++)
                if (A[s][j] != 0.0)
                    for (int c = 0; c < 4; c++) ys[c] += h * A[s][j] * k[4 * j + c];
            CHECK(rhs(&r, ys, k + 4 * s));
        }
        memcpy(y1, ys, sizeof y1);  /* stage 7 state: the 5th-order solution */
        /* a non-finite stage or new state is rejected; only L = -inf (z = 0) may stay infinite */
        bad = !(isfinite(y1[0]) && isfinite(y1[1]) && (isfinite(y1[2]) || y1[2] == y0[2])
                && isfinite(y1[3]));
        for (int i = 4; i < 28; i++) bad = bad || !isfinite(k[i]);
        if (!bad) {
            for (int c = 0; c < 4; c++) {
                e[c] = 0.0;
                for (int s = 0; s < 7; s++)
                    if (E[s] != 0.0) e[c] += E[s] * k[4 * s + c];
                e[c] *= h;
            }
            err = error_norm(e, y0, y1, rel_tol, abs_tol, &status);
            if (status) goto done;
        }
        if (bad || !isfinite(err)) { n_rej++; h *= NONFINITE_FACTOR; continue; }
        if (err > 1.0) { n_rej++; h *= reject_factor(err, &status); continue; }
        n_acc++;
        m1 = polar_monitor(y1, inv_scale);
        t_end = t + h;
        have_q = extinct = m1 < threshold;  /* dense_eval never faults: fractions in [0, 1] */
        if (extinct) {  /* locate the crossing of the positivity floor inside this step */
            dense_coefficients(h, k, q);
            lo = 0.0, hi = 1.0;
            for (int i = 0; i < BISECTIONS; i++) {
                mids[i] = mid = 0.5 * (lo + hi);
                dense_eval(y0, q, mid, ys, &status);
                if (polar_monitor(ys, inv_scale) < threshold) hi = mid; else lo = mid;
            }
            dense_eval(y0, q, hi, y_end, &status);
            if (!row_defined(&r, y_end))  /* back to the last point whose row can be made */
                for (int i = BISECTIONS - 1; i >= 0; i--) {
                    dense_eval(y0, q, mids[i], ys, &status);
                    if (row_defined(&r, ys)) { hi = mids[i], memcpy(y_end, ys, sizeof y_end); break; }
                }
            t_end = t + hi * h;
        }
        /* only the step that ends the run takes samples past its end */
        t_cut = extinct || t_end >= t_max ? sample_cut(t_end, stride) : t_end;
        while (next_sample * stride <= t_cut) {
            ts = pmin(next_sample * stride, t_end);
            if (!have_q) dense_coefficients(h, k, q), have_q = 1;
            dense_eval(y0, q, pmin(pmax((ts - t) / h, 0.0), 1.0), ys, &status);
            CHECK(emit(&r, ts, ys));
            next_sample++;
        }
        if (extinct) {
            out[3] = t_end;
            if (rows[9 * (r.n - 1)] < t_end - TAIL_TOL) CHECK(emit(&r, t_end, y_end));
            FINISH(EXTINCT, polar_monitor(y_end, inv_scale));
        }
        n_dec = m_last > m1 ? n_dec + 1 : 0;  /* a NaN resets it */
        m_last = m1;
        t += h;
        memcpy(y0, y1, sizeof y0);
        memcpy(k, k + 24, 4 * sizeof *k);
        h *= err == 0.0 ? MAX_FACTOR : accept_factor(err, err_prev, &status);
        err_prev = pmax(err, ERR_FLOOR);
    }
    if (status) goto done;
    if (rows[9 * (r.n - 1)] < t_max - TAIL_TOL) CHECK(emit(&r, t_max, y0));
    FINISH(REACHED_TMAX, m_last);
done:
    out[0] = r.n, out[1] = n_acc, out[2] = n_rej;
    return status;
}
