"""Pure-Python integrator core: closed-form flow tensors and the RK5(4) loop.

This is the reference lane.  ``_core_c.c`` mirrors ``run_closed_flow``
operation for operation and must give the same bits, so change the arithmetic
here only together with the C, and keep every sum an explicit left-to-right
one.  ``hcflow.core`` picks the C loop when it is built.

Each geometry's closed form is one function in ``_KERNELS``, and
``run_closed_flow`` binds it and ``(p1, p2)`` once per run.  ``run_flow``
keeps the state and the seven stages in scalar locals and writes the stage
sums, the error norm and the dense-output coefficients out term by term.  That
removes interpreter overhead, not arithmetic: the operations and their order
are those of a loop over the tableau, with the ``0.0 +`` starts (a torus
stage is -0.0, and ``0.0 + -0.0`` is 0.0), the zero-weight terms and every
``**`` kept.

Geometry ids (shared with the compiled core):
0 torus, 1 hyperelliptic, 2 hopf, 3 properly-elliptic, 4 kodaira-primary,
5 kodaira-secondary, 6 inoue-s0, 7 inoue-spm-j1, 8 inoue-sp-j2.
Parameter packing: p1 = lam (hopf, properly-elliptic), p1 = epsilon
(kodaira-secondary, unused by the tensor), (p1, p2) = (a, b) (inoue-s0).
"""
from __future__ import annotations

import math

import numpy as np

# Dormand-Prince 5(4) tableau (stage nodes are not needed: the flow is autonomous)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# dense-output interpolant coefficients (quartic in the step fraction)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
(_P00, _P01, _P02, _P03), (_P10, _P11, _P12, _P13), (_P20, _P21, _P22, _P23), \
    (_P30, _P31, _P32, _P33), (_P40, _P41, _P42, _P43), (_P50, _P51, _P52, _P53), \
    (_P60, _P61, _P62, _P63) = _P

STATUS_REACHED_TMAX = 0
STATUS_EXTINCT = 1
STATUS_FAILURE = 2

_SAFETY = 0.9
_ALPHA = 0.17  # error exponent of the PI controller
_BETA = 0.04  # memory exponent of the PI controller
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


def _torus(p1, p2, x, y, zre, zim):
    return 0.0, 0.0, 0.0, 0.0


def _hyperelliptic(p1, p2, x, y, zre, zim):
    u = zre * zre + zim * zim
    d = x * y - u
    d2 = d * d
    k11 = x * x * u / d2
    k22 = u * u / d2
    w = x * x * y / d2
    return k11, k22, w * zre, w * zim


def _hopf(p1, p2, x, y, zre, zim):
    u = zre * zre + zim * zim
    d = x * y - u
    d2 = d * d
    c = 1.0 + p1 * p1
    k11 = (c * x**4 + u * (2 * x * x + u)) / d2
    k22 = (c * x * x * u + 2 * d2 + u * (y * y + 2 * u) - 2 * c * x * x * d) / d2
    w = x * (p1 * p1 * x * x + (x + y) ** 2) / d2
    return k11, k22, w * zre, w * zim


def _properly_elliptic(p1, p2, x, y, zre, zim):
    u = zre * zre + zim * zim
    d = x * y - u
    d2 = d * d
    c = 1.0 + p1 * p1
    k11 = (c * y * y * u - 2 * d2 + u * (x * x - 2 * u) - 2 * c * y * y * d) / d2
    k22 = (p1 * p1 * y**4 + (y * y - u) ** 2) / d2
    w = y * (p1 * p1 * y * y + (x - y) ** 2) / d2
    return k11, k22, w * zre, w * zim


def _kodaira_primary(p1, p2, x, y, zre, zim):
    u = zre * zre + zim * zim
    d = x * y - u
    d2 = d * d
    k11 = (y * y * u - 2 * y * y * d) / d2
    k22 = y**4 / d2
    w = y**3 / d2
    return k11, k22, w * zre, w * zim


def _kodaira_secondary(p1, p2, x, y, zre, zim):  # the tensor is independent of epsilon
    u = zre * zre + zim * zim
    d = x * y - u
    d2 = d * d
    k11 = (u * (x * x + y * y) - 2 * y * y * d) / d2
    k22 = (y**4 + u * u) / d2
    w = y * (x * x + y * y) / d2
    return k11, k22, w * zre, w * zim


def _inoue_s0(a, b, x, y, zre, zim):
    u = zre * zre + zim * zim
    d = x * y - u
    d2 = d * d
    bb = b * b + 9 * a * a
    k11 = x * x * u * bb / d2
    k22 = ((a * a + b * b) * u * u + 16 * a * a * x * y * u
           - 8 * a * a * x * x * y * y) / d2
    w = x * x * y * bb / d2
    return k11, k22, w * zre, w * zim


def _inoue_spm_j1(p1, p2, x, y, zre, zim):  # Inoue S+- (first complex structure)
    u = zre * zre + zim * zim
    d = x * y - u
    d2 = d * d
    q2 = zim * zim
    k11 = -3.0 + 4 * u * q2 / d2
    k22 = 4 * y * y * q2 / d2
    k12re = 4 * y * zre * q2 / d2
    k12im = 4 * y * zim * (x * y - zre * zre) / d2
    return k11, k22, k12re, k12im


def _inoue_sp_j2(p1, p2, x, y, zre, zim):  # Inoue S+ (second complex structure)
    u = zre * zre + zim * zim
    d = x * y - u
    d2 = d * d
    q2 = zim * zim
    k11 = -3.0 + (4 * u * q2 - 2 * y * y * d + y * y * u) / d2
    k22 = y * y * (4 * q2 + y * y) / d2
    k12re = (4 * y * zre * q2 + y**3 * zre) / d2
    k12im = (4 * y * zim * (x * y - zre * zre) + y**3 * zim) / d2
    return k11, k22, k12re, k12im


# the closed form of each geometry id: (p1, p2, x, y, zre, zim) -> (K11, K22, Re K12, Im K12)
_KERNELS = {0: _torus, 1: _hyperelliptic, 2: _hopf, 3: _properly_elliptic, 4: _kodaira_primary,
            5: _kodaira_secondary, 6: _inoue_s0, 7: _inoue_spm_j1, 8: _inoue_sp_j2}


def _kernel(geom: int):
    """The closed form of geometry id ``geom``; for an unknown id, one that raises ValueError."""
    kernel = _KERNELS.get(geom)
    if kernel is None:
        def kernel(*_):
            raise ValueError(f"unknown geometry id {geom}")
    return kernel


def closed_k(geom: int, p1: float, p2: float, x: float, y: float,
             zre: float, zim: float) -> tuple[float, float, float, float]:
    """Closed-form flow tensor (K11, K22, Re K12, Im K12) for one geometry."""
    return _kernel(geom)(p1, p2, x, y, zre, zim)


def closed_rhs(geom: int, p1: float, p2: float, state) -> tuple[float, float, float, float]:
    """Flow right-hand side (xdot, ydot, Re zdot, Im zdot) at one state."""
    k11, k22, k12re, k12im = closed_k(geom, p1, p2, state[0], state[1], state[2], state[3])
    return -k11, -k22, -k12re, -k12im


def _monitor(x, y, zre, zim, inv_scale) -> float:
    """Positivity margin of a state, normalized by the initial metric scale.

    Minimum of x, y and the determinant, each divided by the matching power of
    the initial scale; extinction is declared when this drops below the
    configured floor.
    """
    d = x * y - (zre * zre + zim * zim)
    mx = x * inv_scale[0]
    my = y * inv_scale[1]
    md = d * inv_scale[2]
    return min(mx, my, md)


def run_flow(rhs, state0, t_max: float, rel_tol: float, abs_tol: float,
             stride: float, threshold: float, max_steps: int = 1_000_000):
    """Adaptive RK5(4) integration of ``state' = rhs(*state)`` with collapse stopping.

    ``rhs(x, y, zre, zim)`` returns (xdot, ydot, Re zdot, Im zdot).  Returns
    ``(status, t_est, samples, n_accept, n_reject, m_final)`` where
    ``samples`` is a float64 array with rows (t, x, y, zre, zim, xdot, ydot,
    zredot, zimdot) emitted at multiples of ``stride`` plus the terminal point.

    The state is (x, y, zr, zi) and stage s is (dxs, dys, drs, dis).  Each
    ``h * a_sj`` is computed once per step, which is exact: Python evaluates
    ``h * a * k`` as ``(h * a) * k``.
    """
    isfinite = math.isfinite
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54), (a60, a61, a62, a63, a64, a65) = _A[1:]
    e0, e1, e2, e3, e4, e5, e6 = _E
    x, y, zr, zi = (float(v) for v in state0)
    inv_scale = (1.0 / x, 1.0 / y, 1.0 / (x * y))

    rows: list[tuple] = []

    def emit(t, s):
        rows.append((t, *s, *rhs(*s)))

    def finish(status, t_est, n_acc, n_rej, m_final):
        return status, t_est, np.array(rows, dtype=float), n_acc, n_rej, m_final

    m0 = _monitor(x, y, zr, zi, inv_scale)
    emit(0.0, (x, y, zr, zi))
    next_sample = 1  # samples at k*stride, k >= 1; k = 0 already emitted
    if t_max <= 0.0:
        return finish(STATUS_REACHED_TMAX, None, 0, 0, m0)

    dx0, dy0, dr0, di0 = f0 = rhs(x, y, zr, zi)
    if not all(map(isfinite, f0)):
        return finish(STATUS_FAILURE, None, 0, 0, m0)

    h = _initial_step(rhs, (x, y, zr, zi), f0, t_max, rel_tol, abs_tol)
    t = 0.0
    err_prev = 1.0
    n_acc = n_rej = 0
    m_hist: list[float] = [m0]

    while t < t_max:
        h = min(h, t_max - t)
        # underflow floor is relative to the current time so that stiff
        # transients near t = 0 (e.g. nearly degenerate starts) can take
        # arbitrarily small first steps; max_steps guards against stalls
        if h < 1e-14 * abs(t) + 1e-200:
            # step-size underflow: extinction only when the positivity margin
            # is already tiny and has been shrinking, otherwise a failure
            m_last = m_hist[-1]
            decreasing = len(m_hist) >= 11 and all(
                m_hist[i] > m_hist[i + 1] for i in range(len(m_hist) - 11, len(m_hist) - 1))
            if m_last < 1e-6 and decreasing:
                emit(t, (x, y, zr, zi))
                return finish(STATUS_EXTINCT, t, n_acc, n_rej, m_last)
            return finish(STATUS_FAILURE, None, n_acc, n_rej, m_last)
        if n_acc + n_rej >= max_steps:
            return finish(STATUS_FAILURE, None, n_acc, n_rej, m_hist[-1])

        # six new stages (first-same-as-last: stage 0 holds rhs(state)); a step
        # with a non-finite stage is rejected before the next stage is evaluated
        h10 = h * a10
        dx1, dy1, dr1, di1 = rhs(x + h10 * dx0, y + h10 * dy0, zr + h10 * dr0, zi + h10 * di0)
        if not (isfinite(dx1) and isfinite(dy1) and isfinite(dr1) and isfinite(di1)):
            n_rej += 1
            h *= 0.25
            continue
        h20, h21 = h * a20, h * a21
        dx2, dy2, dr2, di2 = rhs(x + h20 * dx0 + h21 * dx1, y + h20 * dy0 + h21 * dy1,
                                 zr + h20 * dr0 + h21 * dr1, zi + h20 * di0 + h21 * di1)
        if not (isfinite(dx2) and isfinite(dy2) and isfinite(dr2) and isfinite(di2)):
            n_rej += 1
            h *= 0.25
            continue
        h30, h31, h32 = h * a30, h * a31, h * a32
        dx3, dy3, dr3, di3 = rhs(x + h30 * dx0 + h31 * dx1 + h32 * dx2,
                                 y + h30 * dy0 + h31 * dy1 + h32 * dy2,
                                 zr + h30 * dr0 + h31 * dr1 + h32 * dr2,
                                 zi + h30 * di0 + h31 * di1 + h32 * di2)
        if not (isfinite(dx3) and isfinite(dy3) and isfinite(dr3) and isfinite(di3)):
            n_rej += 1
            h *= 0.25
            continue
        h40, h41, h42, h43 = h * a40, h * a41, h * a42, h * a43
        dx4, dy4, dr4, di4 = rhs(x + h40 * dx0 + h41 * dx1 + h42 * dx2 + h43 * dx3,
                                 y + h40 * dy0 + h41 * dy1 + h42 * dy2 + h43 * dy3,
                                 zr + h40 * dr0 + h41 * dr1 + h42 * dr2 + h43 * dr3,
                                 zi + h40 * di0 + h41 * di1 + h42 * di2 + h43 * di3)
        if not (isfinite(dx4) and isfinite(dy4) and isfinite(dr4) and isfinite(di4)):
            n_rej += 1
            h *= 0.25
            continue
        h50, h51, h52, h53, h54 = h * a50, h * a51, h * a52, h * a53, h * a54
        dx5, dy5, dr5, di5 = rhs(x + h50 * dx0 + h51 * dx1 + h52 * dx2 + h53 * dx3 + h54 * dx4,
                                 y + h50 * dy0 + h51 * dy1 + h52 * dy2 + h53 * dy3 + h54 * dy4,
                                 zr + h50 * dr0 + h51 * dr1 + h52 * dr2 + h53 * dr3 + h54 * dr4,
                                 zi + h50 * di0 + h51 * di1 + h52 * di2 + h53 * di3 + h54 * di4)
        if not (isfinite(dx5) and isfinite(dy5) and isfinite(dr5) and isfinite(di5)):
            n_rej += 1
            h *= 0.25
            continue
        # the last stage's state is the 5th-order solution (FSAL); a61 is 0.0
        h60, h62, h63, h64, h65 = h * a60, h * a62, h * a63, h * a64, h * a65
        x1 = x + h60 * dx0 + h62 * dx2 + h63 * dx3 + h64 * dx4 + h65 * dx5
        y1 = y + h60 * dy0 + h62 * dy2 + h63 * dy3 + h64 * dy4 + h65 * dy5
        zr1 = zr + h60 * dr0 + h62 * dr2 + h63 * dr3 + h64 * dr4 + h65 * dr5
        zi1 = zi + h60 * di0 + h62 * di2 + h63 * di3 + h64 * di4 + h65 * di5
        dx6, dy6, dr6, di6 = rhs(x1, y1, zr1, zi1)
        if not (isfinite(dx6) and isfinite(dy6) and isfinite(dr6) and isfinite(di6)):
            n_rej += 1
            h *= 0.25
            continue

        # error norm: per component, the 0.0-started sum of E_s * stage s, times h
        ex = (0.0 + e0 * dx0 + e1 * dx1 + e2 * dx2 + e3 * dx3 + e4 * dx4 + e5 * dx5 + e6 * dx6) * h
        ey = (0.0 + e0 * dy0 + e1 * dy1 + e2 * dy2 + e3 * dy3 + e4 * dy4 + e5 * dy5 + e6 * dy6) * h
        er = (0.0 + e0 * dr0 + e1 * dr1 + e2 * dr2 + e3 * dr3 + e4 * dr4 + e5 * dr5 + e6 * dr6) * h
        ei = (0.0 + e0 * di0 + e1 * di1 + e2 * di2 + e3 * di3 + e4 * di4 + e5 * di5 + e6 * di6) * h
        err = math.sqrt((0.0 + (ex / (abs_tol + rel_tol * max(abs(x), abs(x1)))) ** 2
                         + (ey / (abs_tol + rel_tol * max(abs(y), abs(y1)))) ** 2
                         + (er / (abs_tol + rel_tol * max(abs(zr), abs(zr1)))) ** 2
                         + (ei / (abs_tol + rel_tol * max(abs(zi), abs(zi1)))) ** 2) / 4.0)
        if not isfinite(err):
            n_rej += 1
            h *= 0.25
            continue
        if err > 1.0:
            n_rej += 1
            h *= min(0.7, max(0.1, _SAFETY * err ** (-0.2)))
            continue

        # accepted
        n_acc += 1
        t1 = t + h
        m1 = _monitor(x1, y1, zr1, zi1, inv_scale)

        extinct = m1 < threshold
        t_end = t1
        t_cut = t_end + 1e-12 * max(1.0, t_end)  # stride samples up to here are due
        if extinct or next_sample * stride <= t_cut:
            state = (x, y, zr, zi)
            qmat = _dense_coefficients(h, (dx0, dx1, dx2, dx3, dx4, dx5, dx6),
                                       (dy0, dy1, dy2, dy3, dy4, dy5, dy6),
                                       (dr0, dr1, dr2, dr3, dr4, dr5, dr6),
                                       (di0, di1, di2, di3, di4, di5, di6))
        if extinct:
            # locate the crossing of the positivity floor inside this step
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if _monitor(*_dense_eval(state, qmat, mid), inv_scale) < threshold:
                    hi = mid
                else:
                    lo = mid
            theta_star = hi
            t_end = t + theta_star * h
            t_cut = t_end + 1e-12 * max(1.0, t_end)
            y_end = _dense_eval(state, qmat, theta_star)

        # emit stride samples covered by [t, t_end]
        while next_sample * stride <= t_cut:
            ts = next_sample * stride
            if ts > t_end:
                ts = t_end
            theta = (ts - t) / h
            emit(ts, _dense_eval(state, qmat, min(max(theta, 0.0), 1.0)))
            next_sample += 1

        if extinct:
            if not rows or rows[-1][0] < t_end - 1e-15:
                emit(t_end, y_end)
            return finish(STATUS_EXTINCT, t_end, n_acc, n_rej, _monitor(*y_end, inv_scale))

        m_hist.append(m1)
        if len(m_hist) > 12:
            del m_hist[0]
        t = t1
        x, y, zr, zi = x1, y1, zr1, zi1
        dx0, dy0, dr0, di0 = dx6, dy6, dr6, di6

        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        h *= factor
        err_prev = max(err, 1e-10)

    if not rows or rows[-1][0] < t_max - 1e-15:
        emit(t_max, (x, y, zr, zi))
    return finish(STATUS_REACHED_TMAX, None, n_acc, n_rej, m_hist[-1])


def run_closed_flow(geom: int, p1: float, p2: float, state0, t_max: float,
                    rel_tol: float, abs_tol: float, stride: float,
                    threshold: float, max_steps: int = 1_000_000):
    """Closed-form-kernel flow run (signature shared with the compiled core)."""
    kernel = _kernel(geom)

    def rhs(x, y, zre, zim):
        k11, k22, k12re, k12im = kernel(p1, p2, x, y, zre, zim)
        return -k11, -k22, -k12re, -k12im

    return run_flow(rhs, state0, t_max, rel_tol, abs_tol, stride, threshold, max_steps)


def _initial_step(rhs, y0, f0, t_max, rel_tol, abs_tol) -> float:
    scale = [abs_tol + rel_tol * abs(v) for v in y0]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_max)
    y1 = [y0[c] + h0 * f0[c] for c in range(4)]
    f1 = rhs(*y1)
    if all(map(math.isfinite, f1)):
        d2 = _rms([f1[c] - f0[c] for c in range(4)], scale) / h0
    else:
        d2 = d1
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_max)


def _rms(v, scale) -> float:
    """Root mean square of v / scale.

    Sums run left to right from 0.0, here and in ``_dense_eval``: ``sum()``
    compensates its rounding from Python 3.12 on, which neither older Pythons
    nor the C core do.
    """
    acc = 0.0
    for c in range(4):
        acc += (v[c] / scale[c]) ** 2
    return math.sqrt(acc / 4.0)


def _dense_coefficients(h, *components):
    """Per-step interpolation coefficients: for each state component's seven
    stages, one 0.0-started sum per power of the step fraction, times h."""
    return [((0.0 + k0 * _P00 + k1 * _P10 + k2 * _P20 + k3 * _P30 + k4 * _P40 + k5 * _P50
              + k6 * _P60) * h,
             (0.0 + k0 * _P01 + k1 * _P11 + k2 * _P21 + k3 * _P31 + k4 * _P41 + k5 * _P51
              + k6 * _P61) * h,
             (0.0 + k0 * _P02 + k1 * _P12 + k2 * _P22 + k3 * _P32 + k4 * _P42 + k5 * _P52
              + k6 * _P62) * h,
             (0.0 + k0 * _P03 + k1 * _P13 + k2 * _P23 + k3 * _P33 + k4 * _P43 + k5 * _P53
              + k6 * _P63) * h)
            for k0, k1, k2, k3, k4, k5, k6 in components]


def _dense_eval(y0, qmat, theta):
    th = theta
    th2, th3, th4 = th * th, th ** 3, th ** 4
    (x, y, zr, zi), (qx, qy, qr, qi) = y0, qmat
    return [x + (0.0 + qx[0] * th + qx[1] * th2 + qx[2] * th3 + qx[3] * th4),
            y + (0.0 + qy[0] * th + qy[1] * th2 + qy[2] * th3 + qy[3] * th4),
            zr + (0.0 + qr[0] * th + qr[1] * th2 + qr[2] * th3 + qr[3] * th4),
            zi + (0.0 + qi[0] * th + qi[1] * th2 + qi[2] * th3 + qi[3] * th4)]
