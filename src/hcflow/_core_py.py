"""Pure-Python integrator core: closed-form flow tensors and the RK5(4) loop.

This is the reference lane.  ``_core_c.c`` mirrors ``run_closed_flow``
operation for operation and must give the same bits, so change the arithmetic
here only together with the C, and keep every sum an explicit left-to-right
one.  ``hcflow.core`` picks the C loop when it is built.

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

STATUS_REACHED_TMAX = 0
STATUS_EXTINCT = 1
STATUS_FAILURE = 2

_SAFETY = 0.9
_ALPHA = 0.17  # error exponent of the PI controller
_BETA = 0.04  # memory exponent of the PI controller
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


def closed_k(geom: int, p1: float, p2: float, x: float, y: float,
             zre: float, zim: float) -> tuple[float, float, float, float]:
    """Closed-form flow tensor (K11, K22, Re K12, Im K12) for one geometry."""
    u = zre * zre + zim * zim
    d = x * y - u
    d2 = d * d
    if geom == 0:  # torus
        return 0.0, 0.0, 0.0, 0.0
    if geom == 1:  # hyperelliptic
        k11 = x * x * u / d2
        k22 = u * u / d2
        w = x * x * y / d2
        return k11, k22, w * zre, w * zim
    if geom == 2:  # hopf
        c = 1.0 + p1 * p1
        k11 = (c * x**4 + u * (2 * x * x + u)) / d2
        k22 = (c * x * x * u + 2 * d2 + u * (y * y + 2 * u) - 2 * c * x * x * d) / d2
        w = x * (p1 * p1 * x * x + (x + y) ** 2) / d2
        return k11, k22, w * zre, w * zim
    if geom == 3:  # properly elliptic
        c = 1.0 + p1 * p1
        k11 = (c * y * y * u - 2 * d2 + u * (x * x - 2 * u) - 2 * c * y * y * d) / d2
        k22 = (p1 * p1 * y**4 + (y * y - u) ** 2) / d2
        w = y * (p1 * p1 * y * y + (x - y) ** 2) / d2
        return k11, k22, w * zre, w * zim
    if geom == 4:  # primary Kodaira
        k11 = (y * y * u - 2 * y * y * d) / d2
        k22 = y**4 / d2
        w = y**3 / d2
        return k11, k22, w * zre, w * zim
    if geom == 5:  # secondary Kodaira (tensor independent of epsilon)
        k11 = (u * (x * x + y * y) - 2 * y * y * d) / d2
        k22 = (y**4 + u * u) / d2
        w = y * (x * x + y * y) / d2
        return k11, k22, w * zre, w * zim
    if geom == 6:  # Inoue S0
        a, b = p1, p2
        bb = b * b + 9 * a * a
        k11 = x * x * u * bb / d2
        k22 = ((a * a + b * b) * u * u + 16 * a * a * x * y * u
               - 8 * a * a * x * x * y * y) / d2
        w = x * x * y * bb / d2
        return k11, k22, w * zre, w * zim
    if geom == 7:  # Inoue S+- (first complex structure)
        q2 = zim * zim
        k11 = -3.0 + 4 * u * q2 / d2
        k22 = 4 * y * y * q2 / d2
        k12re = 4 * y * zre * q2 / d2
        k12im = 4 * y * zim * (x * y - zre * zre) / d2
        return k11, k22, k12re, k12im
    if geom == 8:  # Inoue S+ (second complex structure)
        q2 = zim * zim
        k11 = -3.0 + (4 * u * q2 - 2 * y * y * d + y * y * u) / d2
        k22 = y * y * (4 * q2 + y * y) / d2
        k12re = (4 * y * zre * q2 + y**3 * zre) / d2
        k12im = (4 * y * zim * (x * y - zre * zre) + y**3 * zim) / d2
        return k11, k22, k12re, k12im
    raise ValueError(f"unknown geometry id {geom}")


def closed_rhs(geom: int, p1: float, p2: float, state) -> tuple[float, float, float, float]:
    """Flow right-hand side (xdot, ydot, Re zdot, Im zdot) at one state."""
    k11, k22, k12re, k12im = closed_k(geom, p1, p2, state[0], state[1], state[2], state[3])
    return -k11, -k22, -k12re, -k12im


def _monitor(state, inv_scale: float) -> float:
    """Positivity margin of a state, normalized by the initial metric scale.

    Minimum of x, y and the determinant, each divided by the matching power of
    the initial scale; extinction is declared when this drops below the
    configured floor.
    """
    x, y, zre, zim = state[0], state[1], state[2], state[3]
    d = x * y - (zre * zre + zim * zim)
    mx = x * inv_scale[0]
    my = y * inv_scale[1]
    md = d * inv_scale[2]
    return min(mx, my, md)


def run_flow(rhs, state0, t_max: float, rel_tol: float, abs_tol: float,
             stride: float, threshold: float, max_steps: int = 1_000_000):
    """Adaptive RK5(4) integration of ``state' = rhs(state)`` with collapse stopping.

    Returns ``(status, t_est, samples, n_accept, n_reject, m_final)`` where
    ``samples`` is a float64 array with rows (t, x, y, zre, zim, xdot, ydot,
    zredot, zimdot) emitted at multiples of ``stride`` plus the terminal point.
    """
    y0 = [float(v) for v in state0]
    sx, sy = y0[0], y0[1]
    inv_scale = (1.0 / sx, 1.0 / sy, 1.0 / (sx * sy))

    rows: list[tuple] = []

    def emit(t, s):
        dx, dy, dzr, dzi = rhs(s)
        rows.append((t, s[0], s[1], s[2], s[3], dx, dy, dzr, dzi))

    def finish(status, t_est, n_acc, n_rej, m_final):
        return status, t_est, np.array(rows, dtype=float), n_acc, n_rej, m_final

    m0 = _monitor(y0, inv_scale)
    emit(0.0, y0)
    next_sample = 1  # samples at k*stride, k >= 1; k = 0 already emitted
    if t_max <= 0.0:
        return finish(STATUS_REACHED_TMAX, None, 0, 0, m0)

    f0 = list(rhs(y0))
    if not all(map(math.isfinite, f0)):
        return finish(STATUS_FAILURE, None, 0, 0, m0)

    h = _initial_step(rhs, y0, f0, t_max, rel_tol, abs_tol)
    t = 0.0
    err_prev = 1.0
    n_acc = n_rej = 0
    m_hist: list[float] = [m0]
    k = [[0.0] * 4 for _ in range(7)]
    k[0] = f0

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
                emit(t, y0)
                return finish(STATUS_EXTINCT, t, n_acc, n_rej, m_last)
            return finish(STATUS_FAILURE, None, n_acc, n_rej, m_last)
        if n_acc + n_rej >= max_steps:
            return finish(STATUS_FAILURE, None, n_acc, n_rej, m_hist[-1])

        # seven stages (first-same-as-last: k[0] holds rhs(y0))
        bad = False
        for s in range(1, 7):
            ys = list(y0)
            a_row = _A[s]
            for j in range(s):
                aj = a_row[j]
                if aj != 0.0:
                    kj = k[j]
                    for c in range(4):
                        ys[c] += h * aj * kj[c]
            fs = rhs(ys)
            if not all(map(math.isfinite, fs)):
                bad = True
                break
            k[s] = list(fs)
        if not bad:
            y1 = ys  # stage 7 state: the 5th-order solution (FSAL)
            err = 0.0
            for c in range(4):
                e = 0.0
                for s in range(7):
                    e += _E[s] * k[s][c]
                e *= h
                scale = abs_tol + rel_tol * max(abs(y0[c]), abs(y1[c]))
                err += (e / scale) ** 2
            err = math.sqrt(err / 4.0)
        if bad or not math.isfinite(err):
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
        m1 = _monitor(y1, inv_scale)

        extinct = m1 < threshold
        t_end = t1
        if extinct:
            # locate the crossing of the positivity floor inside this step
            qmat = _dense_coefficients(k, h)
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if _monitor(_dense_eval(y0, qmat, mid), inv_scale) < threshold:
                    hi = mid
                else:
                    lo = mid
            theta_star = hi
            t_end = t + theta_star * h
            y_end = _dense_eval(y0, qmat, theta_star)
        else:
            qmat = None

        # emit stride samples covered by [t, t_end]
        while next_sample * stride <= t_end + 1e-12 * max(1.0, t_end):
            ts = next_sample * stride
            if ts > t_end:
                ts = t_end
            theta = (ts - t) / h
            if qmat is None:
                qmat = _dense_coefficients(k, h)
            emit(ts, _dense_eval(y0, qmat, min(max(theta, 0.0), 1.0)))
            next_sample += 1

        if extinct:
            if not rows or rows[-1][0] < t_end - 1e-15:
                emit(t_end, y_end)
            return finish(STATUS_EXTINCT, t_end, n_acc, n_rej,
                          _monitor(y_end, inv_scale))

        m_hist.append(m1)
        if len(m_hist) > 12:
            del m_hist[0]
        t = t1
        y0 = list(y1)
        k[0] = list(k[6])

        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        h *= factor
        err_prev = max(err, 1e-10)

    if not rows or rows[-1][0] < t_max - 1e-15:
        emit(t_max, y0)
    return finish(STATUS_REACHED_TMAX, None, n_acc, n_rej, m_hist[-1])


def run_closed_flow(geom: int, p1: float, p2: float, state0, t_max: float,
                    rel_tol: float, abs_tol: float, stride: float,
                    threshold: float, max_steps: int = 1_000_000):
    """Closed-form-kernel flow run (signature shared with the compiled core)."""
    def rhs(s):
        return closed_rhs(geom, p1, p2, s)

    return run_flow(rhs, state0, t_max, rel_tol, abs_tol, stride, threshold, max_steps)


def _initial_step(rhs, y0, f0, t_max, rel_tol, abs_tol) -> float:
    scale = [abs_tol + rel_tol * abs(v) for v in y0]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_max)
    y1 = [y0[c] + h0 * f0[c] for c in range(4)]
    f1 = rhs(y1)
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


def _dense_coefficients(k, h):
    """Per-step interpolation coefficients: state c, powers of the step fraction."""
    q = [[0.0] * 4 for _ in range(4)]
    for c in range(4):
        for j in range(4):
            acc = 0.0
            for s in range(7):
                acc += k[s][c] * _P[s][j]
            q[c][j] = acc * h
    return q


def _dense_eval(y0, qmat, theta):
    th = theta
    th2, th3, th4 = th * th, th ** 3, th ** 4
    return [y0[c] + (0.0 + q[0] * th + q[1] * th2 + q[2] * th3 + q[3] * th4)
            for c, q in enumerate(qmat)]
