"""Pure-Python integrator core: closed-form flow tensors and the RK5(4) loop.

This is the reference lane.  Both lanes start a run with ``start``, and
``_core_c.c`` runs the step loop ``_integrate`` and must give the same bits.
``_core_gen`` generates its arithmetic from this module at each build: the
kernels, the tableau ``_A`` and ``_E``, the loop's constants, and the
functions of the step's arithmetic (``_error_norm`` with ``_weight``, the
step factors, ``_step_floor``, ``_sample_cut``, the monitor and the dense
output).  A change to any of these is one edit here, which builds a new
library at the next import.  The C loop keeps by hand only the control flow,
the stage sums and the row emission; change those only together with it, and
keep every sum an explicit left-to-right one.  ``hcflow.core`` picks the C
loop when it is built.

Each geometry's closed form is one function of ``_PHI``, (p1, p2, x, y, u =
|z|^2, theta = arg z) -> (K11, K22, Re phi, Im phi), phi = K12 / z; the seven
entries whose K12 is w * z ignore theta and give Im phi = 0.0, and ``_times_z``
makes each a Cartesian kernel of ``_KERNELS``, where Inoue S+- J1 and J2 have
their own, sharing K11 and K22.  ``run_closed_flow`` integrates (x, y, L,
theta), L = log |z|^2, by the phi kernel: an exponentially decaying z, which in
(x, y, Re z, Im z) sits at ``abs_tol`` noise where stability caps the step,
is a linearly decaying L.  z0 = 0 starts at L = -inf, theta = 0, and IEEE
arithmetic keeps it there exactly: exp(-inf) = 0, -inf + finite = -inf, and
the error norm's L term is finite / inf = 0, the term of z = 0 in (x, y,
Re z, Im z).  The one rule this adds: ``_rms`` skips a component whose scale
is infinite.  exp, cos and sin are math's, libm's bits as in C; where math
raises (exp overflows, cos or sin of an infinity) the lanes take C's inf or
NaN.  The RK5(4) loop keeps the state and the seven stages in scalar locals
and writes the stage sums and error estimates out term by term.  That
removes interpreter overhead, not arithmetic: the operations and their order
are those of a loop over the tableau's nonzero weights, with the ``0.0 +``
starts (a torus stage is -0.0, and ``0.0 + -0.0`` is 0.0) kept.  A zero-weight term adds +-0.0 to a 0.0-started sum of finite values,
which changes no bit, so neither lane has one.

The loop only records the steps that cover stride samples.  After it,
``_rows`` evaluates all samples in one array pass with the same per-sample
operations in the same order: the dense-output coefficients, the
interpolant, and the derivatives, for which the kernel runs once on float64
arrays whose ``**`` is ``np.float_power`` (libm ``pow``, as Python's float
``**``); each log-polar sample becomes Cartesian first (``_to_cartesian``),
by math's exp, cos and sin per element.  The C loop still emits each sample
inside its step; the bits are equal.  Where a value is non-finite, ``_rows``
rebuilds the rows one sample at a time with the scalar code, which raises
where that code raises.

Geometry ids (shared with the compiled core):
0 torus, 1 hyperelliptic, 2 hopf, 3 properly-elliptic, 4 kodaira-primary,
5 kodaira-secondary, 6 inoue-s0, 7 inoue-spm-j1, 8 inoue-sp-j2.
Parameter packing: p1 = lam (hopf, properly-elliptic), p1 = epsilon
(kodaira-secondary, unused by the tensor), (p1, p2) = (a, b) (inoue-s0).
"""
from __future__ import annotations

import math
from math import cos, exp, inf, nan, sin, sqrt

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
_P_ROWS = np.array(_P)  # the same coefficients, one row per stage, for the array pass

#: log of float64's smallest normal number: a log-polar state with L below it
#: is emitted with z = 0, since u = exp(L) has no normal float64 value
_L_MIN = -708.3964185322641

STATUS_REACHED_TMAX = 0
STATUS_EXTINCT = 1
STATUS_FAILURE = 2

#: Attempted steps after which a run stops as a failure (a stall guard).
MAX_STEPS = 1_000_000

_SAFETY = 0.9
_ALPHA = 0.17  # error exponent of the PI controller
_BETA = 0.04  # memory exponent of the PI controller
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_NONFINITE_FACTOR = 0.25  # the step factor after a non-finite stage, new state or error norm
_EXTINCT_MARGIN = 1e-6  # a step-size underflow is extinction below this monitor, after
_EXTINCT_DECREASES = 10  # this many strict decreases of the monitor into it
_ERR_FLOOR = 1e-10  # the least err_prev, the controller's memory
_TAIL_TOL = 1e-15  # the final row is added unless the last sample lies within this of it
_BISECTIONS = 60  # halvings of a step that locate the monitor's crossing


# The phi kernels (see the module docstring; phi = K12 / z holds at u = 0 too)

def _torus(p1, p2, x, y, u, theta):
    return 0.0, 0.0, 0.0, 0.0


def _hyperelliptic(p1, p2, x, y, u, theta):
    d = x * y - u
    d2 = d * d
    k11 = x * x * u / d2
    k22 = u * u / d2
    w = x * x * y / d2
    return k11, k22, w, 0.0


def _hopf(p1, p2, x, y, u, theta):
    d = x * y - u
    d2 = d * d
    c = 1.0 + p1 * p1
    k11 = (c * x**4 + u * (2 * x * x + u)) / d2
    k22 = (c * x * x * u + 2 * d2 + u * (y * y + 2 * u) - 2 * c * x * x * d) / d2
    w = x * (p1 * p1 * x * x + (x + y) ** 2) / d2
    return k11, k22, w, 0.0


def _properly_elliptic(p1, p2, x, y, u, theta):
    d = x * y - u
    d2 = d * d
    c = 1.0 + p1 * p1
    k11 = (c * y * y * u - 2 * d2 + u * (x * x - 2 * u) - 2 * c * y * y * d) / d2
    k22 = (p1 * p1 * y**4 + (y * y - u) ** 2) / d2
    w = y * (p1 * p1 * y * y + (x - y) ** 2) / d2
    return k11, k22, w, 0.0


def _kodaira_primary(p1, p2, x, y, u, theta):
    d = x * y - u
    d2 = d * d
    k11 = (y * y * u - 2 * y * y * d) / d2
    k22 = y**4 / d2
    w = y**3 / d2
    return k11, k22, w, 0.0


def _kodaira_secondary(p1, p2, x, y, u, theta):  # the tensor is independent of epsilon
    d = x * y - u
    d2 = d * d
    k11 = (u * (x * x + y * y) - 2 * y * y * d) / d2
    k22 = (y**4 + u * u) / d2
    w = y * (x * x + y * y) / d2
    return k11, k22, w, 0.0


def _inoue_s0(a, b, x, y, u, theta):
    d = x * y - u
    d2 = d * d
    bb = b * b + 9 * a * a
    k11 = x * x * u * bb / d2
    k22 = ((a * a + b * b) * u * u + 16 * a * a * x * y * u
           - 8 * a * a * x * x * y * y) / d2
    w = x * x * y * bb / d2
    return k11, k22, w, 0.0


def _times_z(kernel):
    """The Cartesian kernel of a kernel whose K12 is w * z."""
    def cartesian(p1, p2, x, y, zre, zim):
        k11, k22, w, _ = kernel(p1, p2, x, y, zre * zre + zim * zim, 0.0)
        return k11, k22, w * zre, w * zim
    return cartesian


# Inoue S+- J1 and S+ J2: K12 is not w * z, and K11, K22 and phi depend on arg z.
# K11 and K22 are stated once, from q2 = (Im z)^2 and d2 = D^2, for the phi kernel
# (q2 = u sin^2 theta) and the Cartesian one (q2 = zim * zim); K12 stays two
# expressions, as phi * z rounds otherwise (tests/test_core.py proves them equal).

def _spm_j1_diagonal(y, u, q2, d2):
    return -3.0 + 4 * u * q2 / d2, 4 * y * y * q2 / d2


def _sp_j2_diagonal(y, u, d, q2, d2):
    return -3.0 + (4 * u * q2 - 2 * y * y * d + y * y * u) / d2, y * y * (4 * q2 + y * y) / d2


def _inoue_spm_j1(p1, p2, x, y, u, theta):  # Inoue S+- (first complex structure)
    s, c = _libm(sin, theta), _libm(cos, theta)
    d = x * y - u
    d2 = d * d
    s2 = s * s
    k11, k22 = _spm_j1_diagonal(y, u, u * s2, d2)
    return k11, k22, 4 * y * (x * y * s2) / d2, 4 * y * (s * c * d) / d2


def _inoue_spm_j1_cartesian(p1, p2, x, y, zre, zim):
    u = zre * zre + zim * zim
    d = x * y - u
    d2 = d * d
    q2 = zim * zim
    k11, k22 = _spm_j1_diagonal(y, u, q2, d2)
    return k11, k22, 4 * y * zre * q2 / d2, 4 * y * zim * (x * y - zre * zre) / d2


def _inoue_sp_j2(p1, p2, x, y, u, theta):  # Inoue S+ (second complex structure)
    s, c = _libm(sin, theta), _libm(cos, theta)
    d = x * y - u
    d2 = d * d
    s2 = s * s
    k11, k22 = _sp_j2_diagonal(y, u, d, u * s2, d2)
    return k11, k22, (4 * y * (x * y * s2) + y**3) / d2, 4 * y * (s * c * d) / d2


def _inoue_sp_j2_cartesian(p1, p2, x, y, zre, zim):
    u = zre * zre + zim * zim
    d = x * y - u
    d2 = d * d
    q2 = zim * zim
    k11, k22 = _sp_j2_diagonal(y, u, d, q2, d2)
    return (k11, k22, (4 * y * zre * q2 + y**3 * zre) / d2,
            (4 * y * zim * (x * y - zre * zre) + y**3 * zim) / d2)


#: the phi form of each geometry id: (p1, p2, x, y, u, theta) -> (K11, K22, Re phi, Im phi)
_PHI = {0: _torus, 1: _hyperelliptic, 2: _hopf, 3: _properly_elliptic, 4: _kodaira_primary,
        5: _kodaira_secondary, 6: _inoue_s0, 7: _inoue_spm_j1, 8: _inoue_sp_j2}
#: the Cartesian form: (p1, p2, x, y, zre, zim) -> (K11, K22, Re K12, Im K12); the
#: torus keeps its +0.0 K12, which w * z would sign
_KERNELS = {0: lambda p1, p2, x, y, zre, zim: (0.0, 0.0, 0.0, 0.0),
            **{geom: _times_z(_PHI[geom]) for geom in range(1, 7)},
            7: _inoue_spm_j1_cartesian, 8: _inoue_sp_j2_cartesian}


def _kernel(geom: int, table=_KERNELS):
    """Geometry id ``geom``'s kernel in ``_KERNELS`` or ``_PHI``; ValueError if unknown."""
    try:
        return table[geom]
    except KeyError:
        raise ValueError(f"unknown geometry id {geom}") from None


def closed_k(geom: int, p1: float, p2: float, x: float, y: float,
             zre: float, zim: float) -> tuple[float, float, float, float]:
    """Closed-form flow tensor (K11, K22, Re K12, Im K12) for one geometry."""
    return _kernel(geom)(p1, p2, x, y, zre, zim)


def closed_k_columns(geom: int, p1: float, p2: float, x, y, zre, zim):
    """``closed_k`` on float64 arrays: the kernel runs once on ``_Floats``
    columns, so each element has the bits of the scalar call where the scalar
    call returns; where it would raise, the element is inf or NaN."""
    columns = (np.asarray(c, dtype=float).view(_Floats) for c in (x, y, zre, zim))
    with np.errstate(all="ignore"):
        return _kernel(geom)(p1, p2, *columns)


def _libm(fn, v):
    """``fn(v)`` for math's exp, cos or sin, with C's libm result where math
    raises: inf where exp overflows, NaN (as ``v - v``) at an infinite v."""
    try:
        return fn(v)
    except OverflowError:
        return inf
    except ValueError:
        return v - v


def _to_cartesian(x, y, L, theta):
    """The state (x, y, Re z, Im z) of a log-polar state: z = exp(L / 2) (cos theta,
    sin theta), and z = 0 where u = exp(L) is below float64's normal range."""
    if L < _L_MIN:
        return x, y, 0.0, 0.0
    r = _libm(exp, 0.5 * L)
    return x, y, r * _libm(cos, theta), r * _libm(sin, theta)


def log_polar(zre: float, zim: float) -> tuple[float, float]:
    """(L, theta) = (log |z|^2, arg z), and (-inf, 0.0) at z = 0 of either
    zero sign (``atan2`` gives pi for -0.0).  ``hypot`` scales, so a z whose
    square underflows still gets a finite L.  Both lanes start from it."""
    r = math.hypot(zre, zim)
    if r == 0.0:
        return -inf, 0.0
    return 2.0 * math.log(r), math.atan2(zim, zre)


def run_flow(rhs, polar_rhs, state0, t_max: float, rel_tol: float, abs_tol: float,
             stride: float, threshold: float, max_steps: int = MAX_STEPS):
    """Adaptive RK5(4) integration of the log-polar state (x, y, L, theta),
    L = log |z|^2 and theta = arg z, by ``polar_rhs(x, y, L, theta)``, from
    ``log_polar`` of z0 (L = -inf at z0 = 0), with collapse stopping.

    Returns ``(status, t_est, samples, n_accept, n_reject, m_final)`` where
    ``samples`` is a float64 array with rows (t, x, y, zre, zim, xdot, ydot,
    zredot, zimdot) emitted at multiples of ``stride`` plus the terminal
    point: the Cartesian state (row 0 the exact ``state0``) and ``rhs(x, y,
    zre, zim)`` = (xdot, ydot, Re zdot, Im zdot) there.  ``rhs`` takes floats
    and ``_Floats`` columns alike, as the closed-form kernels do.

    The run starts with ``start``, as the C lane's does.  The loop only
    records the accepted steps that cover stride samples; ``_rows`` evaluates
    all samples after it (see there).  If the loop raises, the recorded
    samples are evaluated first, so that a sample's exception comes first, as
    it would if each sample were emitted inside its step.
    """
    state = tuple(float(v) for v in state0)
    # row 0's derivatives are evaluated again by _rows, with the samples'
    status, _, begin = start(rhs, polar_rhs, state, t_max, rel_tol, abs_tol)
    if status is not None:
        return status, None, _rows(rhs, state, [], stride, None), 0, 0, begin[-1]

    def row_defined(s) -> bool:
        """Whether the output row of the loop state ``s`` can be made: ``rhs``
        at its Cartesian state does not raise (a closed form divides by D^2)."""
        try:
            rhs(*_to_cartesian(*s))
        except (ZeroDivisionError, OverflowError):
            return False
        return True

    records: list[tuple] = []
    try:
        status, t_est, tail, n_acc, n_rej, m_final = _integrate(
            polar_rhs, begin, t_max, rel_tol, abs_tol, stride, threshold, max_steps, records,
            row_defined)
    except Exception:
        _rows(rhs, state, records, stride, None)
        raise
    rows = _rows(rhs, state, records, stride, tail)
    return status, t_est, rows, n_acc, n_rej, m_final


def start(rhs, polar_rhs, state0, t_max: float, rel_tol: float, abs_tol: float):
    """The start of a run from the Cartesian ``state0``, for both lanes.

    In the order in which a run raises: the monitor's scale (1 / x0, 1 / y0,
    1 / (x0 y0)), row 0's derivatives ``rhs(*state0)``, the log-polar state
    (``log_polar``) and its monitor m0, and, unless t_max <= 0, the first
    velocity ``polar_rhs`` f0 and, where f0 is finite, the initial step h.

    Returns ``(status, derivatives0, begin)``, where ``begin`` is the vector
    (x, y, L, theta, f0 (4), h, inv_scale (3), m0) that the loop starts from
    (``run_flow`` in Python, ``core.bind`` in C).  ``status`` is None where
    the loop runs; else the run ends at row 0, with m0 its final monitor:
    ``STATUS_REACHED_TMAX`` at t_max <= 0 and ``STATUS_FAILURE`` at a
    non-finite f0.  f0 and h are NaN where they are not evaluated.
    """
    x, y, zr, zi = state0
    xy = x * y  # where it underflows to 0, the scale of D is (1 / x) * (1 / y)
    inv_scale = (1.0 / x, 1.0 / y, 1.0 / xy if xy != 0.0 else (1.0 / x) * (1.0 / y))
    derivatives0 = rhs(x, y, zr, zi)
    polar0 = (x, y, *log_polar(zr, zi))
    m0 = _polar_monitor(polar0, inv_scale)
    f0, h, status = (nan,) * 4, nan, STATUS_REACHED_TMAX
    if t_max > 0.0:
        f0, status = polar_rhs(*polar0), STATUS_FAILURE
        if all(map(math.isfinite, f0)):
            h, status = _initial_step(polar_rhs, polar0, f0, t_max, rel_tol, abs_tol), None
    return status, derivatives0, (*polar0, *f0, h, *inv_scale, m0)


def _integrate(rhs, begin, t_max, rel_tol, abs_tol, stride, threshold, max_steps, records,
               row_defined):
    """The RK5(4) loop of ``run_flow`` from ``start``'s vector ``begin``;
    returns ``(status, t_est, tail, n_acc, n_rej, m_final)``.

    Each accepted step that covers stride samples appends to ``records`` one
    tuple: ``(t, h, t_end, k1, x, y, zr, zi)`` and its 28 stage values, the
    seven of each component in turn; it covers the samples up to ``k1 - 1``,
    from where the step before it stopped.  ``tail`` is None or the
    ``(t, x, y, zr, zi)`` of the final row.

    The state (x, y, zr, zi) holds the log-polar (x, y, L, theta), and stage
    s is (dxs, dys, drs, dis).  ``monitor`` is the positivity margin of a
    state (``_polar_monitor``).  A step that would pass t_max is clipped to
    end there, and only a step that is not clipped is tested against the
    step-size floor.  Only the step that ends the run (at t_max or at the
    monitor's crossing) takes the samples up to the emission tolerance past
    its end, stamped with its end; every other sample carries its grid time
    k * stride.  A run that stops at the crossing ends on the bisection's
    last point, unless ``row_defined`` says its output row cannot be made
    there (a threshold below what the state resolves can bisect onto D = 0):
    then on the last point visited before whose row can be, if one exists.
    Each ``h * a_sj`` is computed once per step, which is exact: Python
    evaluates ``h * a * k`` as ``(h * a) * k``.  Every attempted step
    evaluates its six new stages, so ``rhs`` is called ``2 + 6 * (n_acc +
    n_rej)`` times, counting the two of ``start``.
    """
    isfinite, monitor = math.isfinite, _polar_monitor
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54), (a60, _, a62, a63, a64, a65) = _A[1:]
    e0, _, e2, e3, e4, e5, e6 = _E  # a61 and e1 are 0.0
    x, y, zr, zi, dx0, dy0, dr0, di0, h, *inv_scale, m_last = begin

    n_dec = 0  # how many monitors in a row strictly decrease into m_last
    next_sample = 1  # samples at k*stride, k >= 1; k = 0 is row 0
    t_last = 0.0  # time of the last recorded row, row 0 at first
    t = 0.0
    err_prev = 1.0
    n_acc = n_rej = 0

    while t < t_max:
        if t_max - t <= h:  # the step to t_max, which is never an underflow
            h = t_max - t
        elif h < _step_floor(t):
            # step-size underflow: extinction only when the positivity margin
            # is already tiny and the last 11 monitors strictly decrease,
            # otherwise a failure (max_steps guards against stalls)
            if m_last < _EXTINCT_MARGIN and n_dec >= _EXTINCT_DECREASES:
                return STATUS_EXTINCT, t, (t, x, y, zr, zi), n_acc, n_rej, m_last
            return STATUS_FAILURE, None, None, n_acc, n_rej, m_last
        if n_acc + n_rej >= max_steps:
            return STATUS_FAILURE, None, None, n_acc, n_rej, m_last

        # six new stages (first-same-as-last: stage 0 holds rhs(state))
        h10 = h * a10
        dx1, dy1, dr1, di1 = rhs(x + h10 * dx0, y + h10 * dy0, zr + h10 * dr0, zi + h10 * di0)
        h20, h21 = h * a20, h * a21
        dx2, dy2, dr2, di2 = rhs(x + h20 * dx0 + h21 * dx1, y + h20 * dy0 + h21 * dy1,
                                 zr + h20 * dr0 + h21 * dr1, zi + h20 * di0 + h21 * di1)
        h30, h31, h32 = h * a30, h * a31, h * a32
        dx3, dy3, dr3, di3 = rhs(x + h30 * dx0 + h31 * dx1 + h32 * dx2,
                                 y + h30 * dy0 + h31 * dy1 + h32 * dy2,
                                 zr + h30 * dr0 + h31 * dr1 + h32 * dr2,
                                 zi + h30 * di0 + h31 * di1 + h32 * di2)
        h40, h41, h42, h43 = h * a40, h * a41, h * a42, h * a43
        dx4, dy4, dr4, di4 = rhs(x + h40 * dx0 + h41 * dx1 + h42 * dx2 + h43 * dx3,
                                 y + h40 * dy0 + h41 * dy1 + h42 * dy2 + h43 * dy3,
                                 zr + h40 * dr0 + h41 * dr1 + h42 * dr2 + h43 * dr3,
                                 zi + h40 * di0 + h41 * di1 + h42 * di2 + h43 * di3)
        h50, h51, h52, h53, h54 = h * a50, h * a51, h * a52, h * a53, h * a54
        dx5, dy5, dr5, di5 = rhs(x + h50 * dx0 + h51 * dx1 + h52 * dx2 + h53 * dx3 + h54 * dx4,
                                 y + h50 * dy0 + h51 * dy1 + h52 * dy2 + h53 * dy3 + h54 * dy4,
                                 zr + h50 * dr0 + h51 * dr1 + h52 * dr2 + h53 * dr3 + h54 * dr4,
                                 zi + h50 * di0 + h51 * di1 + h52 * di2 + h53 * di3 + h54 * di4)
        # the last stage's state is the 5th-order solution (FSAL)
        h60, h62, h63, h64, h65 = h * a60, h * a62, h * a63, h * a64, h * a65
        x1 = x + h60 * dx0 + h62 * dx2 + h63 * dx3 + h64 * dx4 + h65 * dx5
        y1 = y + h60 * dy0 + h62 * dy2 + h63 * dy3 + h64 * dy4 + h65 * dy5
        zr1 = zr + h60 * dr0 + h62 * dr2 + h63 * dr3 + h64 * dr4 + h65 * dr5
        zi1 = zi + h60 * di0 + h62 * di2 + h63 * di3 + h64 * di4 + h65 * di5
        dx6, dy6, dr6, di6 = rhs(x1, y1, zr1, zi1)
        # a step with a non-finite stage or new state is rejected; only L = -inf (z = 0) may
        # stay infinite, where its weight is infinite and its error term 0
        if not (isfinite(dx1) and isfinite(dy1) and isfinite(dr1) and isfinite(di1)
                and isfinite(dx2) and isfinite(dy2) and isfinite(dr2) and isfinite(di2)
                and isfinite(dx3) and isfinite(dy3) and isfinite(dr3) and isfinite(di3)
                and isfinite(dx4) and isfinite(dy4) and isfinite(dr4) and isfinite(di4)
                and isfinite(dx5) and isfinite(dy5) and isfinite(dr5) and isfinite(di5)
                and isfinite(dx6) and isfinite(dy6) and isfinite(dr6) and isfinite(di6)
                and isfinite(x1) and isfinite(y1) and (isfinite(zr1) or zr1 == zr)
                and isfinite(zi1)):
            n_rej += 1
            h *= _NONFINITE_FACTOR
            continue

        # per component, the 0.0-started sum of E_s * stage s, times h
        ex = (0.0 + e0 * dx0 + e2 * dx2 + e3 * dx3 + e4 * dx4 + e5 * dx5 + e6 * dx6) * h
        ey = (0.0 + e0 * dy0 + e2 * dy2 + e3 * dy3 + e4 * dy4 + e5 * dy5 + e6 * dy6) * h
        er = (0.0 + e0 * dr0 + e2 * dr2 + e3 * dr3 + e4 * dr4 + e5 * dr5 + e6 * dr6) * h
        ei = (0.0 + e0 * di0 + e2 * di2 + e3 * di3 + e4 * di4 + e5 * di5 + e6 * di6) * h
        state1 = (x1, y1, zr1, zi1)
        err = _error_norm((ex, ey, er, ei), (x, y, zr, zi), state1, rel_tol, abs_tol)
        if not isfinite(err):
            n_rej += 1
            h *= _NONFINITE_FACTOR
            continue
        if err > 1.0:
            n_rej += 1
            h *= _reject_factor(err)
            continue

        # accepted
        n_acc += 1
        t1 = t + h
        m1 = monitor(state1, inv_scale)

        extinct = m1 < threshold
        t_end = t1
        if extinct:
            # locate the crossing of the positivity floor inside this step
            state = (x, y, zr, zi)
            qmat = _dense_coefficients(h, (dx0, dy0, dr0, di0, dx1, dy1, dr1, di1,
                                           dx2, dy2, dr2, di2, dx3, dy3, dr3, di3,
                                           dx4, dy4, dr4, di4, dx5, dy5, dr5, di5,
                                           dx6, dy6, dr6, di6))
            lo, hi = 0.0, 1.0
            mids = []
            for _ in range(_BISECTIONS):
                mid = 0.5 * (lo + hi)
                mids.append(mid)
                if monitor(_dense_eval(state, qmat, mid), inv_scale) < threshold:
                    hi = mid
                else:
                    lo = mid
            theta_star = hi
            y_end = _dense_eval(state, qmat, theta_star)
            if not row_defined(y_end):
                for mid in reversed(mids):
                    s = _dense_eval(state, qmat, mid)
                    if row_defined(s):
                        theta_star, y_end = mid, s
                        break
            t_end = t + theta_star * h

        # record the stride samples covered by [t, t_end]; _rows evaluates them.  The
        # step that ends the run also takes those up to its _sample_cut
        t_cut = _sample_cut(t_end, stride) if extinct or t_end >= t_max else t_end
        if next_sample * stride <= t_cut:
            next_sample += 1
            while next_sample * stride <= t_cut:
                next_sample += 1
            records.append((t, h, t_end, next_sample, x, y, zr, zi,
                            dx0, dx1, dx2, dx3, dx4, dx5, dx6, dy0, dy1, dy2, dy3, dy4, dy5, dy6,
                            dr0, dr1, dr2, dr3, dr4, dr5, dr6, di0, di1, di2, di3, di4, di5, di6))
            t_last = min((next_sample - 1) * stride, t_end)

        if extinct:
            tail = (t_end, *y_end) if t_last < t_end - _TAIL_TOL else None
            return STATUS_EXTINCT, t_end, tail, n_acc, n_rej, monitor(y_end, inv_scale)

        n_dec = n_dec + 1 if m_last > m1 else 0  # a NaN resets it
        m_last = m1
        t = t1
        x, y, zr, zi = x1, y1, zr1, zi1
        dx0, dy0, dr0, di0 = dx6, dy6, dr6, di6

        h *= _MAX_FACTOR if err == 0.0 else _accept_factor(err, err_prev)
        err_prev = max(err, _ERR_FLOOR)

    tail = (t_max, x, y, zr, zi) if t_last < t_max - _TAIL_TOL else None
    return STATUS_REACHED_TMAX, None, tail, n_acc, n_rej, m_last


def _rows(rhs, state0, records, stride, tail):
    """The output rows: row 0 at ``state0``, the recorded stride samples, and ``tail``.

    One array pass repeats, per sample, the operations ``_rows_one_at_a_time``
    performs: ``ts = k * stride`` clamped to the step's end, ``theta`` clamped
    as ``min(max(theta, 0.0), 1.0)`` (whose argument order fixes -0.0 and NaN),
    the 0.0-started left-to-right coefficient sums times ``h`` and the dense
    output, with ``np.float_power`` for each ``**``.  The samples and ``tail``
    are log-polar, and ``_to_cartesian`` maps them, with math's per-element
    exp, cos and sin (numpy's SIMD ones may round otherwise); ``rhs`` then
    runs once on the ``_Floats`` columns.  On finite values every operation
    rounds as Python's float operation does, so the bits are equal.  If any
    value is non-finite, the rows are rebuilt one at a time instead: that
    gives the reference's NaNs, and raises where the reference raises
    (Python's ``**`` and ``/`` raise where numpy returns inf or NaN).
    """
    n = records[-1][3] if records else 1  # row 0 and the samples k = 1 .. n - 1
    rows = np.empty((n + (tail is not None), 9))
    rows[0, :5] = (0.0, *state0)
    if tail is not None:
        rows[-1, :5] = tail
    with np.errstate(all="ignore"):
        if records:
            rec = np.array(records, dtype=float)
            stages = rec[:, 8:].reshape(-1, 4, 7)  # (record, component, stage)
            q = 0.0 + stages[:, :, 0, None] * _P_ROWS[0]
            for s in range(2, 7):  # the nonzero weights: none of stage 1, none of 2-6 on theta
                q[:, :, 1:] += stages[:, :, s, None] * _P_ROWS[s, 1:]
            q = q * rec[:, 1, None, None]  # (record, component, power of theta)
            k = np.arange(1.0, n)
            i = np.searchsorted(rec[:, 3], k, side="right")  # each sample's record
            q, step = q[i], rec[i, :8]
            t, h, t_end = step[:, 0], step[:, 1], step[:, 2]
            ts = k * stride
            ts = np.where(ts > t_end, t_end, ts)
            theta = (ts - t) / h
            th = np.where(0.0 > theta, 0.0, theta)
            th = np.where(1.0 < th, 1.0, th)
            acc = 0.0 + q[:, :, 0] * th[:, None]
            for j, power in enumerate((th * th, np.float_power(th, 3), np.float_power(th, 4)), 1):
                acc = acc + q[:, :, j] * power[:, None]
            rows[1:n, 0] = ts
            rows[1:n, 1:5] = step[:, 4:8] + acc
        if len(rows) > 1:
            L, angle = rows[1:, 3], rows[1:, 4]
            try:
                r = _map(exp, 0.5 * L)
                bits = angle.view(np.int64)  # bits, not ==: sin(-0.0) is -0.0
                if (bits == bits[0]).all():  # theta' = 0 on the w * z entries
                    zre, zim = r * cos(angle[0]), r * sin(angle[0])
                else:
                    zre, zim = r * _map(cos, angle), r * _map(sin, angle)
            except (OverflowError, ValueError):
                return _rows_one_at_a_time(rhs, state0, records, stride, tail)
            flush = L < _L_MIN
            rows[1:, 3], rows[1:, 4] = np.where(flush, 0.0, zre), np.where(flush, 0.0, zim)
        if np.isfinite(rows[:, :5]).all():
            columns = np.ascontiguousarray(rows[:, 1:5].T).view(_Floats)
            for c, value in enumerate(rhs(*columns)):
                rows[:, 5 + c] = value
            if np.isfinite(rows[:, 5:]).all():
                return rows
    return _rows_one_at_a_time(rhs, state0, records, stride, tail)


def _map(fn, values):
    """``fn`` (math's exp, cos or sin: libm's bits) on each element of a float64 array."""
    return np.fromiter(map(fn, values.tolist()), float, len(values))


def _rows_one_at_a_time(rhs, state0, records, stride, tail):
    """``_rows`` by scalar operations, one interpreted sample at a time (the reference)."""
    rows = [(0.0, *state0, *rhs(*state0))]
    k = 1
    for t, h, t_end, k1, x, y, zr, zi, *stages in records:
        qmat = _dense_coefficients(h, [v for s in range(7) for v in stages[s::7]])
        for k in range(k, k1):
            ts = k * stride
            if ts > t_end:
                ts = t_end
            theta = (ts - t) / h
            s = _to_cartesian(*_dense_eval((x, y, zr, zi), qmat, min(max(theta, 0.0), 1.0)))
            rows.append((ts, *s, *rhs(*s)))
        k = k1
    if tail is not None:
        s = _to_cartesian(*tail[1:])
        rows.append((tail[0], *s, *rhs(*s)))
    return np.array(rows, dtype=float)


class _Floats(np.ndarray):
    """float64 array whose ``**`` is ``np.float_power``, libm ``pow`` on every
    element as Python's float ``**`` is; numpy's ``**`` may take a SIMD
    kernel that rounds differently."""

    def __pow__(self, other):
        return np.float_power(self, other)


def fields(geom: int, p1: float, p2: float):
    """The two velocity fields of geometry ``geom``'s closed form, which both
    lanes take; ValueError for an unknown ``geom``.

    ``rhs(x, y, zre, zim)`` is -K by the Cartesian kernel, the rows'
    derivatives, on floats and ``_Floats`` columns alike.  ``polar_rhs(x, y,
    L, theta)`` is the loop's velocity by the phi kernel: L' = -2 Re phi and
    theta' = -Im phi (-0.0 where phi is real), at u = exp(L), inf where exp
    overflows, as in C.
    """
    kernel, phi = _kernel(geom), _kernel(geom, _PHI)

    def rhs(x, y, zre, zim):
        k11, k22, k12re, k12im = kernel(p1, p2, x, y, zre, zim)
        return -k11, -k22, -k12re, -k12im

    def polar_rhs(x, y, L, theta):
        try:
            u = exp(L)
        except OverflowError:
            u = inf
        k11, k22, phi_re, phi_im = phi(p1, p2, x, y, u, theta)
        return -k11, -k22, -2.0 * phi_re, -phi_im

    return rhs, polar_rhs


def run_closed_flow(geom: int, p1: float, p2: float, state0, t_max: float,
                    rel_tol: float, abs_tol: float, stride: float,
                    threshold: float, max_steps: int = MAX_STEPS):
    """Closed-form-kernel flow run (signature shared with the compiled core):
    ``run_flow`` with the ``fields`` of ``geom``."""
    return run_flow(*fields(geom, p1, p2), state0, t_max, rel_tol, abs_tol, stride, threshold,
                    max_steps)


def _initial_step(rhs, y0, f0, t_max, rel_tol, abs_tol) -> float:
    scale = [_weight(v, v, rel_tol, abs_tol) for v in y0]
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
    """Root mean square of v / scale, skipping a component whose scale is
    infinite (L = -inf of z = 0; its term would be NaN, not the 0 of z = 0).

    Sums run left to right from 0.0, here and in the functions below:
    ``sum()`` compensates its rounding from Python 3.12 on, which neither
    older Pythons nor the C core do.
    """
    acc = 0.0
    for c in range(4):
        if scale[c] != inf:
            acc += (v[c] / scale[c]) ** 2
    return sqrt(acc / 4.0)


# The step loop's arithmetic.  ``_core_gen`` traces each of these into the C
# loop's header, so each is written once, here: branch-free, calling only
# ``_libm``, ``sqrt``, ``abs``, ``min``, ``max`` and each other.  A parameter
# that is indexed is an array in C, and a list result is written to ``out``.

def _weight(v, v1, rel_tol, abs_tol):
    """The error norm's scale of a component that steps from v to v1.  It is
    infinite only where L = -inf stays -inf (z = 0), whose term is then 0."""
    return abs_tol + rel_tol * max(abs(v), abs(v1))


def _error_norm(e, v, v1, rel_tol, abs_tol):
    """The RMS of the step's error estimates ``e`` over their ``_weight``s."""
    return sqrt((0.0 + (e[0] / _weight(v[0], v1[0], rel_tol, abs_tol)) ** 2
                 + (e[1] / _weight(v[1], v1[1], rel_tol, abs_tol)) ** 2
                 + (e[2] / _weight(v[2], v1[2], rel_tol, abs_tol)) ** 2
                 + (e[3] / _weight(v[3], v1[3], rel_tol, abs_tol)) ** 2) / 4.0)


def _reject_factor(err):
    """The step factor after a finite error norm ``err`` > 1."""
    return min(0.7, max(0.1, _SAFETY * err ** (-0.2)))


def _accept_factor(err, err_prev):
    """The PI controller's step factor after an accepted step of error norm
    ``err`` > 0, ``err_prev`` the last one's (at least ``_ERR_FLOOR``)."""
    return min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA))


def _step_floor(t):
    """The least step at time t; a smaller one is a step-size underflow.  It is
    relative to t, so that stiff transients near t = 0 (e.g. nearly degenerate
    starts) can take arbitrarily small first steps."""
    return 1e-14 * abs(t) + 1e-200


def _sample_cut(t_end, stride):
    """How far the step that ends the run at ``t_end`` takes samples: also
    those that a rounded k * stride puts just past its end.  The tolerance is
    relative, so a tiny t_max gets no samples past it."""
    return t_end + 1e-12 * max(stride, t_end)


def _polar_monitor(s, inv_scale) -> float:
    """Positivity margin of the log-polar state s = (x, y, L, theta), normalized
    by the initial metric scale.

    Minimum of x, y and the determinant x y - exp(L), each divided by the
    matching power of the initial scale; extinction is declared when this
    drops below the configured floor.
    """
    d = s[0] * s[1] - _libm(exp, s[2])
    return min(s[0] * inv_scale[0], s[1] * inv_scale[1], d * inv_scale[2])


def _dense_coefficients(h, k):
    """Per-step interpolation coefficients of the seven stages ``k``, four
    components each: per component, one 0.0-started sum per power of the step
    fraction over its nonzero weights, times h (four per component)."""
    q = []
    for c in range(4):
        for j in range(4):
            acc = 0.0
            for s in range(7):
                if _P[s][j] != 0.0:
                    acc += k[4 * s + c] * _P[s][j]
            q.append(acc * h)
    return q


def _dense_eval(y0, q, theta):
    """The interpolated state at the step fraction theta from y0, by the
    coefficients ``q`` of ``_dense_coefficients``."""
    th2, th3, th4 = theta * theta, theta ** 3, theta ** 4
    return [y0[c] + (0.0 + q[4 * c] * theta + q[4 * c + 1] * th2 + q[4 * c + 2] * th3
                     + q[4 * c + 3] * th4) for c in range(4)]
