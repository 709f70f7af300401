"""Cross-lane checks: the compiled C loop against the pure-Python reference lane.

The C core is the library that ``import hcflow`` built (the ``c_library``
fixture of conftest.py), so these tests need only a C compiler, and they
require the same bits from both lanes.
"""
import ctypes
import hashlib
import math
import os
import shutil
import struct
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcflow import _core_py
from hcflow import core
from hcflow.catalog import GEOMETRY_IDS, pack_params, sample_metric, sample_params
from hcflow.geometry import Geometry


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_with_cc_the_package_runs_the_compiled_lane():
    # import hcflow built and loaded the C loop; a broken build fails here rather than
    # falling back to the Python lane unseen
    assert core.COMPILED and os.path.isfile(core.LIBRARY)


def test_package_does_not_import_the_generator():
    # nor numpy.ctypeslib (~1 ms of import): the C core takes plain pointers
    code = ("import sys, hcflow.cli; "
            "print([m for m in ('hcflow._core_gen', 'numpy.ctypeslib') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.stdout == "[]\n"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_compiled_lane_run_does_not_import_g17(tmp_path):
    # the C library formats the CSVs: a compiled-lane run with every emit target never
    # compiles the Python lane's formatter, nor builds its tables
    argv = ["run", "--geometry", "kodaira-secondary", "--epsilon", "1", "--x0", "1.3",
            "--y0", "0.7", "--z0-re", "0.2", "--t-max", "1000", "--out", str(tmp_path),
            "--emit", "trajectory-csv,outcome-json,analysis-json,plot-data"]
    code = ("import sys, hcflow.cli; code = hcflow.cli.main(sys.argv[1:]); "
            "print(hcflow.core.COMPILED, code, 'hcflow._g17' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.stderr.split() == ["True", "0", "False"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "analysis.json", "outcome.json", "plot_data.csv", "trajectory.csv"]


@pytest.fixture(scope="session")
def c_kernels(c_library):
    """The C core's ``hcf_closed_k`` and ``hcf_closed_phi`` with ``closed_k``'s and
    ``_closed_phi``'s arguments, each returning (status, its four values)."""
    lib, dbl = ctypes.CDLL(c_library), ctypes.c_double
    lib.hcf_closed_k.argtypes = [ctypes.c_int, dbl, dbl, ctypes.POINTER(dbl), ctypes.POINTER(dbl)]
    lib.hcf_closed_phi.argtypes = [ctypes.c_int, *[dbl] * 6, ctypes.POINTER(dbl)]

    def closed_k(geom, p1, p2, x, y, zre, zim):
        k = (dbl * 4)()
        return lib.hcf_closed_k(geom, p1, p2, (dbl * 4)(x, y, zre, zim), k), tuple(k)

    def closed_phi(geom, p1, p2, x, y, u, theta):
        k = (dbl * 4)()
        return lib.hcf_closed_phi(geom, p1, p2, x, y, u, theta, k), tuple(k)

    return {"k": closed_k, "phi": closed_phi}


def _bits(values):
    return struct.pack(f"{len(values)}d", *values)


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
def test_closed_k_lanes_agree_pointwise(geometry, c_kernels):
    rng = np.random.default_rng(31)
    gid = GEOMETRY_IDS[geometry]
    for _ in range(200):
        p1, p2 = pack_params(sample_params(geometry, rng))
        g = sample_metric(rng)
        status, k = c_kernels["k"](gid, p1, p2, g.x, g.y, g.z.real, g.z.imag)
        assert status == 0
        assert _bits(k) == _bits(_core_py.closed_k(gid, p1, p2, g.x, g.y, g.z.real, g.z.imag))


def _random_runs(per_geometry: int):
    runs = []
    for geometry in Geometry:
        rng = np.random.default_rng(1000 + GEOMETRY_IDS[geometry])
        for i in range(per_geometry):
            p1, p2 = pack_params(sample_params(geometry, rng))
            g = sample_metric(rng)
            t_max = 50.0 if geometry is Geometry.HOPF else 1000.0
            runs.append(pytest.param(
                (GEOMETRY_IDS[geometry], p1, p2, (g.x, g.y, g.z.real, g.z.imag), t_max,
                 1e-9, 1e-12, t_max / 1000, 1e-10), id=f"{geometry.value}-{i}"))
    return runs


TINY_T_MAX = 2.220446049250313e-16

RUNS = [
    pytest.param((2, 0.0, 0.0, (1.0, 1.5, 0.0, 0.0), 10.0, 1e-9, 1e-12, 0.1, 1e-10),
                 id="hopf-diagonal"),
    pytest.param((0, 0.0, 0.0, (1.0, 2.0, 0.1, 0.0), 0.0, 1e-9, 1e-12, 1.0, 1e-10),
                 id="t_max-0"),
    pytest.param((6, 1.0, 2.0, (1.0, 1.0, 0.3, 0.2), 100.0, 1e-9, 1e-12, 0.7, 1e-10, 40),
                 id="max_steps"),
    # 10 steps for 1001 stride samples: nearly all emission
    pytest.param((0, 0.0, 0.0, (1.0, 2.0, 0.1, 0.0), 1000.0, 1e-9, 1e-12, 1.0, 1e-10),
                 id="torus-t1000"),
    # step-size underflow while the monitor (6.4e-27) is still above the threshold:
    # extinct by the underflow rule, after 307 accepted and 70 rejected steps
    pytest.param((2, 0.7, 0.0, (2.0, 0.7, 0.5, -0.3), 50.0, 1e-9, 1e-12, 0.5, 1e-30),
                 id="hopf-step-underflow"),
    # z0 = 0 with a -0.0 real part: L0 = -inf and theta0 = 0, not atan2's pi
    pytest.param((8, 0.0, 0.0, (1.0, 1.0, -0.0, 0.0), 100.0, 1e-9, 1e-12, 0.1, 1e-10),
                 id="inoue-sp-j2-negative-zero-z0"),
    # t_max below the old absolute emission tolerance of 1e-12: no samples past t_max
    pytest.param((1, 0.0, 0.0, (1.0, 1.0, 0.3, 0.2), TINY_T_MAX, 1e-9, 1e-12, TINY_T_MAX / 1000,
                  1e-10), id="tiny-t_max"),
    # x0 * y0 underflows to 0, so the monitor scales D by (1 / x0) * (1 / y0), inf here
    pytest.param((0, 0.0, 0.0, (1e-200, 1e-200, 0.0, 0.0), 1000.0, 1e-9, 1e-12, 1.0, 1e-10),
                 id="torus-underflowing-scale"),
    pytest.param((0, 0.0, 0.0, (5e-324, 0.5, 0.0, 0.0), 100.0, 1e-9, 1e-12, 0.1, 1e-10),
                 id="torus-subnormal-x0"),
    *_random_runs(2),
]
# x * x overflows in the closed form, so row 0 holds NaN: the rows are rebuilt one
# at a time.  Kept apart from RUNS: its tests also require the NaN rows.
NONFINITE_RUN = (1, 0.0, 0.0, (1e200, 1.0, 0.5, 0.0), 10.0, 1e-9, 1e-12, 0.01, 1e-10)


def _closed_phi(geom, *args):
    """``_core_py``'s phi kernel of geometry id ``geom`` at (p1, p2, x, y, u, theta), as
    ``hcf_closed_phi``: (K11, K22, Re phi, Im phi), phi = K12 / z."""
    return _core_py._kernel(geom, _core_py._PHI)(*args)


PYTHON_KERNELS = {"k": _core_py.closed_k, "phi": _closed_phi}


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
def test_closed_phi_lanes_agree_pointwise(geometry, c_kernels):
    rng = np.random.default_rng(32)
    gid = GEOMETRY_IDS[geometry]
    for i in range(200):
        p1, p2 = pack_params(sample_params(geometry, rng))
        g = sample_metric(rng)
        u = 0.0 if i % 10 == 0 else g.u  # z = 0, where phi is still defined
        status, k = c_kernels["phi"](gid, p1, p2, g.x, g.y, u, np.angle(g.z))
        assert status == 0
        assert _bits(k) == _bits(_closed_phi(gid, p1, p2, g.x, g.y, u, np.angle(g.z)))


# Edge states of both kernels, (x, y, Re z, Im z) and (x, y, u, theta): signed zeros,
# subnormal and underflowing u, non-finite theta, d = x y - u = 0 (division by zero but
# on the torus), ** overflows (1e200 ** 4 on hopf, y ** 3 and y ** 4 on kodaira), and
# both at once, where hopf's first error is the overflow and the others' the division.
EDGE_STATES = {
    "k": [(1.3, 0.8, 0.0, 0.0), (1.3, 0.8, -0.0, 0.0), (1.3, 0.8, 0.0, -0.0),
          (1.3, 0.8, -0.0, -0.0), (1.3, 0.8, -0.0, 0.4), (1.3, 0.8, 0.4, -0.0),
          (1.3, 0.8, 1e-160, -2e-160), (1.3, 0.8, 5e-324, 0.0),
          (2.0, 0.5, 1.0, 0.0), (1.0, 25.0, -3.0, 4.0),
          (1e200, 0.8, 0.3, 0.2), (1.3, 1e200, 0.3, 0.2), (1e200, 1e200, 0.3, 0.2),
          (1e200, 1e-200, 1.0, 0.0)],
    "phi": [(1.3, 0.8, 0.0, 0.0), (1.3, 0.8, 0.0, -0.0), (1.3, 0.8, 0.3, 0.0),
            (1.3, 0.8, 0.3, -0.0), (1.3, 0.8, 0.3, math.inf), (1.3, 0.8, 0.3, -math.inf),
            (1.3, 0.8, 0.3, math.nan), (1.3, 0.8, 0.0, math.inf),
            (1.3, 0.8, 5e-324, 0.7), (1.3, 0.8, 1e-310, -0.7), (2.0, 0.5, 1.0, 0.7),
            (1e200, 0.8, 0.3, 0.7), (1.3, 1e200, 0.3, 0.7), (1e200, 1e200, 0.3, 0.7),
            (1e200, 1e-200, 1.0, 0.7)],
}
# _core_c.c's ERR_ code of each exception _core_py raises
ERR_CODES = {OverflowError: 3, ZeroDivisionError: 4, ValueError: 5}


@pytest.mark.parametrize("kernel", ["k", "phi"])
def test_kernel_lanes_agree_at_edge_states(kernel, c_kernels):
    # C returns 0 with the same bits (NaN payloads included) where Python returns,
    # and the ERR_ code of the exception where Python raises
    seen = set()
    for gid in (-1, *range(9), 9):
        for state in EDGE_STATES[kernel]:
            status, values = c_kernels[kernel](gid, 0.7, 2.0, *state)
            try:
                reference = PYTHON_KERNELS[kernel](gid, 0.7, 2.0, *state)
            except tuple(ERR_CODES) as exc:
                assert status == ERR_CODES[type(exc)], (gid, state, exc)
            else:
                assert status == 0 and _bits(values) == _bits(reference), (gid, state)
            seen.add(status)
    assert seen == {0, *ERR_CODES.values()}


def _ordinal(v: float) -> int:
    """v's position among the float64 values in order (+0.0 and -0.0 both 0)."""
    i = struct.unpack("<q", struct.pack("<d", v))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _values(c_kernel):
    """A kernel of ``c_kernels`` that returns its values where its status is 0."""
    def kernel(*args):
        status, values = c_kernel(*args)
        assert status == 0
        return values
    return kernel


@pytest.mark.parametrize("lane", ["python", "C"])
def test_kernels_are_homogeneous_of_degree_0(lane, request):
    # K(c g) = K(g) and c phi(c g) = phi(g) for c = 2^k, to <= 2 ulp: the scaled
    # operations are exact but for libm pow.  Measured: of the 86,400 comparisons
    # below, all but 6 are bit-exact, and those six (hopf) are 1 or 2 ulp off
    if lane == "C":
        kernels = {name: _values(fn) for name, fn in request.getfixturevalue("c_kernels").items()}
    else:
        kernels = PYTHON_KERNELS
    worst = 0
    for geometry in Geometry:
        rng, gid = np.random.default_rng(34), GEOMETRY_IDS[geometry]
        for _ in range(300):
            p1, p2 = pack_params(sample_params(geometry, rng))
            g = sample_metric(rng)
            x, y, zre, zim = g.x, g.y, g.z.real, g.z.imag
            u, theta = zre * zre + zim * zim, math.atan2(zim, zre)
            k = kernels["k"](gid, p1, p2, x, y, zre, zim)
            phi = kernels["phi"](gid, p1, p2, x, y, u, theta)
            for c in (2.0 ** -40, 2.0 ** -3, 2.0 ** 3, 2.0 ** 40):
                kc = kernels["k"](gid, p1, p2, c * x, c * y, c * zre, c * zim)
                k11, k22, phi_re, phi_im = kernels["phi"](gid, p1, p2, c * x, c * y, c * c * u,
                                                          theta)
                for a, b in zip((*kc, k11, k22, c * phi_re, c * phi_im), (*k, *phi)):
                    worst = max(worst, abs(_ordinal(a) - _ordinal(b)))
    assert worst <= 2


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
def test_closed_phi_is_k12_over_z(geometry):
    # the phi kernel has the Cartesian K11 and K22 and gives phi = K12 / z
    rng = np.random.default_rng(33)
    gid = GEOMETRY_IDS[geometry]
    for _ in range(200):
        p1, p2 = pack_params(sample_params(geometry, rng))
        g = sample_metric(rng)
        k11, k22, k12re, k12im = _core_py.closed_k(gid, p1, p2, g.x, g.y, g.z.real, g.z.imag)
        p11, p22, phi_re, phi_im = _closed_phi(gid, p1, p2, g.x, g.y, g.u, np.angle(g.z))
        scale = max(abs(k11), abs(k22), abs(complex(k12re, k12im)), 1e-300)
        assert abs(p11 - k11) <= 1e-12 * scale and abs(p22 - k22) <= 1e-12 * scale
        assert abs(complex(phi_re, phi_im) * g.z - complex(k12re, k12im)) <= 1e-12 * scale
        assert math.isfinite(_closed_phi(gid, p1, p2, g.x, g.y, 0.0, 1.0)[2])


@pytest.mark.parametrize("geometry", [Geometry.INOUE_SPM_J1, Geometry.INOUE_SP_J2],
                         ids=lambda g: g.value)
def test_inoue_cartesian_and_phi_kernels_are_identical(geometry):
    # the two Inoue S+- entries state K12 twice: symbolically, the Cartesian kernel at
    # z = r (cos theta, sin theta) has the phi kernel's K11 and K22 at u = r^2, and
    # K12 = phi z.  Both run on sympy symbols, as _core_gen traces them on _Var, with
    # sin theta = s and cos theta = c; each difference's numerator is 0 modulo s^2 + c^2 - 1
    sympy = pytest.importorskip("sympy")
    p1, p2, x, y, r, s, c, theta = sympy.symbols("p1 p2 x y r s c theta")

    def traced(kernel):
        names = {**kernel.__globals__, "_libm": lambda fn, v: {math.sin: s, math.cos: c}[fn]}
        return types.FunctionType(kernel.__code__, names, closure=kernel.__closure__)

    gid = GEOMETRY_IDS[geometry]
    zre, zim = r * c, r * s
    k11, k22, k12re, k12im = traced(_core_py._kernel(gid))(p1, p2, x, y, zre, zim)
    p11, p22, phi_re, phi_im = traced(_core_py._kernel(gid, _core_py._PHI))(
        p1, p2, x, y, r * r, theta)
    for difference in (k11 - p11, k22 - p22, k12re - (phi_re * zre - phi_im * zim),
                       k12im - (phi_re * zim + phi_im * zre)):
        numerator = sympy.expand(sympy.numer(sympy.together(difference)))
        assert sympy.rem(numerator, c ** 2 + s ** 2 - 1, c) == 0


@pytest.mark.parametrize("z0,cartesian", [
    ((0.0, 0.0), "b4a6ae23480915a6"), ((-0.0, 0.0), "261ab0ac6fc7f99e"),
    ((0.0, -0.0), "0eaa1bf330a55205"), ((-0.0, -0.0), "aa9b7c43bdea9c49")],
    ids=["+0+0", "-0+0", "+0-0", "-0-0"])
def test_z0_zero_starts_at_minus_inf_and_keeps_the_cartesian_bits(z0, cartesian):
    # L0 = -inf stays -inf, and every row, count and monitor equals the run of
    # the same closed form in (x, y, Re z, Im z), in which z stays 0: ``cartesian``
    # digests the ``_digest`` of those nine runs, as the RK5(4) loop gave them when
    # it still integrated that state
    assert _core_py.log_polar(*z0) == (-math.inf, 0.0)
    digests = []
    for geom in range(9):
        p1, p2 = (1.0, 2.0) if geom == 6 else (0.7, 0.0)
        digests.append(_digest(_core_py.run_closed_flow(
            geom, p1, p2, (2.0, 0.7, *z0), 37.3, 1e-9, 1e-12, 0.0373, 1e-10)))
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest()[:16] == cartesian


def test_log_polar_start_of_an_underflowing_z0():
    # |z0|^2 underflows to 0, but hypot keeps L0 finite; row 0 keeps z0 exactly
    L, theta = _core_py.log_polar(3e-170, -4e-170)
    assert L == pytest.approx(2 * math.log(5e-170)) and theta == math.atan2(-4.0, 3.0)
    status, _, rows, *_ = _core_py.run_closed_flow(
        5, 1.0, 0.0, (1.0, 1.0, 3e-170, -4e-170), 10.0, 1e-9, 1e-12, 1.0, 1e-10)
    assert status == _core_py.STATUS_REACHED_TMAX and np.isfinite(rows).all()
    assert tuple(rows[0, 3:5]) == (3e-170, -4e-170)
    assert (rows[1:, 3:5] == 0.0).all()  # u is below float64's normal range: emitted as 0


# Kodaira-secondary z decays exponentially; integrated in (x, y, Re z, Im z),
# its tail at abs_tol noise capped the step by stability, and the runs took
# 362,283 and 23,027 steps.  Their final (x, y) in that state:
STIFF_TAIL = [
    pytest.param((5, 1.0, 0.0, (0.01, 0.01, 0.003, 0.002), 1000.0, 1e-9, 1e-12, 1.0, 1e-10),
                 (1.865273129756654, 0.0006958474611856232), id="small-g0-t1000"),
    pytest.param((5, 1.0, 0.0, (1.0, 1.0, 0.3, 0.2), 1e4, 1e-9, 1e-12, 10.0, 1e-10),
                 (74.25836350402838, 0.11028401712821087), id="t1e4"),
]


@pytest.mark.parametrize("lane", ["python", "c"])
@pytest.mark.parametrize("args,xy", STIFF_TAIL)
def test_stiff_tail_takes_few_steps(args, xy, lane, request):
    run = _core_py.run_closed_flow if lane == "python" else request.getfixturevalue("c_run")
    status, _, rows, n_acc, _, _ = run(*args)
    assert status == _core_py.STATUS_REACHED_TMAX and rows[-1, 0] == args[4]
    assert n_acc <= 1000  # 192 and 163 measured
    np.testing.assert_allclose(rows[-1, 1:3], xy, rtol=1e-7, atol=0.0)


@pytest.mark.parametrize("lane", ["python", "c"])
def test_tiny_t_max_emits_its_stride_samples_only(lane, request):
    # with an absolute tolerance of 1e-12 past t_end this run emitted 4.5 million rows
    run = _core_py.run_closed_flow if lane == "python" else request.getfixturevalue("c_run")
    args = next(p.values[0] for p in RUNS if p.id == "tiny-t_max")
    status, _, rows, *_ = run(*args)
    assert status == _core_py.STATUS_REACHED_TMAX
    assert len(rows) == 1001 and rows[-1, 0] == TINY_T_MAX


@pytest.mark.parametrize("lane", ["python", "c"])
@pytest.mark.parametrize("t_max", [1.1111110000000002, 1e-250])
def test_a_last_step_below_the_step_size_floor_reaches_t_max(t_max, lane, request):
    # the torus does not move, so its steps grow tenfold from 1e-6: at t = 1.111111 the
    # step left to t_max is 2.2e-16, below the floor 1e-14 * t; at t_max = 1e-250 the
    # first step is below the floor's 1e-200.  A step clipped to end at t_max is taken
    run = _core_py.run_closed_flow if lane == "python" else request.getfixturevalue("c_run")
    status, t_est, rows, *_ = run(0, 0.0, 0.0, (1.0, 1.0, 0.0, 0.0), t_max, 1e-9, 1e-12,
                                  t_max / 1000, 1e-10)
    assert status == _core_py.STATUS_REACHED_TMAX and t_est is None
    assert len(rows) == 1001 and rows[-1, 0] == t_max


@pytest.mark.parametrize("lane", ["python", "c"])
@pytest.mark.parametrize("stride,t_max,n", [
    (0.11111100000000002, 1.1111100000000003, 10),
    (1.1111110000000142 / 1000, 1.1111110000000142, 1000),  # t_max 64 ulp above 1.111111
], ids=["sample-past-a-step-end", "t_max-just-past-a-step-end"])
def test_interior_samples_carry_their_grid_time(stride, t_max, n, lane, request):
    # the torus's steps end at 0.111111 and 1.111111: samples 1 and 1000 lie just past
    # those ends, within the emission tolerance, but only the step that ends the run
    # takes samples past its end; all others come from the next step, at k * stride
    run = _core_py.run_closed_flow if lane == "python" else request.getfixturevalue("c_run")
    status, _, rows, *_ = run(0, 0.0, 0.0, (1.0, 1.0, 0.0, 0.0), t_max, 1e-9, 1e-12, stride,
                              1e-10)
    assert status == _core_py.STATUS_REACHED_TMAX
    assert rows[:, 0].tolist() == [min(k * stride, t_max) for k in range(n + 1)]


@pytest.mark.parametrize("lane", ["python", "c"])
@pytest.mark.parametrize("run_id", ["torus-underflowing-scale", "torus-subnormal-x0"])
def test_monitor_scale_of_an_underflowing_x0_y0(run_id, lane, request):
    # x0 * y0 is 0: D's scale is (1 / x0) * (1 / y0) = inf, not a division by zero, and
    # the monitor's D term 0 * inf = NaN is passed over by min(), as by pmin()
    run = _core_py.run_closed_flow if lane == "python" else request.getfixturevalue("c_run")
    args = next(p.values[0] for p in RUNS if p.id == run_id)
    status, t_est, rows, _, _, m_final = run(*args)
    assert status == _core_py.STATUS_REACHED_TMAX and t_est is None and m_final == 1.0
    assert (rows[:, 1:5] == args[3]).all() and rows[-1, 0] == args[4]


#: Hopf, lambda = 0.7, from (2, 0.7, 0): it collapses at t ~ 3.0463
HOPF_COLLAPSE = (2, 0.7, 0.0, (2.0, 0.7, 0.0, 0.0), 50.0, 1e-9, 1e-12, 0.05)


@pytest.mark.parametrize("lane", ["python", "c"])
@pytest.mark.parametrize("threshold", [1e-35, 1e-40, 1e-60])
def test_crossing_below_resolution_ends_on_a_defined_row(threshold, lane, request):
    # y's dense output resolves ~1e-19, so the bisection converges onto y = 0, where
    # the closed form divides by D**2 = 0; the run ends on the last bisection point
    # whose row is defined, with the stop time of the run at 1e-30
    run = _core_py.run_closed_flow if lane == "python" else request.getfixturevalue("c_run")
    reference = run(*HOPF_COLLAPSE, 1e-30)
    status, t_est, rows, n_acc, n_rej, m_final = run(*HOPF_COLLAPSE, threshold)
    assert status == reference[0] == _core_py.STATUS_EXTINCT
    assert t_est == reference[1] == 3.0462775442979138
    assert (n_acc, n_rej) == reference[3:5]
    assert np.isfinite(rows).all() and rows[-1, 0] == t_est
    x, y, zre, zim = rows[-1, 1:5]
    assert x > 0 and y > 0 and x * y - (zre * zre + zim * zim) > 0
    assert rows[:-1].tobytes() == reference[2][:-1].tobytes()
    assert rows.tobytes() == _core_py.run_closed_flow(*HOPF_COLLAPSE, threshold)[2].tobytes()
    assert 0 < m_final < 1e-30


@pytest.mark.parametrize("args", RUNS)
def test_run_flow_lanes_agree(args, c_run):
    py = _core_py.run_closed_flow(*args)
    c = c_run(*args)
    assert c[0] == py[0] and c[1] == py[1] and c[3:] == py[3:]
    assert [type(v) for v in c] == [type(v) for v in py]
    # bytes, not np.array_equal: -0.0 == 0.0, but the CSV prints -0 and 0
    assert c[2].dtype == py[2].dtype and c[2].shape == py[2].shape
    assert c[2].tobytes() == py[2].tobytes()


@pytest.mark.parametrize("args,error", [
    ((2, 0.0, 0.0, (1e100, 1.0, 0.0, 0.0), 1.0, 1e-9, 1e-12, 0.1, 1e-10), OverflowError),
    ((1, 0.0, 0.0, (1.0, 1.0, 1.0, 0.0), 1.0, 1e-9, 1e-12, 0.1, 1e-10), ZeroDivisionError),
    ((9, 0.0, 0.0, (1.0, 1.0, 0.0, 0.0), 1.0, 1e-9, 1e-12, 0.1, 1e-10), ValueError),
    ((-1, 0.0, 0.0, (1.0, 1.0, 0.0, 0.0), 1.0, 1e-9, 1e-12, 0.1, 1e-10), ValueError),
    ((2, 0.0, 0.0, (1e100, 1.0, 0.3, 0.0), 1.0, 1e-9, 1e-12, 0.1, 1e-10), OverflowError),
    ((9, 0.0, 0.0, (1.0, 1.0, 0.3, 0.2), 1.0, 1e-9, 1e-12, 0.1, 1e-10), ValueError),
], ids=["overflow", "zero-division", "unknown-geometry", "negative-geometry", "overflow-polar",
        "unknown-geometry-polar"])
def test_run_flow_lanes_raise_alike(args, error, c_run):
    with pytest.raises(error):
        _core_py.run_closed_flow(*args)
    with pytest.raises(error):
        c_run(*args)


def _outcome(run, args):
    """``run(*args)``, or the type of the exception it raises."""
    try:
        return run(*args)
    except Exception as exc:
        return type(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_run_flow_lanes_agree_on_drawn_inputs(c_run, data):
    # beyond the listed RUNS: every entry with drawn parameters, g0 scaled by 2^k for
    # |k| <= 700 with z0 drawn or +-0, and drawn t_max, tolerances, stride, threshold
    # and step budget.  Plain floats: with np.float64 arguments the Python lane's
    # m_final is an np.float64
    geometry = data.draw(st.sampled_from(list(Geometry)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p1, p2 = pack_params(sample_params(geometry, rng))
    g = sample_metric(rng)
    z0 = data.draw(st.sampled_from([(g.z.real, g.z.imag), (0.0, 0.0), (-0.0, -0.0)]))
    k = data.draw(st.integers(-700, 700))
    state0 = tuple(math.ldexp(v, k) for v in (g.x, g.y, *z0))
    t_max = data.draw(st.floats(-1.0, 1000.0))
    args = (GEOMETRY_IDS[geometry], p1, p2, state0, t_max,
            data.draw(st.floats(1e-12, 1e-3)), data.draw(st.floats(1e-15, 1e-6)),
            data.draw(st.floats(max(t_max, 1.0) / 500, 100.0)),  # at most ~500 samples
            data.draw(st.floats(1e-14, 1e-4)), data.draw(st.integers(0, 300)))
    py, c = _outcome(_core_py.run_closed_flow, args), _outcome(c_run, args)
    if isinstance(py, type) or isinstance(c, type):
        assert c == py
        return
    # repr tells -0.0 from 0.0 and compares NaN equal
    assert repr((c[0], c[1], *c[3:])) == repr((py[0], py[1], *py[3:]))
    assert [type(v) for v in c] == [type(v) for v in py]
    assert c[2].shape == py[2].shape and c[2].tobytes() == py[2].tobytes()


def test_closed_k_rejects_unknown_geometry():
    for gid in (-1, 9):
        with pytest.raises(ValueError, match="unknown geometry id"):
            _core_py.closed_k(gid, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0)


# The reference lane's bits, pinned without a compiler: the first 16 hex digits
# of a SHA-256 over the rows' bytes, then status, t_est, step counts and m_final.
# The runs are the fixed ones of RUNS and its first draw per geometry (the Hopf
# draw collapses).
PINNED = {
    "hopf-diagonal": "3e16101eeb0a86df",
    "t_max-0": "e62e3d52f568f3e8",
    "max_steps": "688055b08f6da6f6",
    "torus-0": "6c464fad42854b98",
    "hyperelliptic-0": "5ab9788973b8ab35",
    "hopf-0": "3b00c42d4883358f",
    "properly-elliptic-0": "1962c1a509bc831e",
    "kodaira-primary-0": "5ec9eb3cceff7135",
    "kodaira-secondary-0": "fccc231b32906063",
    "inoue-s0-0": "661090ad0fd97053",
    "inoue-spm-j1-0": "2e32511c292692ed",
    "inoue-sp-j2-0": "549704dfb9f5ce9b",
    "torus-t1000": "4a337948e0178c6a",
    "hopf-step-underflow": "d4ef93dfc2141c0c",
    "inoue-sp-j2-negative-zero-z0": "72414499c7d9d429",
    "hyperelliptic-nonfinite": "2a220752ffe1f230",
}


def _digest(result):
    status, t_est, rows, n_acc, n_rej, m_final = result
    h = hashlib.sha256(np.ascontiguousarray(rows, dtype=np.float64).tobytes())
    h.update(repr((rows.shape, status, t_est, n_acc, n_rej, m_final)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("args,digest", [pytest.param(*p.values, PINNED[p.id], id=p.id)
                                         for p in RUNS if p.id in PINNED])
def test_reference_lane_bits_pinned(args, digest):
    assert _digest(_core_py.run_closed_flow(*args)) == digest


def test_nonfinite_rows_bits_pinned():
    result = _core_py.run_closed_flow(*NONFINITE_RUN)
    assert np.isnan(result[2]).any()
    assert _digest(result) == PINNED["hyperelliptic-nonfinite"]


def test_nonfinite_rows_lanes_agree(c_run):
    py, c = _core_py.run_closed_flow(*NONFINITE_RUN), c_run(*NONFINITE_RUN)
    assert c[2].tobytes() == py[2].tobytes() and c[2].shape == py[2].shape
    assert c[0] == py[0] and c[1] == py[1] and c[3:] == py[3:]


def test_run_flow_deterministic():
    args = (GEOMETRY_IDS[Geometry.HOPF], 0.7, 0.0, (2.0, 0.7, 0.5, -0.3),
            50.0, 1e-9, 1e-12, 0.5, 1e-10)
    r1 = core.run_closed_flow(*args)
    r2 = core.run_closed_flow(*args)
    assert r1[0] == r2[0] and r1[1] == r2[1]
    assert np.array_equal(r1[2], r2[2])


def test_dense_eval_sums_left_to_right():
    # compensated summation (sum() from Python 3.12 on) would add 2.0, not 1.0
    terms = (1e16, 1.0, -1e16, 1.0)
    assert _core_py._dense_eval([0.5] * 4, terms * 4, 1.0) == [1.5] * 4


def _wall(x, y, L, theta):
    """A log-polar field with x' = -1 up to a wall at x = 0.5, NaN past it; z0 = 0
    keeps L = -inf."""
    if x < 0.5:
        return (math.nan,) * 4
    return -1.0, 0.0, 0.0, 0.0


def _wall_rows(x, y, zre, zim):
    """``_wall``'s rows' derivatives, on floats and arrays alike."""
    return -1.0, 0.0, 0.0, 0.0


def test_failure_disambiguation_on_step_underflow():
    # a wall in the vector field away from degeneracy must be reported as an
    # integrator failure, not as extinction
    status, t_est, rows, *_ = _core_py.run_flow(
        _wall_rows, _wall, (1.0, 1.0, 0.0, 0.0), 10.0, 1e-9, 1e-12, 0.1, 1e-10)
    assert status == _core_py.STATUS_FAILURE
    assert t_est is None


def test_loop_evaluates_six_stages_per_attempted_step():
    # every attempted step, rejected or not, evaluates its six new stages once:
    # the loop's rhs runs 2 + 6 * (n_acc + n_rej) times (the initial step takes 2)
    calls = []

    def rhs(*state):
        calls.append(state)
        return _wall(*state)

    status, _, _, n_acc, n_rej, _ = _core_py.run_flow(
        _wall_rows, rhs, (1.0, 1.0, 0.0, 0.0), 10.0, 1e-9, 1e-12, 0.1, 1e-10)
    assert status == _core_py.STATUS_FAILURE and n_rej > 0
    assert len(calls) == 2 + 6 * (n_acc + n_rej)


def test_initial_step_takes_d1_where_the_trial_velocity_is_not_finite():
    # from x0 = 0.505, the trial state x0 + h0 * f0 of the initial step lies past
    # _wall's wall, where the field is NaN: the step's second estimate d2 is then d1
    calls = []

    def rhs(*state):
        calls.append(state)
        return _wall(*state)

    start = (0.505, 1.0, 0.0, 0.0)
    status, _, _, n_acc, n_rej, _ = _core_py.run_flow(
        _wall_rows, rhs, start, 10.0, 1e-9, 1e-12, 0.1, 1e-10)
    assert status == _core_py.STATUS_FAILURE
    assert calls[1][0] < 0.5 and math.isnan(_wall(*calls[1])[0])
    d1 = math.sqrt((1.0 / (1e-12 + 1e-9 * 0.505)) ** 2 / 4.0)  # rms of f0 = (-1, 0, 0, 0)
    h = (0.01 / d1) ** 0.2
    assert _core_py.start(_wall_rows, _wall, start, 10.0, 1e-9, 1e-12)[2][8] == h
    assert calls[2][0] - 0.505 == pytest.approx(-h * _core_py._A[1][0], rel=1e-12)
    assert len(calls) == 2 + 6 * (n_acc + n_rej)


def test_a_non_finite_error_norm_quarters_the_step():
    # the last stage has no weight in the step's solution but -1/40 in its error
    # estimate: a finite 1e307 there leaves every stage and the new state finite,
    # while the scaled error overflows to inf.  From the fifth attempted step on it
    # is 1e307, and each attempt is rejected with a quarter of the step before
    calls = []

    def rhs(*state):
        calls.append(state)
        last_stage = len(calls) > 2 + 6 * 4 and len(calls) % 6 == 2
        return (1e307 if last_stage else -1e-3), 0.0, 0.0, 0.0

    status, _, _, n_acc, n_rej, _ = _core_py.run_flow(
        _wall_rows, rhs, (1.0, 1.0, 0.0, 0.0), 1e6, 1e-9, 1e-12, 1e3, 1e-10, max_steps=8)
    assert status == _core_py.STATUS_FAILURE and (n_acc, n_rej) == (4, 4)
    assert len(calls) == 2 + 6 * (n_acc + n_rej)
    x = calls[2 + 6 * 4 - 1][0]  # the state after four steps, where the last stage ran
    moves = [calls[2 + 6 * attempt][0] - x for attempt in range(4, 8)]  # first stages
    assert all(math.isfinite(v) for state in calls for v in state[:2])
    for before, after in zip(moves, moves[1:]):
        assert after == pytest.approx(before / 4, rel=1e-12)


def test_a_step_whose_new_state_overflows_is_rejected():
    # after the third step the field is +-1e307 by call parity: the fourth step's new state
    # overflows to inf while its error estimate stays finite, so the inf weight makes the
    # error norm 0.  The step is rejected as a non-finite stage is, with a quarter of the
    # step, and every later attempt starts from the third step's finite state (z0 = 0 keeps
    # L = -inf, the one component that may stay infinite)
    calls = []

    def rhs(*state):
        calls.append(state)
        if len(calls) <= 2 + 6 * 3:
            return -1e-3, 0.0, 0.0, 0.0
        return ((1e307 if len(calls) % 2 else -1e307),) * 4

    status, _, _, n_acc, n_rej, _ = _core_py.run_flow(
        _wall_rows, rhs, (1.0, 1.0, 0.0, 0.0), 1e6, 1e-9, 1e-12, 1e3, 1e-10)
    assert status == _core_py.STATUS_FAILURE and n_acc == 3 and n_rej > 0
    assert len(calls) == 2 + 6 * (n_acc + n_rej)
    first_stages = [calls[2 + 6 * attempt] for attempt in range(n_acc + n_rej)]
    assert all(math.isfinite(v) for x, y, L, theta in first_stages for v in (x, y, theta))
    assert all(L == -math.inf for _, _, L, _ in first_stages)


def test_sampling_grid_is_stride_multiples():
    status, _, rows, *_ = core.run_closed_flow(
        GEOMETRY_IDS[Geometry.TORUS], 0, 0, (1.0, 2.0, 0.1, 0.0),
        5.0, 1e-9, 1e-12, 0.5, 1e-10)
    assert status == core.STATUS_REACHED_TMAX
    assert np.allclose(rows[:, 0], np.arange(0, 5.5, 0.5))


def _hopf_rhs(x, y, zre, zim):
    k11, k22, k12re, k12im = _core_py.closed_k(2, 0.7, 0.0, x, y, zre, zim)
    return -k11, -k22, -k12re, -k12im


def _odd_records(rng, stride):
    """Log-polar steps whose samples fall before, inside and after them, so that
    ts is clamped to t_end and theta to [0, 1]; ts == t with h < 0 gives theta =
    -0.0.  Their L lies on both sides of the flush to z = 0."""
    records, k1 = [], 1
    for r in range(60):
        k0, k1 = k1, k1 + int(rng.integers(1, 6))
        t = k0 * stride if r % 10 == 0 else k0 * stride + rng.normal(0.0, 0.3)
        h = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 1)
        g = sample_metric(rng)
        t_end = t + abs(h) * rng.uniform(0.5, 1.5)
        stages = rng.normal(0.0, 0.01, 28).tolist()
        records.append((float(t), float(h), float(t_end), k1, g.x, g.y,
                        float(rng.uniform(-800.0, 0.0)), float(rng.uniform(-4.0, 4.0)), *stages))
    return records


@pytest.mark.parametrize("rhs", [_hopf_rhs, _wall_rows], ids=["array-rhs", "scalar-rhs"])
def test_array_pass_equals_one_at_a_time(rhs):
    # the rows' rhs returns a column per component, or floats that fill their columns
    records = _odd_records(np.random.default_rng(7), 0.1)
    state0, tail = (1.0, 2.0, 0.1, 0.2), (40.0, 1.0, 1.5, -750.0, 0.3)
    rows = _core_py._rows(rhs, state0, records, 0.1, tail)
    assert np.isfinite(rows).all() and rows.shape == (records[-1][3] + 1, 9)
    assert (rows[1:, 3] == 0.0).any() and (rows[1:, 3] != 0.0).any()
    assert tuple(rows[-1, 3:5]) == (0.0, 0.0) and tuple(rows[0, 1:5]) == state0
    reference = _core_py._rows_one_at_a_time(rhs, state0, records, 0.1, tail)
    assert rows.tobytes() == reference.tobytes()


def test_log_polar_array_pass_equals_one_at_a_time():
    rng = np.random.default_rng(9)
    records = _odd_records(rng, 0.1)
    state0, tail = (1.0, 2.0, 0.1, 0.2), (40.0, 1.0, 1.5, -750.0, 0.3)
    # theta 0.0 on every sample and -0.0 at the tail: equal as floats, but sin(-0.0) is -0.0
    flat = [(*r[:7], 0.0, *r[8:29], *[0.0] * 7) for r in records]
    signed_tail = (40.0, 1.0, 1.5, 0.3, -0.0)
    rows = _core_py._rows(_hopf_rhs, state0, flat, 0.1, signed_tail)
    assert math.copysign(1.0, rows[-1, 4]) == -1.0
    reference = _core_py._rows_one_at_a_time(_hopf_rhs, state0, flat, 0.1, signed_tail)
    assert rows.tobytes() == reference.tobytes()
    # an infinite theta: math's cos raises where C's libm returns NaN, as the rows do
    records[3] = (*records[3][:6], -1.0, math.inf, *records[3][8:])
    rows = _core_py._rows(_hopf_rhs, state0, records, 0.1, tail)
    assert np.isnan(rows).any()
    reference = _core_py._rows_one_at_a_time(_hopf_rhs, state0, records, 0.1, tail)
    assert rows.tobytes() == reference.tobytes()


@pytest.mark.parametrize("args", RUNS)
def test_array_pass_equals_one_at_a_time_on_recorded_steps(args, monkeypatch):
    recorded = []
    rows = _core_py._rows
    monkeypatch.setattr(_core_py, "_rows", lambda *a: recorded.append(a) or rows(*a))
    result = _core_py.run_closed_flow(*args)
    reference = _core_py._rows_one_at_a_time(*recorded[-1])
    assert result[2].tobytes() == reference.tobytes()


def test_array_pass_falls_back_on_non_finite_values():
    rng = np.random.default_rng(8)
    records = _odd_records(rng, 0.1)
    records[5] = (*records[5][:8], float("nan"), *records[5][9:])  # a NaN stage
    state0 = (1.0, 2.0, 0.1, 0.2)
    rows = _core_py._rows(_hopf_rhs, state0, records, 0.1, None)
    assert np.isnan(rows).any()
    reference = _core_py._rows_one_at_a_time(_hopf_rhs, state0, records, 0.1, None)
    assert rows.tobytes() == reference.tobytes()
    # D = x*y - |z|^2 = 0 at a sample (L = 0: |z| = 1): Python's / raises where
    # numpy returns inf
    singular = [(0.0, 1.0, 1.0, 2, 1.0, 1.0, 0.0, 0.0, *[0.0] * 28)]
    with pytest.raises(ZeroDivisionError):
        _core_py._rows(_hopf_rhs, state0, singular, 0.5, None)


def test_sample_exception_comes_before_a_later_step_exception():
    # the rows' rhs raises at the state of the stride sample t = 1.0, and the
    # loop's at every state past t ~ 6.2, which only the stages of a later step
    # reach: the sample's exception comes first, as if emitted inside its step
    start = (1.0, 1.0, 0.0, 0.0)

    def velocity(x, y, zre, zim):  # in either state, as z0 = 0 stays 0
        return -0.01 * x, 0.0, 0.0, 0.0

    x_sample = float(_core_py.run_flow(velocity, velocity, start, 10.0, 1e-9, 1e-12, 0.1,
                                       1e-10)[2][10, 1])

    def sample_raises(x, y, zre, zim):
        # 0.0 / 0.0 at the sample: ZeroDivisionError on floats, NaN in the array pass,
        # which falls back to floats
        return -0.01 * x + 0.0 / (x - x_sample), 0.0, 0.0, 0.0

    def step_raises(x, y, L, theta):
        if x < 0.94:
            raise ValueError("step")
        return velocity(x, y, L, theta)

    with pytest.raises(ValueError, match="step"):
        _core_py.run_flow(velocity, step_raises, start, 10.0, 1e-9, 1e-12, 0.1, 1e-10)
    with pytest.raises(ZeroDivisionError):
        _core_py.run_flow(sample_raises, step_raises, start, 10.0, 1e-9, 1e-12, 0.1, 1e-10)
