"""Cross-lane checks: the compiled C loop against the pure-Python reference lane.

The C core is built by ``setup.py build_ext`` into a temporary directory, so
these tests need only a C compiler, and they require the same bits from both
lanes.
"""
import ctypes
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hcflow import _core_py
from hcflow import core
from hcflow.catalog import GEOMETRY_IDS, pack_params, sample_metric, sample_params
from hcflow.geometry import Geometry

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def c_library(tmp_path_factory):
    """Path of the C core, built the way the package builds it."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    out = tmp_path_factory.mktemp("core_c")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
         "--build-temp", str(out / "tmp")], cwd=ROOT, capture_output=True, text=True)
    lib = out / "hcflow" / os.path.basename(core.LIBRARY)
    if not lib.exists():
        pytest.fail(f"the C core did not build:\n{proc.stdout}\n{proc.stderr}")
    return str(lib)


@pytest.fixture(scope="session")
def c_run(c_library):
    return core.bind(c_library)


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
def test_closed_k_lanes_agree_pointwise(geometry, c_library):
    fn = ctypes.CDLL(c_library).hcf_closed_k
    vec = ctypes.POINTER(ctypes.c_double)
    fn.argtypes = [ctypes.c_int, ctypes.c_double, ctypes.c_double, vec, vec]
    fn.restype = ctypes.c_int
    rng = np.random.default_rng(31)
    gid = GEOMETRY_IDS[geometry]
    for _ in range(200):
        p1, p2 = pack_params(sample_params(geometry, rng))
        g = sample_metric(rng)
        state, k = (ctypes.c_double * 4)(g.x, g.y, g.z.real, g.z.imag), (ctypes.c_double * 4)()
        assert fn(gid, p1, p2, state, k) == 0
        assert tuple(k) == _core_py.closed_k(gid, p1, p2, g.x, g.y, g.z.real, g.z.imag)


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


RUNS = [
    pytest.param((2, 0.0, 0.0, (1.0, 1.5, 0.0, 0.0), 10.0, 1e-9, 1e-12, 0.1, 1e-10),
                 id="hopf-diagonal"),
    pytest.param((0, 0.0, 0.0, (1.0, 2.0, 0.1, 0.0), 0.0, 1e-9, 1e-12, 1.0, 1e-10),
                 id="t_max-0"),
    pytest.param((6, 1.0, 2.0, (1.0, 1.0, 0.3, 0.2), 100.0, 1e-9, 1e-12, 0.7, 1e-10, 40),
                 id="max_steps"),
    *_random_runs(2),
]


@pytest.mark.parametrize("args", RUNS)
def test_run_flow_lanes_agree(args, c_run):
    py = _core_py.run_closed_flow(*args)
    c = c_run(*args)
    assert c[0] == py[0] and c[1] == py[1] and c[3:] == py[3:]
    assert [type(v) for v in c] == [type(v) for v in py]
    assert c[2].dtype == py[2].dtype and np.array_equal(c[2], py[2])


@pytest.mark.parametrize("args,error", [
    ((2, 0.0, 0.0, (1e100, 1.0, 0.0, 0.0), 1.0, 1e-9, 1e-12, 0.1, 1e-10), OverflowError),
    ((1, 0.0, 0.0, (1.0, 1.0, 1.0, 0.0), 1.0, 1e-9, 1e-12, 0.1, 1e-10), ZeroDivisionError),
    ((9, 0.0, 0.0, (1.0, 1.0, 0.0, 0.0), 1.0, 1e-9, 1e-12, 0.1, 1e-10), ValueError),
], ids=["overflow", "zero-division", "unknown-geometry"])
def test_run_flow_lanes_raise_alike(args, error, c_run):
    with pytest.raises(error):
        _core_py.run_closed_flow(*args)
    with pytest.raises(error):
        c_run(*args)


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
    assert _core_py._dense_eval([0.5] * 4, [terms] * 4, 1.0) == [1.5] * 4


def test_failure_disambiguation_on_step_underflow():
    # a wall in the vector field away from degeneracy must be reported as an
    # integrator failure, not as extinction
    def rhs(state):
        if state[0] < 0.5:
            return (float("nan"),) * 4
        return (-1.0, 0.0, 0.0, 0.0)

    status, t_est, rows, *_ = _core_py.run_flow(
        rhs, (1.0, 1.0, 0.0, 0.0), 10.0, 1e-9, 1e-12, 0.1, 1e-10)
    assert status == _core_py.STATUS_FAILURE
    assert t_est is None


def test_sampling_grid_is_stride_multiples():
    status, _, rows, *_ = core.run_closed_flow(
        GEOMETRY_IDS[Geometry.TORUS], 0, 0, (1.0, 2.0, 0.1, 0.0),
        5.0, 1e-9, 1e-12, 0.5, 1e-10)
    assert status == core.STATUS_REACHED_TMAX
    assert np.allclose(rows[:, 0], np.arange(0, 5.5, 0.5))
