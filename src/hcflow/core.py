"""Integrator core: the compiled C loop where it builds, else pure Python.

``_core_py`` is the reference lane.  A run starts in Python in both lanes:
``_core_py.fields`` gives an entry's velocity fields, and ``_core_py.start``
the monitor's scale, row 0, the log-polar state, its first velocity and the
initial step.  ``_core_c.c`` is only the step loop: it mirrors
``_core_py._integrate`` operation for operation and gives the same bits, so
the lane changes only speed and ``stats.compiled_core``.  Its closed forms
and integrator constants are ``_core_kernels.h``, which ``build`` generates
from ``_core_py`` with ``_core_gen`` for each compile; the loop is mirrored
by hand.  Both integrate the log-polar state (x, y, log |z|^2, arg z) and
emit Cartesian rows.  The C loop emits each stride sample inside its step;
the Python lane evaluates them after its loop, as arrays with the same
per-sample operations.

Importing this module loads ``LIBRARY``, ``__pycache__/_core_c-<digest>.so``
beside it, where the digest is a CRC-32 of the header's inputs
(``_core_c.c``, ``_core_py.py`` and ``_core_gen.py``), the compiler flags and
the machine type.  When that file is absent, the import first builds it with
``cc`` (``build``; ~0.5 s, once per digest, so a changed source or flag gets
a new file).  Where there is no ``cc``, ``__pycache__`` cannot be written, or
the compiler or the load fails, ``COMPILED`` is False, ``LIBRARY`` is None
and the Python loop runs, silently.  A compiler that fails or times out
leaves ``__pycache__/_core_c-<digest>.failed``, holding its status, and no
later import starts one for that digest; delete the file to try again.

Only the loop of ``run_closed_flow`` is compiled: one ctypes call costs
more than a Python ``closed_k``, so ``closed_k``, ``closed_k_columns`` and
the status codes always come from ``_core_py``, as does ``run_flow``, the
Python loop that ``run_closed_flow`` drives with an entry's kernels.  The
binding passes its buffers as plain pointers, which needs no
``numpy.ctypeslib``.
"""
from __future__ import annotations

import ctypes
import errno
import os
import platform
import shutil
import tempfile
import zlib

import numpy as np

from . import _core_py
from ._core_py import (  # noqa: F401  (re-exported)
    STATUS_EXTINCT, STATUS_FAILURE, STATUS_REACHED_TMAX, closed_k, closed_k_columns,
    run_closed_flow, run_flow)

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(HERE, "_core_c.c")  # includes _core_kernels.h, which build writes
INPUTS = (SOURCE, os.path.join(HERE, "_core_py.py"), os.path.join(HERE, "_core_gen.py"))
# bit-identical to _core_py: -fno-builtin stops gcc folding pow(x, 2.0) into x*x (Python's **
# calls libm pow), and -ffp-contract=off stops it fusing a*b + c
CFLAGS = ("-std=c99", "-O2", "-fno-builtin", "-ffp-contract=off")
SHARED = ("-shared", "-fPIC", "-lm")  # after the source: a library that links libm
BUILD_TIMEOUT_S = 60.0


def _digest() -> str:
    # a CRC-32 tells versions of the sources apart; it is no defence against a crafted file,
    # but whoever can write these can write the package's Python too.  hashlib would add ~3 ms
    # to every import
    crc = 0
    for name in INPUTS:
        with open(name, "rb") as f:
            crc = zlib.crc32(f.read(), crc)
    return f"{zlib.crc32(' '.join((*CFLAGS, *SHARED, platform.machine())).encode(), crc):08x}"


class BuildFailed(OSError):
    """``cc`` ran and failed, or ran longer than ``BUILD_TIMEOUT_S``."""


def write_kernels(directory: str) -> None:
    """Write ``_core_kernels.h``, which ``_core_c.c`` includes, into ``directory``:
    ``_core_gen``'s C text of ``_core_py``'s closed forms and constants."""
    from . import _core_gen  # only a build needs it

    with open(os.path.join(directory, "_core_kernels.h"), "w") as f:
        f.write(_core_gen.render())


def build(dest: str) -> None:
    """Compile ``_core_c.c`` with ``CFLAGS`` into the shared library ``dest``.

    The build runs in a temporary directory beside ``dest``: ``write_kernels``
    writes the header there, and ``cc`` writes the library there, which
    replaces ``dest`` only when the compiler succeeds, so no reader ever sees
    part of a library.  The directory is removed in every case.  Raises
    ``OSError`` where there is no ``cc`` and where ``dest``'s directory cannot
    be written (then no compiler starts), and ``BuildFailed`` where the
    compiler fails or runs longer than ``BUILD_TIMEOUT_S``; then it is killed
    with every process it started.
    """
    import signal  # only a build needs these: they add ~4.5 ms to an import
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        raise FileNotFoundError(errno.ENOENT, "no C compiler on PATH", "cc")
    directory = os.path.dirname(os.path.abspath(dest))
    os.makedirs(directory, exist_ok=True)
    work = tempfile.mkdtemp(prefix=".building-", dir=directory)
    try:
        write_kernels(work)
        tmp = os.path.join(work, os.path.basename(dest))
        cmd = [cc, *CFLAGS, "-I", work, "-o", tmp, SOURCE, *SHARED]
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            status = proc.wait(BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            status = f"still running after {BUILD_TIMEOUT_S} s"
        finally:
            if proc.returncode is None:  # timed out or interrupted: stop cc and what it started
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if status != 0:
            raise BuildFailed(f"{' '.join(cmd)} failed: {status}")
        os.replace(tmp, dest)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bind(path: str):
    """``run_closed_flow`` of the C library at ``path``, with ``_core_py``'s
    signature and results: ``_core_py.start`` gives row 0 and the vector that
    the C step loop starts from."""
    fn = ctypes.CDLL(path).hcf_run_closed_flow
    dbl, long_, pointer = ctypes.c_double, ctypes.c_long, ctypes.c_void_p
    fn.argtypes = [ctypes.c_int, dbl, dbl, pointer, dbl, dbl, dbl, dbl, dbl, long_, pointer, long_,
                   pointer]
    fn.restype = ctypes.c_int
    vector, results = dbl * 13, dbl * 5

    def run_closed_flow(geom, p1, p2, state0, t_max, rel_tol, abs_tol, stride, threshold,
                        max_steps=_core_py.MAX_STEPS):
        rhs, polar_rhs = _core_py.fields(geom, p1, p2)
        state = tuple(float(v) for v in state0)
        status, derivatives0, begin = _core_py.start(rhs, polar_rhs, state, t_max, rel_tol,
                                                     abs_tol)
        row0 = (0.0, *state, *derivatives0)
        if status is not None:
            return status, None, np.array([row0]), 0, 0, begin[-1]
        # samples up to the emission tolerance past t_max, plus t = 0 and the end point
        cap = int(t_max * (1 + 1e-12) / stride) + 3
        rows, out = np.empty((cap, 9)), results()
        rows[0] = row0
        # plain pointers: the buffers are made here, float64 and C-contiguous
        status = fn(geom, p1, p2, vector(*begin), t_max, rel_tol, abs_tol, stride, threshold,
                    max_steps, rows.ctypes.data, cap, out)
        if status > STATUS_FAILURE:  # where _core_py raises
            raise {3: OverflowError(errno.ERANGE, os.strerror(errno.ERANGE)),
                   4: ZeroDivisionError("float division by zero")}.get(
                       status, RuntimeError(f"C core status {status}"))
        n, n_acc, n_rej, t_est, m_final = out
        return (status, None if t_est != t_est else t_est, rows[:int(n)], int(n_acc), int(n_rej),
                m_final)

    return run_closed_flow


def _load():
    """The path of the package's C library, built first if it is absent, and
    its ``run_closed_flow``.  A failed build leaves a ``.failed`` file that
    stops the next imports of the same digest from building again."""
    stem = os.path.join(HERE, "__pycache__", f"_core_c-{_digest()}")
    library = stem + ".so"
    if not os.path.exists(library):
        if os.path.exists(stem + ".failed"):
            raise OSError(f"the build of {library} failed before; see {stem}.failed")
        try:
            build(library)
        except BuildFailed as exc:
            try:
                with open(stem + ".failed", "w") as f:
                    f.write(f"{exc}\n")
            except OSError:
                pass
            raise
    return library, bind(library)


try:
    LIBRARY, run_closed_flow = _load()  # noqa: F811
    COMPILED = True
except OSError:  # no cc, no writable __pycache__, a failed build or load
    LIBRARY, COMPILED = None, False
