"""Integrator core: the compiled C loop when it is built, else pure Python.

``_core_py`` is the reference lane.  ``_core_c.c`` mirrors its
``run_closed_flow`` operation for operation and gives the same bits, so the
lane changes only speed and ``stats.compiled_core``.  Its closed forms and
integrator constants are ``_core_kernels.h``, generated from ``_core_py`` by
``python -m hcflow._core_gen`` (rerun it after changing them there); the loop
is mirrored by hand.  Both integrate the
log-polar state (x, y, log |z|^2, arg z), from the ``log_polar`` start that
the binding computes in Python, and emit Cartesian rows.  The C loop emits
each stride sample inside its step; the Python lane evaluates them after its
loop, as arrays with the same per-sample operations.
``setup.py build_ext`` puts the library next to this module, where
``COMPILED`` finds it.  Only ``run_closed_flow`` is compiled: one ctypes call
costs more than a Python ``closed_k``, so ``closed_k``, ``closed_k_columns``
and the status codes always come from ``_core_py``, as does ``run_flow``, the
Python loop that ``run_closed_flow`` drives with an entry's kernels.
"""
from __future__ import annotations

import ctypes
import errno
import os
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from . import _core_py
from ._core_py import (  # noqa: F401  (re-exported)
    STATUS_EXTINCT, STATUS_FAILURE, STATUS_REACHED_TMAX, closed_k, closed_k_columns,
    run_closed_flow, run_flow)

LIBRARY = os.path.join(os.path.dirname(__file__), "_core_c" + EXTENSION_SUFFIXES[0])


def bind(path: str):
    """``run_closed_flow`` of the C library at ``path``, with ``_core_py``'s signature and results."""
    def vector(n):
        return np.ctypeslib.ndpointer(np.float64, 1, (n,), "C_CONTIGUOUS")

    fn = ctypes.CDLL(path).hcf_run_closed_flow
    dbl, long_ = ctypes.c_double, ctypes.c_long
    fn.argtypes = [ctypes.c_int, dbl, dbl, vector(6), dbl, dbl, dbl, dbl, dbl, long_,
                   np.ctypeslib.ndpointer(np.float64, 2, None, "C_CONTIGUOUS"), long_, vector(5)]
    fn.restype = ctypes.c_int

    def run_closed_flow(geom, p1, p2, state0, t_max, rel_tol, abs_tol, stride, threshold,
                        max_steps=_core_py.MAX_STEPS):
        # samples up to the emission tolerance past t_max, plus t = 0 and the end point
        cap = int(max(t_max, 0.0) * (1 + 1e-12) / stride) + 3
        rows, out = np.empty((cap, 9)), np.empty(5)
        x, y, zre, zim = (float(v) for v in state0)
        start = np.array([x, y, zre, zim, *_core_py.log_polar(zre, zim)])
        status = fn(geom, p1, p2, start, t_max, rel_tol, abs_tol, stride, threshold, max_steps,
                    rows, cap, out)
        if status > STATUS_FAILURE:  # where _core_py raises
            raise {3: OverflowError(errno.ERANGE, os.strerror(errno.ERANGE)),
                   4: ZeroDivisionError("float division by zero"),
                   5: ValueError(f"unknown geometry id {geom}")}.get(
                       status, RuntimeError(f"C core status {status}"))
        t_est = None if np.isnan(out[3]) else float(out[3])
        return status, t_est, rows[:int(out[0])], int(out[1]), int(out[2]), float(out[4])

    return run_closed_flow


COMPILED = os.path.exists(LIBRARY)
if COMPILED:
    run_closed_flow = bind(LIBRARY)  # noqa: F811
