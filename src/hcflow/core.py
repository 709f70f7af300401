"""Integrator-core selection: compiled extension if available, else pure Python.

Set HCFLOW_PURE_PYTHON=1 before import to force the fallback.  The cross-lane
tests and ``benchmarks/bench_kernels.py`` import the lane modules directly;
``perfbench`` only records ``COMPILED``.
"""
from __future__ import annotations

import os

from ._core_py import (  # noqa: F401  (shared status codes and callable-rhs loop)
    STATUS_EXTINCT,
    STATUS_FAILURE,
    STATUS_REACHED_TMAX,
    run_flow,
)

if os.environ.get("HCFLOW_PURE_PYTHON"):
    COMPILED = False
else:
    try:
        from ._core_cy import closed_k, closed_rhs, run_closed_flow  # noqa: F401
        COMPILED = True
    except ImportError:  # pragma: no cover - depends on build environment
        COMPILED = False

if not COMPILED:
    from ._core_py import closed_k, closed_rhs, run_closed_flow  # noqa: F401
