"""The benchmark's per-layer metrics read spans of named hcflow functions.

``perfbench/run.py`` names each span as ``layer.function`` or
``layer.Class.method``, and ``perfbench/spans.py`` wraps the functions it
finds under those names.  A renamed or deleted function leaves its metric
"missing" from the benchmark's result line, so this checks every name here,
reading the benchmark files without changing them.
"""
import ast
import importlib
import importlib.util
import re
import shutil
import sys
from pathlib import Path

import pytest

from hcflow import core

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    """Import a benchmark file by path, leaving no cache file beside it."""
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


@pytest.fixture(scope="module")
def spans():
    return _load(ROOT / "perfbench" / "spans.py")


def _span_names(spans) -> set[str]:
    """Every ``layer.name[.attr]`` string that run.py passes to a call, and CORE_FLOW."""
    span = re.compile(rf"({'|'.join(spans.LAYERS)})(\.[A-Za-z_]\w*){{1,2}}")
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    names = {arg.value for node in ast.walk(tree) if isinstance(node, ast.Call)
             for arg in node.args
             if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
             and span.fullmatch(arg.value)}
    return names | set(spans.CORE_FLOW)


def _resolve(name: str):
    layer, *path = name.split(".")
    obj = importlib.import_module(f"hcflow.{layer}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_every_span_the_benchmark_reads_is_hooked(spans):
    names = _span_names(spans)
    # the parse finds the metrics' spans, public and private
    assert {"curvature.curvature_bundle", "cli._execute_run",
            "catalog.GeometryDescriptor.udot", "core.run_closed_flow"} <= names
    hooked = {target for layer in spans.LAYERS
              for target, _, _ in spans._targets(layer, importlib.import_module(f"hcflow.{layer}"))}
    for name in sorted(names):
        assert callable(_resolve(name)), name
        assert name in hooked, name


def test_kernel_timing_runs():
    # perfbench's core.closed_k_ns is bench_kernels.time_kernel(core, n), which
    # calls core.closed_k; a failed import of bench_kernels leaves it missing
    bench_kernels = _load(ROOT / "benchmarks" / "bench_kernels.py")
    assert bench_kernels.time_kernel(core, 1) > 0


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_c_kernel_timing_compiles_the_rendered_header():
    # bench_kernels times hcf_closed_phi in a harness that includes _core_c.c, which needs
    # the header that core.build renders; nothing else compiles that harness
    bench_kernels = _load(ROOT / "benchmarks" / "bench_kernels.py")
    hopf = bench_kernels.KERNEL_POINTS[0]
    [ns] = bench_kernels.c_phi_ns([(hopf[0], bench_kernels.phi_args(*hopf))])
    assert ns > 0
