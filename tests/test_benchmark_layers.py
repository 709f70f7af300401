"""Every per-layer metric of the benchmark has a value on a traced flow.

``perfbench/run.py`` reports a per-layer metric as missing when the span it
reads was never hooked, and a per-call one (such as ``catalog.udot_us``) also
when its function was never called.  A name check alone (see
``test_benchmark_hooks.py``) does not see the second case, so this traces one
immortal t = 1000 flow and one small ``verify --all`` with the benchmark's own
tracer and asks for every per-layer metric.  The benchmark files are read,
not changed.
"""
import json
import sys

import pytest

from test_benchmark_hooks import ROOT, _load


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py, imported with sys.path and sys.modules as they were."""
    path, modules = list(sys.path), set(sys.modules)
    try:
        yield _load(ROOT / "perfbench" / "run.py")
    finally:
        sys.path[:] = path
        for name in ("spans", "workloads"):  # run.py imports them from its own directory
            if name not in modules:
                sys.modules.pop(name, None)


def test_every_per_layer_metric_has_a_value(bench, tmp_path):
    doc = {"schema_version": 1, "geometry": "properly-elliptic", "params": {"lambda": 0.5},
           "g0": {"x": 1.2, "y": 0.9, "z_re": 0.2, "z_im": 0.1}, "t_max": 1000.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    tracer, gate = bench.Tracer(), bench.Gate()
    tracer.install()
    try:
        _, _, size = bench.run_flow(cfg, doc, tmp_path / "run", tuple(bench.ARTEFACTS), gate,
                                    "traced flow", tracer)
        _, _, geometries, _ = bench.run_verify(["verify", "--all", "--samples", "2", "--json"],
                                               gate, "traced verify", tracer)
    finally:
        tracer.uninstall()
    assert gate.attempted == 2 and not gate.failures and gate.correct
    metrics = bench.per_layer_metrics(tracer, [size], geometries)
    assert [name for name, (value, _) in metrics.items() if value is None] == []
    # the analysis calls behind the report's metrics each ran on the flow
    calls = tracer.names("flow")
    for name in ("analysis.classify_gh_limit", "analysis.linear_growth_rate",
                 "analysis.monotonicity_report", "analysis.udot_consistency",
                 "catalog.GeometryDescriptor.udot", "report.analysis_report"):
        assert calls[name][0] >= 1, name
