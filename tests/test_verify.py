import hashlib
import json

import numpy as np
import pytest

from hcflow import catalog, cli
from hcflow.algebra import StructureConstants
from hcflow.catalog import entry, sample_metric, sample_params
from hcflow.curvature import curvature_bundle
from hcflow.geometry import Geometry
from hcflow.verify import CHUNK, verify_geometry, verify_structure_constants

from conftest import ALL_GEOMETRIES

# SHA-256 (first 16 hex digits) of `hcflow verify ... --json` stdout, recorded
# with the one-metric-at-a-time engine that the stacked engine replaced
PINNED_VERIFY = {
    "seed-1": (["--all", "--samples", "100", "--seed", "1"], "933a9e46fdecbc7e"),
    "seed-2": (["--all", "--samples", "100", "--seed", "2"], "771a10d1a4c08f3d"),
    "seed-3": (["--all", "--samples", "100", "--seed", "3"], "92c66a2de48df0ef"),
    "appendix": (["--all", "--samples", "25", "--seed", "5", "--appendix"], "4d86a946caa3d513"),
    "no-samples": (["--all", "--samples", "0", "--seed", "1"], "bfe1983cb4f95412"),
}


@pytest.mark.parametrize("argv,digest", PINNED_VERIFY.values(), ids=PINNED_VERIFY.keys())
def test_verify_json_bits_pinned(capsys, argv, digest):
    assert cli.main(["verify", *argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


BUNDLE_FIELDS = ("gamma_h", "torsion", "S", "Q1", "Q2", "Q3", "Q4", "Q", "K")


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_stacked_bundle_equals_one_at_a_time_bitwise(geometry):
    rng = np.random.default_rng([11, list(Geometry).index(geometry)])
    mu = entry(geometry).structure_constants(sample_params(geometry, rng))
    for n in (1, 2, 7, CHUNK + 1):
        metrics = [sample_metric(rng) for _ in range(n)]
        stacked = curvature_bundle(mu, metrics)
        assert stacked.K.shape == (n, 2, 2)
        for i, g in enumerate(metrics):
            one = curvature_bundle(mu, g)
            for name in BUNDLE_FIELDS:
                assert getattr(stacked, name)[i].tobytes() == getattr(one, name).tobytes(), name


def _nan_on_third_call(monkeypatch):
    original, calls = catalog.core.closed_k, []

    def closed_k(*args):
        calls.append(args)
        k11, *rest = original(*args)
        return (float("nan") if len(calls) == 3 else k11, *rest)

    monkeypatch.setattr(catalog.core, "closed_k", closed_k)


def test_verify_fails_closed_on_nan(monkeypatch):
    _nan_on_third_call(monkeypatch)
    result = verify_geometry(Geometry.HOPF, 10, 1)
    assert result["passed"] is False
    assert result["max_rel_error"] is None


def test_verify_cli_nan_exits_1_and_prints_null(monkeypatch, capsys):
    _nan_on_third_call(monkeypatch)
    assert cli.main(["verify", "--geometry", "hopf", "--samples", "10", "--seed", "1",
                     "--json"]) == 1
    out = capsys.readouterr().out
    assert "NaN" not in out
    assert json.loads(out)["geometries"][0]["max_rel_error"] is None


def test_verify_cli_nan_text_report(monkeypatch, capsys):
    _nan_on_third_call(monkeypatch)
    assert cli.main(["verify", "--geometry", "hopf", "--samples", "10", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "max_rel_error=non-finite" in out and "FAIL" in out


def _jacobi_nan_on_third_draw(monkeypatch):
    original, calls = StructureConstants.jacobi_violation, []

    def jacobi_violation(self):
        calls.append(self)
        return float("nan") if len(calls) == 3 else original(self)

    monkeypatch.setattr(StructureConstants, "jacobi_violation", jacobi_violation)


def test_structure_constants_fail_closed_on_nan(monkeypatch):
    # Python's max(0.0, nan) is 0.0, so a NaN after the first draw used to vanish
    _jacobi_nan_on_third_draw(monkeypatch)
    result = verify_structure_constants(Geometry.HOPF, 20, 1)
    assert result["passed"] is False
    assert result["violations"]["jacobi"] is None
    assert result["violations"]["reality"] == 0.0


def test_structure_constants_nan_in_cli_output(monkeypatch, capsys):
    _jacobi_nan_on_third_draw(monkeypatch)
    cli.main(["verify", "--geometry", "hopf", "--samples", "1", "--seed", "1", "--json"])
    out = capsys.readouterr().out
    assert "NaN" not in out
    assert json.loads(out)["geometries"][0]["structure_constants"]["violations"]["jacobi"] is None
    _jacobi_nan_on_third_draw(monkeypatch)
    cli.main(["verify", "--geometry", "hopf", "--samples", "1", "--seed", "1"])
    assert "jacobi=non-finite" in capsys.readouterr().out
