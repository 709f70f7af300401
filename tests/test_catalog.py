import json

import numpy as np
import pytest

from hcflow import _core_py, curvature
from hcflow.algebra import Z1, Z2, ZB2
from hcflow.catalog import (GEOMETRY_IDS, catalog_json, entry, list_geometries,
                            sample_metric, sample_params)
from hcflow.geometry import Geometry, GeometryParams
from hcflow.metric import HermitianMetric
from hcflow.verify import appendix_diff, run_verification, verify_geometry

from conftest import ALL_GEOMETRIES


def test_catalog_has_nine_entries():
    entries = list_geometries()
    assert len(entries) == 9
    assert {d.geometry for d in entries} == set(Geometry)


def test_expected_labels():
    assert entry(Geometry.HOPF).expected_outcome == "extinct"
    assert entry(Geometry.HOPF).expected_limit == "finite-time-collapse"
    assert entry(Geometry.INOUE_S0).expected_limit == "circle"
    assert entry(Geometry.PROPERLY_ELLIPTIC).expected_limit == "kaehler-einstein-curve"
    for geom in (Geometry.TORUS, Geometry.HYPERELLIPTIC,
                 Geometry.KODAIRA_PRIMARY, Geometry.KODAIRA_SECONDARY):
        assert entry(geom).expected_limit == "point"
    length = entry(Geometry.INOUE_S0).expected_circle_length(
        GeometryParams(Geometry.INOUE_S0, a=1.0, b=2.0))
    assert length == pytest.approx(2 * np.sqrt(2))
    assert entry(Geometry.INOUE_SPM_J1).expected_circle_length(
        GeometryParams(Geometry.INOUE_SPM_J1)) == pytest.approx(np.sqrt(3))


def test_catalog_json_round_trips():
    doc = catalog_json()
    assert len(doc) == 9
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == json.loads(json.dumps(doc, sort_keys=True))
    hopf = next(e for e in doc if e["id"] == "hopf")
    assert hopf["expected_outcome"] == "extinct"
    assert hopf["params"] == [{"name": "lambda", "constraint": "any real"}]


# ---------------------------------------------------------------------------
# structure constants per geometry
# ---------------------------------------------------------------------------

def test_torus_brackets_vanish():
    mu = entry(Geometry.TORUS).structure_constants(GeometryParams(Geometry.TORUS)).mu
    assert np.all(mu == 0)


def test_hopf_brackets():
    mu = entry(Geometry.HOPF).structure_constants(
        GeometryParams(Geometry.HOPF, lam=0.0)).mu
    assert np.all(mu[Z1, Z2] == [0, 1, 0, 0])        # [Z1, Z2] = Z2
    assert np.all(mu[Z1, ZB2] == [0, 0, 0, -1])      # [Z1, conj Z2] = -conj Z2
    assert np.all(mu[Z2, ZB2] == [-1, 0, 1, 0])      # [Z2, conj Z2] = -Z1 + conj Z1


def test_inoue_s0_brackets():
    mu = entry(Geometry.INOUE_S0).structure_constants(
        GeometryParams(Geometry.INOUE_S0, a=1.0, b=1.0)).mu
    assert np.all(mu[Z1, Z2] == [-(1 + 1j), 0, 0, 0])
    assert np.all(mu[Z1, ZB2] == [1 + 1j, 0, 0, 0])
    assert np.all(mu[Z2, ZB2] == [0, -2j, 0, -2j])


# ---------------------------------------------------------------------------
# closed-form flow tensors
# ---------------------------------------------------------------------------

def test_closed_form_hyperelliptic_frozen_point():
    k = entry(Geometry.HYPERELLIPTIC).closed_form_K(
        GeometryParams(Geometry.HYPERELLIPTIC), HermitianMetric(1, 1, 0.5))
    assert k[0, 0].real == pytest.approx(4 / 9)
    assert k[1, 1].real == pytest.approx(1 / 9)
    assert k[0, 1] == pytest.approx(8 / 9)


def test_closed_form_hopf_ray_point():
    k = entry(Geometry.HOPF).closed_form_K(
        GeometryParams(Geometry.HOPF, lam=0.0), HermitianMetric(1, 1.5, 0))
    assert np.allclose(k, np.diag([4 / 9, 2 / 3]), atol=1e-15)


def test_closed_form_inoue_j1_diagonal_point():
    k = entry(Geometry.INOUE_SPM_J1).closed_form_K(
        GeometryParams(Geometry.INOUE_SPM_J1), HermitianMetric(1, 1, 0))
    assert np.allclose(k, np.diag([-3.0, 0.0]), atol=1e-15)


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_oracle_agreement(geometry):
    # the central correctness property: closed form == contraction engine
    report = verify_geometry(geometry, samples=50, seed=17)
    assert report["passed"], report
    assert report["max_rel_error"] <= 1e-9


def test_secondary_kodaira_both_complex_structures():
    for eps in (1, -1):
        report = verify_geometry(
            Geometry.KODAIRA_SECONDARY, samples=50, seed=23,
            params=GeometryParams(Geometry.KODAIRA_SECONDARY, epsilon=eps))
        assert report["passed"]


#: each entry once, with its parameters symbolic (None) or, for epsilon, both values
_EXACT_CASES = [(Geometry.TORUS, {}), (Geometry.HYPERELLIPTIC, {}), (Geometry.HOPF, {"lam": None}),
                (Geometry.PROPERLY_ELLIPTIC, {"lam": None}), (Geometry.KODAIRA_PRIMARY, {}),
                (Geometry.KODAIRA_SECONDARY, {"epsilon": 1}),
                (Geometry.KODAIRA_SECONDARY, {"epsilon": -1}),
                (Geometry.INOUE_S0, {"a": None, "b": None}), (Geometry.INOUE_SPM_J1, {}),
                (Geometry.INOUE_SP_J2, {})]


@pytest.mark.parametrize("geometry,params", [pytest.param(
    g, p, id=g.value + "".join(f"-epsilon{v:+d}" for k, v in p.items() if k == "epsilon"))
    for g, p in _EXACT_CASES])
def test_engine_equals_closed_form_identically(geometry, params):
    # K_engine - K_closed is 0 as a function of (x, y, Re z, Im z) and the
    # parameters: the engine's own contractions run on sympy object arrays, with
    # B = adj(A) / D as np.linalg.inv takes no objects, and the closed form is the
    # Cartesian kernel on symbols.  Every float literal on either side (0.5, 1.0,
    # -3.0, ...) is a dyadic rational, which nsimplify reads exactly
    sympy = pytest.importorskip("sympy")
    x, y, zre, zim, *symbols = sympy.symbols("x y z_re z_im lam a b", real=True)
    kwargs = {k: dict(zip(("lam", "a", "b"), symbols))[k] if v is None else v
              for k, v in params.items()}
    z, zbar = zre + sympy.I * zim, zre - sympy.I * zim
    A = np.array([[x, z], [zbar, y]], dtype=object)
    B = np.array([[y, -z], [-zbar, x]], dtype=object) / (x * y - zre**2 - zim**2)
    K = curvature._contract(A, B, entry(geometry)._mu(**kwargs)).K
    p1, p2, *_ = (*kwargs.values(), 0, 0)
    k11, k22, k12re, k12im = _core_py._KERNELS[GEOMETRY_IDS[geometry]](p1, p2, x, y, zre, zim)
    closed = ((k11, k12re + sympy.I * k12im), (k12re - sympy.I * k12im, k22))
    for i in range(2):
        for j in range(2):
            difference = sympy.nsimplify(sympy.sympify(K[i, j] - closed[i][j]), rational=True)
            assert sympy.expand(sympy.numer(sympy.together(difference))) == 0, (i, j)


def test_hyperelliptic_kaehler_locus():
    desc = entry(Geometry.HYPERELLIPTIC)
    params = GeometryParams(Geometry.HYPERELLIPTIC)
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = sample_metric(rng)
        k = desc.closed_form_K(params, g)
        diagonal = HermitianMetric(g.x, g.y, 0.0)
        assert np.max(np.abs(desc.closed_form_K(params, diagonal))) == 0.0
        if abs(g.z) > 1e-6:
            assert np.max(np.abs(k)) > 0.0


def test_diagonal_metrics_have_diagonal_k():
    # every off-diagonal closed-form component carries a factor of z
    rng = np.random.default_rng(3)
    for geometry in ALL_GEOMETRIES:
        params = sample_params(geometry, rng)
        g = HermitianMetric(1.7, 0.9, 0.0)
        k = entry(geometry).closed_form_K(params, g)
        assert abs(k[0, 1]) == 0.0


# ---------------------------------------------------------------------------
# published component tables (report-only diagnostics)
# ---------------------------------------------------------------------------

def test_appendix_tables_hyperelliptic_frozen_point():
    tables = entry(Geometry.HYPERELLIPTIC).appendix_tables(
        GeometryParams(Geometry.HYPERELLIPTIC), HermitianMetric(1, 1, 0.5))
    assert tables["Q2"][1, 1].real == pytest.approx(2 / 3)


def test_appendix_tables_kodaira_primary_frozen_point():
    tables = entry(Geometry.KODAIRA_PRIMARY).appendix_tables(
        GeometryParams(Geometry.KODAIRA_PRIMARY), HermitianMetric(1, 1, 0))
    assert np.allclose(tables["S"], np.diag([-1.0, 1.0]))
    assert np.allclose(tables["Q2"], np.diag([2.0, 0.0]))
    assert np.allclose(tables["Q4"], np.diag([1.0, 0.0]))


def test_appendix_tables_none_for_torus():
    assert entry(Geometry.TORUS).appendix_tables(
        GeometryParams(Geometry.TORUS), HermitianMetric(1, 1, 0)) is None


def test_appendix_diff_clean_geometries_assemble_to_k():
    # these published tables are internally consistent and reassemble the
    # closed-form flow tensor exactly
    for geometry in (Geometry.HYPERELLIPTIC, Geometry.KODAIRA_PRIMARY):
        report = appendix_diff(geometry, samples=15, seed=4)
        assert report["assembled_K_vs_closed_form"] <= 1e-12
        for table in report["tables"].values():
            assert table["max_rel_diff"] <= 1e-12


def test_appendix_diff_reports_hopf_q1_discrepancy_without_failing():
    # a known dimensional inconsistency in the published Hopf Q1 column:
    # the diff harness must surface it as data, not as a failure
    report = appendix_diff(Geometry.HOPF, samples=15, seed=4)
    assert report["tables"]["Q1"]["per_component"][1][1] > 0.01
    assert report["tables"]["S"]["max_rel_diff"] <= 1e-12
    assert report["tables"]["Q4"]["max_rel_diff"] <= 1e-12


def test_appendix_diff_is_json_serializable():
    report = appendix_diff(Geometry.INOUE_SP_J2, samples=5, seed=6)
    json.dumps(report, sort_keys=True)


def test_run_verification_aggregates():
    report = run_verification(samples=20, seed=1, include_appendix=False)
    assert report["passed"]
    assert len(report["geometries"]) == 9
    for item in report["geometries"]:
        assert item["structure_constants"]["passed"]


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_closed_form_K_of_a_huge_positive_metric_is_non_finite_not_an_error(geometry):
    # x y and |z|^2 overflow: the metric is positive, and the kernel's inf - inf is NaN
    desc, params = entry(geometry), sample_params(geometry, np.random.default_rng(0))
    g = HermitianMetric(1e200, 1e200, 1e199)
    for K in (desc.closed_form_K(params, g), desc.closed_form_K(params, [g, g])[1]):
        assert K.shape == (2, 2)
        assert np.isfinite(K).all() == (geometry is Geometry.TORUS)
