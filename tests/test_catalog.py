import json
import math

import numpy as np
import pytest

from hcflow import _core_py, curvature
from hcflow.algebra import Z1, Z2, ZB2
from hcflow.catalog import (GEOMETRY_IDS, catalog_json, entry, list_geometries, pack_params,
                            sample_metric, sample_metrics, sample_params)
from hcflow.geometry import Geometry, GeometryParams
from hcflow.metric import HermitianMetric
from hcflow.verify import _scale, run_verification, verify_geometry

from conftest import ALL_GEOMETRIES
from oracles import PUBLISHED_TABLES


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


def _reduced_systems(p1, x, y):
    """(K11, K22) of each entry at u = 0, where the flow is x' = -K11, y' = -K22
    (ROADMAP item 13); p1 is lambda or a, and c = 1 + lambda^2."""
    c = 1 + p1**2
    kodaira = (-2 * y / x, y**2 / x**2)
    return {Geometry.TORUS: (0, 0), Geometry.HYPERELLIPTIC: (0, 0),
            Geometry.HOPF: (c * x**2 / y**2, 2 - 2 * c * x / y),
            Geometry.PROPERLY_ELLIPTIC: (-2 - 2 * c * y / x, c * y**2 / x**2),
            Geometry.KODAIRA_PRIMARY: kodaira, Geometry.KODAIRA_SECONDARY: kodaira,
            Geometry.INOUE_S0: (0, -8 * p1**2), Geometry.INOUE_SPM_J1: (-3, 0),
            Geometry.INOUE_SP_J2: (-3 - 2 * y / x, y**2 / x**2)}


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_phi_kernel_at_u_zero_gives_the_reduced_system(geometry, monkeypatch):
    # the phi kernel on symbols, with sympy's sin and cos for math's: phi is finite
    # for x, y > 0, so u' = u L' = -2 u Re phi keeps u = 0, and (K11, K22) there is
    # the reduced system.  An entry with a constant nonzero rate (x' or y') grows that
    # coefficient linearly, and its circle length is the rate's root
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", positive=True)
    p1, p2, theta = sympy.symbols("p1 p2 theta", real=True)
    functions = {math.sin: sympy.sin, math.cos: sympy.cos}
    monkeypatch.setattr(_core_py, "_libm", lambda fn, v: functions[fn](v))
    k11, k22, phi_re, phi_im = (
        sympy.simplify(sympy.nsimplify(sympy.sympify(v), rational=True))
        for v in _core_py._PHI[GEOMETRY_IDS[geometry]](p1, p2, x, y, 0, theta))
    assert phi_re.is_finite and phi_im.is_finite
    expected = _reduced_systems(p1, x, y)[geometry]
    assert [sympy.simplify(k - e) for k, e in zip((k11, k22), expected)] == [0, 0]
    rates = [-k for k in (k11, k22) if k != 0 and not k.has(x, y)]
    assert bool(rates) == (geometry in (Geometry.INOUE_S0, Geometry.INOUE_SPM_J1))
    for seed in range(3) if rates else ():
        params = sample_params(geometry, np.random.default_rng(seed))
        root = sympy.sqrt(rates[0]).subs(dict(zip((p1, p2), pack_params(params))))
        assert entry(geometry).expected_circle_length(params) == pytest.approx(float(root))


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
# the published component tables (tests/oracles.py) against the engine
# ---------------------------------------------------------------------------

#: the (entry, table) pairs whose published table differs from the engine's:
#: by 0.68 relative or more over seeds 0-9, where the other 27 agree to 2e-14
TABLE_MISSES = {
    (Geometry.HOPF, "Q1"), (Geometry.HOPF, "Q2"), (Geometry.HOPF, "Q3"),
    (Geometry.PROPERLY_ELLIPTIC, "S"), (Geometry.PROPERLY_ELLIPTIC, "Q3"),
    (Geometry.PROPERLY_ELLIPTIC, "Q4"),
    (Geometry.KODAIRA_SECONDARY, "S"),
    (Geometry.INOUE_S0, "S"), (Geometry.INOUE_S0, "Q2"), (Geometry.INOUE_S0, "Q4"),
    (Geometry.INOUE_SPM_J1, "Q1"),
    (Geometry.INOUE_SP_J2, "S"), (Geometry.INOUE_SP_J2, "Q3"),
}
TABLE_NAMES = ("S", "Q1", "Q2", "Q3", "Q4")


@pytest.mark.parametrize("geometry,name", [(g, n) for g in PUBLISHED_TABLES for n in TABLE_NAMES],
                         ids=lambda v: getattr(v, "value", v))
def test_published_table_agrees_with_the_engine_except_the_known_misses(geometry, name):
    # the largest componentwise difference over 25 metrics, relative to the engine's scale
    rng = np.random.default_rng(4)
    params = sample_params(geometry, rng)
    rows = sample_metrics(rng, 25)
    mu = entry(geometry).structure_constants(params)
    engine = getattr(curvature.curvature_bundle(mu, rows), name)
    published = PUBLISHED_TABLES[geometry]
    table = np.array([published(params, HermitianMetric(x, y, complex(zr, zi)))[name]
                      for x, y, zr, zi in rows.tolist()])
    diff = np.max(np.abs(table - engine), axis=(-2, -1)) / _scale(engine)
    if (geometry, name) in TABLE_MISSES:
        assert np.max(diff) > 1e-2
    else:
        assert np.max(diff) <= 1e-12


def test_appendix_tables_hyperelliptic_frozen_point():
    tables = PUBLISHED_TABLES[Geometry.HYPERELLIPTIC](
        GeometryParams(Geometry.HYPERELLIPTIC), HermitianMetric(1, 1, 0.5))
    assert tables["Q2"][1, 1].real == pytest.approx(2 / 3)


def test_appendix_tables_kodaira_primary_frozen_point():
    tables = PUBLISHED_TABLES[Geometry.KODAIRA_PRIMARY](
        GeometryParams(Geometry.KODAIRA_PRIMARY), HermitianMetric(1, 1, 0))
    assert np.allclose(tables["S"], np.diag([-1.0, 1.0]))
    assert np.allclose(tables["Q2"], np.diag([2.0, 0.0]))
    assert np.allclose(tables["Q4"], np.diag([1.0, 0.0]))


def test_run_verification_aggregates():
    report = run_verification(samples=20, seed=1)
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
