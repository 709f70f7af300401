import hashlib
import json
import math

import numpy as np
import pytest

from hcflow import algebra, catalog, cli, curvature
from hcflow.algebra import StructureConstants
from hcflow.catalog import entry, sample_metric, sample_metrics, sample_params
from hcflow.curvature import CurvatureBundle, curvature_bundle
from hcflow.geometry import Geometry, GeometryParams
from hcflow.metric import (POSITIVITY_MARGIN, DegenerateMetricError, HermitianMetric,
                           metric_rows)
from hcflow.verify import CHUNK, verify_geometry, verify_structure_constants

from conftest import ALL_GEOMETRIES
from oracles import verification_one_geometry_at_a_time

# SHA-256 (first 16 hex digits) of `hcflow verify ... --json` stdout, recorded
# with the one-metric-at-a-time engine that the stacked engine replaced
PINNED_VERIFY = {
    "seed-1": (["--all", "--samples", "100", "--seed", "1"], "933a9e46fdecbc7e"),
    "seed-2": (["--all", "--samples", "100", "--seed", "2"], "771a10d1a4c08f3d"),
    "seed-3": (["--all", "--samples", "100", "--seed", "3"], "92c66a2de48df0ef"),
    "no-samples": (["--all", "--samples", "0", "--seed", "1"], "bfe1983cb4f95412"),
}


@pytest.mark.parametrize("argv,digest", PINNED_VERIFY.values(), ids=PINNED_VERIFY.keys())
def test_verify_json_bits_pinned(capsys, argv, digest):
    assert cli.main(["verify", *argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


BUNDLE_FIELDS = ("gamma_h", "torsion", "S", "Q1", "Q2", "Q3", "Q4", "Q", "K")


def _assert_stacked_slices_equal_one_metric_calls(mu, rng):
    for n in (1, 2, 7, CHUNK + 1):
        metrics = [sample_metric(rng) for _ in range(n)]
        stacked = curvature_bundle(mu, metrics)
        assert stacked.K.shape == (n, 2, 2)
        from_rows = curvature_bundle(mu, metric_rows(metrics))
        for name in CurvatureBundle.__dataclass_fields__:
            assert getattr(from_rows, name).tobytes() == getattr(stacked, name).tobytes(), name
        for i, g in enumerate(metrics):
            one = curvature_bundle(mu, g)
            for name in BUNDLE_FIELDS:
                assert getattr(stacked, name)[i].tobytes() == getattr(one, name).tobytes(), name


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_stacked_bundle_equals_one_at_a_time_bitwise(geometry):
    rng = np.random.default_rng([11, list(Geometry).index(geometry)])
    for _ in range(3):
        mu = entry(geometry).structure_constants(sample_params(geometry, rng))
        _assert_stacked_slices_equal_one_metric_calls(mu, rng)


@pytest.mark.parametrize("seed", range(3))
def test_stacked_bundle_equals_one_at_a_time_bitwise_for_dense_mu(seed):
    # every component nonzero: the catalog's sparse mu would hide a contraction
    # whose summation order depends on the metric axis' place
    rng = np.random.default_rng([12, seed])
    mu = StructureConstants(rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4)))
    _assert_stacked_slices_equal_one_metric_calls(mu, rng)


def _sample_metric_one_draw_at_a_time(rng, diag_range=(0.1, 10.0), max_fill=0.95):
    """The reference draw: four scalar Generator.uniform calls per metric."""
    lo, hi = math.log(diag_range[0]), math.log(diag_range[1])
    x, y = np.exp(rng.uniform(lo, hi, size=2))
    r = math.sqrt(rng.uniform(0.0, max_fill * x * y))
    phi = rng.uniform(0.0, 2 * math.pi)
    return HermitianMetric(float(x), float(y), complex(r * math.cos(phi), r * math.sin(phi)))


@pytest.mark.parametrize("n", [1, 2, 7, CHUNK + 1])
@pytest.mark.parametrize("kwargs", [{}, {"diag_range": (0.6, 1.5), "max_fill": 0.5}],
                         ids=["default", "narrow"])
def test_stacked_draw_equals_one_draw_at_a_time_bitwise(n, kwargs):
    stacked_rng, one_rng = np.random.default_rng(14), np.random.default_rng(14)
    rows = sample_metrics(stacked_rng, n, **kwargs)
    expected = metric_rows([_sample_metric_one_draw_at_a_time(one_rng, **kwargs)
                            for _ in range(n)])
    assert rows.shape == (n, 4) and rows.tobytes() == expected.tobytes()
    assert stacked_rng.bit_generator.state == one_rng.bit_generator.state
    g = sample_metric(stacked_rng, **kwargs)
    assert g == _sample_metric_one_draw_at_a_time(one_rng, **kwargs)


def test_stacked_matrices_set_each_part_as_metric_matrix_does():
    # conj(z) of an Im z = +-0.0 has the opposite zero
    metrics = [HermitianMetric(2.0, 3.0, 0.5 + 0.25j), HermitianMetric(2.0, 3.0, 0.5),
               HermitianMetric(2.0, 3.0, complex(-0.5, -0.0)), HermitianMetric(1.0, 1.0, 0.0)]
    A, B = curvature._matrices(metric_rows(metrics), 0.0)
    expected = np.array([h.matrix() for h in metrics])
    assert A.tobytes() == expected.tobytes()
    assert B.tobytes() == np.linalg.inv(expected).tobytes()
    one, _ = curvature._matrices(metrics[1], 0.0)
    assert one.tobytes() == metrics[1].matrix().tobytes()


def _error_message(metric, margin=POSITIVITY_MARGIN):
    with pytest.raises(DegenerateMetricError) as info:
        metric.require_positive(margin)
    return str(info.value)


@pytest.mark.parametrize("bad", [
    HermitianMetric(1.0, 1.0, 1.0), HermitianMetric(-1.0, 2.0, 0.0),
    HermitianMetric(1.0, float("nan"), 0.0), HermitianMetric(1.0, 1.0, 1j * (1 - 1e-13)),
], ids=["singular", "negative", "nan", "inside-margin"])
def test_degenerate_row_raises_require_positive_message(bad):
    desc, params = entry(Geometry.HOPF), GeometryParams(Geometry.HOPF, lam=0.5)
    mu = desc.structure_constants(params)
    good = [HermitianMetric(2.0, 3.0, 0.5 + 0.25j), HermitianMetric(1.0, 2.0, 0.1j)]
    # the first degenerate metric raises, not a later one
    metrics = [good[0], bad, good[1], HermitianMetric(1.0, 1.0, 2.0)]
    for g in (metrics, metric_rows(metrics)):
        for call in (lambda: curvature_bundle(mu, g), lambda: desc.closed_form_K(params, g)):
            with pytest.raises(DegenerateMetricError) as info:
                call()
            assert str(info.value) == _error_message(bad)


def test_degenerate_row_message_carries_the_margin():
    mu = entry(Geometry.TORUS).structure_constants(GeometryParams(Geometry.TORUS))
    bad = HermitianMetric(1.0, 1.0, 0.8)  # D = 0.36 < 0.5 * x * y
    with pytest.raises(DegenerateMetricError) as info:
        curvature_bundle(mu, metric_rows([HermitianMetric(2.0, 3.0), bad]), margin=0.5)
    assert str(info.value) == _error_message(bad, 0.5)


def test_metric_rows_reject_other_shapes():
    for shape in ((4,), (3, 3), (2, 4, 1)):
        with pytest.raises(ValueError, match="shape"):
            metric_rows(np.ones(shape))


HYGIENE_CHECKS = ("antisymmetry_violation", "reality_violation",
                  "integrability_violation", "jacobi_violation")


def _perturbed_mus(geometry, rng, n):
    """n structure constants of the geometry, each perturbed so that every check is nonzero."""
    desc = entry(geometry)
    return np.array([desc.structure_constants(sample_params(geometry, rng)).mu
                     + 1e-3 * (rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4)))
                     for _ in range(n)])


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_stacked_hygiene_checks_equal_one_at_a_time_bitwise(geometry):
    rng = np.random.default_rng([12, list(Geometry).index(geometry)])
    for n in (1, 2, 7, CHUNK + 1):
        mus = _perturbed_mus(geometry, rng, n)
        for name in HYGIENE_CHECKS:
            stacked = getattr(algebra, name)(mus)
            assert stacked.shape == (n,)
            for i, mu in enumerate(mus):
                one = getattr(algebra, name)(StructureConstants(mu).mu)
                assert stacked[i].tobytes() == np.float64(one).tobytes(), name


def test_hygiene_checks_propagate_nan_in_one_slice():
    mus = _perturbed_mus(Geometry.HOPF, np.random.default_rng(4), 3)
    clean = {name: getattr(algebra, name)(mus) for name in HYGIENE_CHECKS}
    mus[1, 0, 1, 2] = np.nan  # an integrability slot, so all four checks see it
    for name in HYGIENE_CHECKS:
        values = getattr(algebra, name)(mus)
        assert np.isnan(values[1]), name
        assert values[[0, 2]].tobytes() == clean[name][[0, 2]].tobytes(), name


def _closed_form_K_one_at_a_time(geometry, params, g):
    """The 2x2 closed form from one scalar kernel call (the reference)."""
    p1, p2 = catalog.pack_params(params)
    k11, k22, k12re, k12im = catalog.core.closed_k(
        catalog.GEOMETRY_IDS[geometry], p1, p2, g.x, g.y, g.z.real, g.z.imag)
    k12 = complex(k12re, k12im)
    return np.array([[k11, k12], [np.conjugate(k12), k22]], dtype=complex)


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_stacked_closed_form_K_equals_one_at_a_time_bitwise(geometry):
    rng = np.random.default_rng([13, list(Geometry).index(geometry)])
    desc = entry(geometry)
    params = sample_params(geometry, rng)
    for n in (1, 2, 7, CHUNK + 1):
        metrics = [sample_metric(rng) for _ in range(n)]
        stacked = desc.closed_form_K(params, metrics)
        assert stacked.shape == (n, 2, 2)
        assert desc.closed_form_K(params, metric_rows(metrics)).tobytes() == stacked.tobytes()
        for i, g in enumerate(metrics):
            one = _closed_form_K_one_at_a_time(geometry, params, g)
            assert stacked[i].tobytes() == one.tobytes()
            assert desc.closed_form_K(params, g).tobytes() == one.tobytes()


def test_stacked_closed_form_K_propagates_nan_in_one_slice():
    # d**2 overflows at x = 1e300, where the scalar kernel raises
    desc, params = entry(Geometry.HOPF), GeometryParams(Geometry.HOPF, lam=0.5)
    metrics = [HermitianMetric(1.0, 2.0, 0.5j), HermitianMetric(1e300, 1.0, 0.0),
               HermitianMetric(3.0, 1.0, 0.25)]
    with pytest.raises(OverflowError):
        _closed_form_K_one_at_a_time(Geometry.HOPF, params, metrics[1])
    K = desc.closed_form_K(params, metrics)
    assert np.isnan(K[1]).any()
    for i in (0, 2):
        assert K[i].tobytes() == _closed_form_K_one_at_a_time(
            Geometry.HOPF, params, metrics[i]).tobytes()


def _nan_on_third_metric(monkeypatch):
    original = catalog.core.closed_k_columns

    def closed_k_columns(*args):
        k11, *rest = original(*args)
        k11 = np.array(k11)
        k11[2] = float("nan")
        return (k11, *rest)

    monkeypatch.setattr(catalog.core, "closed_k_columns", closed_k_columns)


def test_verify_fails_closed_on_nan(monkeypatch):
    _nan_on_third_metric(monkeypatch)
    result = verify_geometry(Geometry.HOPF, 10, 1)
    assert result["passed"] is False
    assert result["max_rel_error"] is None


def test_verify_cli_nan_exits_1_and_prints_null(monkeypatch, capsys):
    _nan_on_third_metric(monkeypatch)
    assert cli.main(["verify", "--geometry", "hopf", "--samples", "10", "--seed", "1",
                     "--json"]) == 1
    out = capsys.readouterr().out
    assert "NaN" not in out
    assert json.loads(out)["geometries"][0]["max_rel_error"] is None


def test_verify_cli_nan_text_report(monkeypatch, capsys):
    _nan_on_third_metric(monkeypatch)
    assert cli.main(["verify", "--geometry", "hopf", "--samples", "10", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "max_rel_error=non-finite" in out and "FAIL" in out


def _jacobi_nan_on_third_draw(monkeypatch):
    original = algebra.jacobi_violation

    def jacobi_violation(mu):
        values = original(mu)
        values[2] = float("nan")
        return values

    monkeypatch.setattr(algebra, "jacobi_violation", jacobi_violation)


def test_structure_constants_fail_closed_on_nan(monkeypatch):
    # Python's max(0.0, nan) is 0.0, so a NaN after the first draw used to vanish
    _jacobi_nan_on_third_draw(monkeypatch)
    result = verify_structure_constants([Geometry.HOPF], 20, 1)[0]
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


def _catalog_and_dense_mus(rng):
    """One algebra per catalog entry, then a dense random one."""
    mus = [entry(g).structure_constants(sample_params(g, rng)).mu for g in ALL_GEOMETRIES]
    return mus + [rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))]


@pytest.mark.parametrize("per_algebra", [1, 37, 100])
def test_per_metric_mu_slices_equal_one_metric_calls_bitwise(per_algebra):
    # the metrics of each algebra in turn, cut into CHUNK-row calls as verify cuts them,
    # so a call holds the tail of one algebra's metrics and the head of the next's
    rng = np.random.default_rng([15, per_algebra])
    mus = _catalog_and_dense_mus(rng)
    stack = np.repeat(np.array(mus), per_algebra, axis=0)
    rows = sample_metrics(rng, len(stack))
    for start in range(0, len(rows), CHUNK):
        part = slice(start, start + CHUNK)
        stacked = curvature_bundle(StructureConstants(stack[part]), rows[part])
        assert stacked.gamma_b.shape == (len(rows[part]), 2, 2, 2)
        for i, (x, y, z_re, z_im) in enumerate(rows[part].tolist()):
            one = curvature_bundle(StructureConstants(stack[part][i]),
                                   HermitianMetric(x, y, complex(z_re, z_im)))
            for name in CurvatureBundle.__dataclass_fields__:
                assert getattr(stacked, name)[i].tobytes() == getattr(one, name).tobytes(), name


def test_per_metric_mu_needs_one_algebra_per_metric_row():
    mus = np.array(_catalog_and_dense_mus(np.random.default_rng(16)))
    rows = sample_metrics(np.random.default_rng(17), len(mus))
    for mu, g in ((mus[:-1], rows), (mus[:1], HermitianMetric(1.0, 2.0, 0.5))):
        with pytest.raises(ValueError, match="one per metric row"):
            curvature_bundle(StructureConstants(mu), g)


EDGE_DRAWS = {
    Geometry.HOPF: [{"lam": v} for v in (-0.0, 0.0, 1.25, -2.0)],
    Geometry.PROPERLY_ELLIPTIC: [{"lam": v} for v in (-0.0, 0.0, 1.25, -2.0)],
    Geometry.KODAIRA_SECONDARY: [{"epsilon": v} for v in (1, -1, -1)],
    Geometry.INOUE_S0: [{"a": -1.5, "b": -0.0}, {"a": 0.5, "b": 0.0}, {"a": -0.3, "b": 2.0}],
}


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_array_parameter_mu_equals_one_draw_at_a_time_bitwise(geometry):
    rng = np.random.default_rng([18, list(Geometry).index(geometry)])
    draws = [sample_params(geometry, rng) for _ in range(20)]
    draws += [GeometryParams(geometry, **p) for p in EDGE_DRAWS.get(geometry, [{}, {}])]
    desc = entry(geometry)
    stacked = desc.structure_constants(draws).mu
    assert stacked.shape == (len(draws), 4, 4, 4)
    for i, params in enumerate(draws):
        assert stacked[i].tobytes() == desc.structure_constants(params).mu.tobytes()
    assert desc.structure_constants(draws[:0]).mu.shape == (0, 4, 4, 4)


def test_from_brackets_on_arrays_equals_one_element_at_a_time_bitwise():
    rng = np.random.default_rng(19)
    vec = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(4)]
    vec[1] = np.array([0.0, -0.0, 1j, -1j, complex(-0.0, -0.0)])  # signed zeros
    brackets = {"b12": [vec[0], 0, vec[1], 1j], "b11": [2, vec[2], -1, 0],
                "b22": [vec[3], vec[0], 0, -0.5j], "b12b": [vec[1], 1, vec[2], vec[3]]}
    stacked = algebra.from_brackets(**brackets).mu
    assert stacked.shape == (5, 4, 4, 4)
    for i in range(5):
        one = algebra.from_brackets(**{name: [c[i] if isinstance(c, np.ndarray) else c
                                              for c in v] for name, v in brackets.items()})
        assert stacked[i].tobytes() == one.mu.tobytes()


def _verify_output(capsys, argv):
    code = cli.main(["verify", *argv, "--json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--all", "--samples", "0", "--seed", "3"],
    ["--all", "--samples", "1", "--seed", "4"],
    ["--all", "--samples", "255", "--seed", "5"],
    ["--all", "--samples", "257", "--seed", "6"],
    ["--geometry", "inoue-s0", "--samples", "257", "--seed", "7"],
    ["--geometry", "kodaira-secondary", "--samples", "255", "--seed", "8"],
], ids=["all-0", "all-1", "all-255", "all-257", "inoue-s0-257", "kodaira-secondary-255"])
def test_stacked_verification_equals_one_geometry_at_a_time(capsys, argv):
    code, out = _verify_output(capsys, argv)
    args = cli.build_parser().parse_args(["verify", *argv])
    geometries = ([Geometry.from_name(args.geometry)] if args.geometry
                  else list(Geometry))
    expected = verification_one_geometry_at_a_time(geometries, args.samples, args.seed)
    assert code == 0 and out == cli._dump_json(expected)


def test_hygiene_nan_in_one_geometrys_slice_fails_that_geometry_alone(monkeypatch, capsys):
    # the stack holds torus' and hyperelliptic's one draw each, then hopf's: index 2 is hopf's
    _jacobi_nan_on_third_draw(monkeypatch)
    items = verify_structure_constants(ALL_GEOMETRIES, 20, 1)
    assert [item["passed"] for item in items] == [g is not Geometry.HOPF for g in ALL_GEOMETRIES]
    hopf = items[ALL_GEOMETRIES.index(Geometry.HOPF)]
    assert hopf["violations"]["jacobi"] is None and hopf["violations"]["reality"] == 0.0
    code, out = _verify_output(capsys, ["--all", "--samples", "1", "--seed", "1"])
    assert code == 0 and "NaN" not in out  # passed reflects only the K agreement
    jacobi = [item["structure_constants"]["violations"]["jacobi"]
              for item in json.loads(out)["geometries"]]
    assert [v is None for v in jacobi] == [g is Geometry.HOPF for g in ALL_GEOMETRIES]
    cli.main(["verify", "--all", "--samples", "1", "--seed", "1"])
    lines = [line for line in capsys.readouterr().out.splitlines() if "jacobi=" in line]
    assert [("jacobi=non-finite" in line) for line in lines] == [
        g is Geometry.HOPF for g in ALL_GEOMETRIES]
