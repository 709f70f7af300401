import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcflow.catalog import entry, sample_metric, sample_params
from hcflow.curvature import curvature_bundle, hermiticity_defect
from hcflow.geometry import Geometry, GeometryParams
from hcflow.metric import DegenerateMetricError, HermitianMetric

import oracles
from conftest import ALL_GEOMETRIES, params_for


def _mu(geometry, **kwargs):
    params = GeometryParams(geometry, **kwargs) if kwargs else params_for(geometry, seed=3)
    return entry(geometry).structure_constants(params), params


def _quadratic_terms(mu, g):
    b = curvature_bundle(mu, g)
    return b.Q1, b.Q2, b.Q3, b.Q4


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

def test_christoffels_torus_vanish():
    mu, _ = _mu(Geometry.TORUS)
    b = curvature_bundle(mu, HermitianMetric(1.7, 0.4, 0.2 + 0.5j))
    gh, gb = b.gamma_h, b.gamma_b
    assert np.all(gh == 0) and np.all(gb == 0)


def test_christoffels_hyperelliptic_identity_metric():
    # the bracket of Z2 with conj(Z1) has an antiholomorphic part, so exactly
    # one holomorphic Christoffel survives at the identity metric
    mu, _ = _mu(Geometry.HYPERELLIPTIC)
    gh = curvature_bundle(mu, HermitianMetric(1, 1, 0)).gamma_h
    expected = np.zeros((2, 2, 2), dtype=complex)
    expected[1, 0, 0] = -1.0
    assert np.allclose(gh, expected, atol=1e-15)


def test_christoffels_hopf_identity_metric():
    mu, _ = _mu(Geometry.HOPF, lam=0.0)
    gh = curvature_bundle(mu, HermitianMetric(1, 1, 0)).gamma_h
    assert gh[1, 1, 0] == pytest.approx(0.0, abs=1e-15)   # no (2,2)->1 component
    assert gh[0, 1, 1] == pytest.approx(1.0)
    assert gh[1, 0, 1] == pytest.approx(-1.0)


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_christoffels_match_bruteforce(geometry):
    mu, _ = _mu(geometry)
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = sample_metric(rng)
        b = curvature_bundle(mu, g)
        gh, gb = b.gamma_h, b.gamma_b
        ref = oracles.christoffels_loops(mu.mu, g)
        assert np.max(np.abs(gh - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))
        assert np.all(gb == mu.mu[2:4, 0:2, 0:2])


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------

def test_torsion_torus_vanishes():
    mu, _ = _mu(Geometry.TORUS)
    assert np.all(curvature_bundle(mu, HermitianMetric(2, 3, 1j)).torsion == 0)


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_torsion_antisymmetric_and_matches_bruteforce(geometry):
    mu, _ = _mu(geometry)
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = sample_metric(rng)
        t = curvature_bundle(mu, g).torsion
        assert np.all(t[0, 0] == 0) and np.all(t[1, 1] == 0)
        assert np.max(np.abs(t + np.swapaxes(t, 0, 1))) <= 1e-14 * (1 + np.max(np.abs(t)))
        ref = oracles.torsion_loops(mu.mu, g)
        assert np.max(np.abs(t - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))


def test_torsion_kodaira_primary_identity_metric():
    mu, _ = _mu(Geometry.KODAIRA_PRIMARY)
    g = HermitianMetric(1, 1, 0)
    assert np.allclose(curvature_bundle(mu, g).torsion, oracles.torsion_loops(mu.mu, g), atol=1e-15)


# ---------------------------------------------------------------------------
# second Chern-Ricci
# ---------------------------------------------------------------------------

def test_s_torus_vanishes():
    mu, _ = _mu(Geometry.TORUS)
    assert np.all(curvature_bundle(mu, HermitianMetric(1, 2, 0.5)).S == 0)


def test_s_hyperelliptic_frozen_value():
    # S_11 = x^2 |z|^2 / D^2 = 4/25 at (x, y, z) = (2, 3, 1)
    mu, _ = _mu(Geometry.HYPERELLIPTIC)
    s = curvature_bundle(mu, HermitianMetric(2, 3, 1)).S
    assert s[0, 0].real == pytest.approx(4 / 25, rel=1e-13)
    assert s[1, 1].real == pytest.approx(6 / 25, rel=1e-13)
    assert s[0, 1] == pytest.approx(12 / 25, rel=1e-13)


def test_s_hopf_identity_is_identity_matrix():
    mu, _ = _mu(Geometry.HOPF, lam=0.0)
    s = curvature_bundle(mu, HermitianMetric(1, 1, 0)).S
    assert np.allclose(s, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_s_two_routes_agree(geometry):
    mu, _ = _mu(geometry)
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = sample_metric(rng)
        s1 = curvature_bundle(mu, g).S
        s2 = oracles.second_chern_ricci_expanded(mu.mu, g)
        ref = oracles.second_chern_ricci_loops(mu.mu, g)
        scale = 1 + np.max(np.abs(s1))
        assert np.max(np.abs(s1 - s2)) <= 1e-12 * scale
        assert np.max(np.abs(s1 - ref)) <= 1e-11 * scale


# ---------------------------------------------------------------------------
# quadratic torsion terms
# ---------------------------------------------------------------------------

def test_q_torus_vanishes():
    mu, _ = _mu(Geometry.TORUS)
    for q in _quadratic_terms(mu, HermitianMetric(1, 1, 0.2)):
        assert np.all(q == 0)


def test_q_hopf_identity_frozen_values():
    mu, _ = _mu(Geometry.HOPF, lam=0.0)
    q1, q2, q3, q4 = _quadratic_terms(mu, HermitianMetric(1, 1, 0))
    assert q1[0, 0].real == pytest.approx(1.0, rel=1e-13)
    assert q2[0, 0].real == pytest.approx(0.0, abs=1e-14)
    assert q3[0, 0].real == pytest.approx(1.0, rel=1e-13)
    assert q4[0, 0].real == pytest.approx(0.0, abs=1e-14)
    # Q = Q1/2 - Q2/4 - Q3/2 + Q4 vanishes in the (1,1) slot, so K11 = S11
    q = 0.5 * q1 - 0.25 * q2 - 0.5 * q3 + q4
    assert q[0, 0].real == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_q_dual_route_consistency(geometry):
    mu, _ = _mu(geometry)
    rng = np.random.default_rng(9)
    for _ in range(20):
        g = sample_metric(rng)
        qt = _quadratic_terms(mu, g)
        qm = oracles.quadratic_terms_mu(mu.mu, g)
        ql = oracles.quadratic_terms_loops(mu.mu, g)
        for a, b, c in zip(qt, qm, ql):
            scale = 1 + np.max(np.abs(a))
            assert np.max(np.abs(a - b)) <= 1e-12 * scale
            assert np.max(np.abs(a - c)) <= 1e-11 * scale


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_q1_q3_positive_semidefinite(geometry):
    mu, _ = _mu(geometry)
    rng = np.random.default_rng(10)
    for _ in range(20):
        g = sample_metric(rng)
        q1, _, q3, _ = _quadratic_terms(mu, g)
        for q in (q1, q3):
            herm = 0.5 * (q + q.conj().T)
            eig = np.linalg.eigvalsh(herm)
            assert eig.min() >= -1e-11 * (1 + abs(eig).max())


# ---------------------------------------------------------------------------
# flow tensor
# ---------------------------------------------------------------------------

def test_k_torus_zero():
    mu, _ = _mu(Geometry.TORUS)
    assert np.all(curvature_bundle(mu, HermitianMetric(3, 0.5, 1j)).K == 0)


def test_k_hyperelliptic_diagonal_metric_zero():
    mu, _ = _mu(Geometry.HYPERELLIPTIC)
    k = curvature_bundle(mu, HermitianMetric(1.3, 2.7, 0)).K
    assert np.max(np.abs(k)) <= 1e-14


def test_k_hopf_invariant_ray_point():
    mu, _ = _mu(Geometry.HOPF, lam=0.0)
    k = curvature_bundle(mu, HermitianMetric(1, 1.5, 0)).K
    assert k[0, 0].real == pytest.approx(4 / 9, rel=1e-12)
    assert k[1, 1].real == pytest.approx(2 / 3, rel=1e-12)
    assert abs(k[0, 1]) <= 1e-14


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_k_hermitian_on_random_metrics(geometry):
    rng = np.random.default_rng(11)
    params = sample_params(geometry, rng)
    mu = entry(geometry).structure_constants(params)
    for _ in range(200):
        g = sample_metric(rng)
        k = curvature_bundle(mu, g).K
        scale = 1 + np.max(np.abs(k))
        assert abs(k[0, 0].imag) <= 1e-12 * scale
        assert abs(k[1, 1].imag) <= 1e-12 * scale
        assert hermiticity_defect(k) <= 1e-12 * scale


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_q_assembly_identity(geometry):
    mu, _ = _mu(geometry)
    rng = np.random.default_rng(12)
    for _ in range(10):
        b = curvature_bundle(mu, sample_metric(rng))
        residual = b.K + 0.5 * b.Q1 - 0.25 * b.Q2 - 0.5 * b.Q3 + b.Q4 - b.S
        scale = 1 + max(np.max(np.abs(b.S)), np.max(np.abs(b.Q1)), np.max(np.abs(b.K)))
        assert np.max(np.abs(residual)) <= 1e-13 * scale


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_scaling_covariance_via_oracle(geometry):
    # no closed-form scaling law is assumed: the engine is simply re-evaluated
    # at s*g and compared against the certified closed form at s*g
    rng = np.random.default_rng(13)
    params = sample_params(geometry, rng)
    desc = entry(geometry)
    mu = desc.structure_constants(params)
    for _ in range(10):
        g = sample_metric(rng)
        s = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        gs = HermitianMetric(s * g.x, s * g.y, s * g.z)
        k_engine = curvature_bundle(mu, gs).K
        k_closed = desc.closed_form_K(params, gs)
        scale = max(1.0, float(np.max(np.abs(k_closed))))
        assert np.max(np.abs(k_engine - k_closed)) <= 1e-9 * scale


def test_degenerate_metric_rejected():
    mu, _ = _mu(Geometry.HOPF, lam=1.0)
    with pytest.raises(DegenerateMetricError):
        curvature_bundle(mu, HermitianMetric(1, 1, 1.0))


# ---------------------------------------------------------------------------
# property-based sweep across geometry, parameters and metric
# ---------------------------------------------------------------------------

geometry_cases = st.sampled_from(ALL_GEOMETRIES)
params_seeds = st.integers(0, 2**16)
metric_cases = st.builds(
    lambda x, y, fill, phi: HermitianMetric(
        x, y, complex(np.sqrt(fill * x * y) * np.cos(phi),
                      np.sqrt(fill * x * y) * np.sin(phi))),
    st.floats(0.1, 10.0), st.floats(0.1, 10.0),
    st.floats(0, 0.9), st.floats(0, 2 * np.pi))


@settings(max_examples=60, deadline=None)
@given(geometry_cases, params_seeds, metric_cases)
def test_property_engine_matches_closed_form(geometry, seed, g):
    params = params_for(geometry, seed=seed)
    desc = entry(geometry)
    mu = desc.structure_constants(params)
    k = curvature_bundle(mu, g).K
    closed = desc.closed_form_K(params, g)
    scale = max(1.0, float(np.max(np.abs(closed))))
    assert np.max(np.abs(k - closed)) <= 1e-9 * scale
    assert hermiticity_defect(k) <= 1e-12 * scale
