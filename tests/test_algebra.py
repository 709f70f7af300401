import numpy as np
import pytest

from hcflow.algebra import (Z1, Z2, ZB1, ZB2, _CONJ, StructureConstants,
                           antisymmetry_violation, conjugate_vector, from_brackets,
                           integrability_violation, jacobi_violation, reality_violation)
from hcflow.catalog import entry, sample_params
from hcflow.geometry import Geometry, GeometryParams, InadmissibleParamsError

from conftest import ALL_GEOMETRIES

HYGIENE_TOL = 1e-14


@pytest.mark.parametrize("geometry", ALL_GEOMETRIES, ids=lambda g: g.value)
def test_catalog_hygiene_over_parameter_draws(geometry):
    rng = np.random.default_rng(7)
    for _ in range(20):
        params = sample_params(geometry, rng)
        mu = entry(geometry).structure_constants(params).mu
        assert antisymmetry_violation(mu) <= HYGIENE_TOL
        assert reality_violation(mu) <= HYGIENE_TOL
        assert integrability_violation(mu) <= HYGIENE_TOL
        assert jacobi_violation(mu) <= HYGIENE_TOL


def test_builder_fills_conjugate_brackets():
    # [Z1, conj Z2] = -Z1 forces [Z2, conj Z1] = +conj Z1
    mu = from_brackets(b12=[1, 0, 0, 0], b12b=[-1, 0, 0, 0]).mu
    assert mu[Z2, ZB1, ZB1] == 1
    assert mu[ZB1, ZB2, ZB1] == 1          # conjugate of [Z1, Z2] = Z1
    assert np.all(mu[Z1, Z2] == [1, 0, 0, 0])
    assert np.all(mu[Z2, Z1] == [-1, 0, 0, 0])


def test_conjugate_vector_swaps_and_conjugates():
    v = conjugate_vector(np.array([1 + 2j, 0, 3j, 4]))
    assert np.all(v == np.array([-3j, 4, 1 - 2j, 0]))


def test_inconsistent_self_bracket_fails_reality():
    # [Z1, conj Z1] must be anti-fixed by conjugation; a holomorphic-only
    # value violates that
    mu = from_brackets(b11=[1, 0, 0, 0])
    assert reality_violation(mu.mu) > 0.1


def test_shape_validation():
    with pytest.raises(ValueError):
        from hcflow.algebra import StructureConstants
        StructureConstants(np.zeros((3, 3, 3), dtype=complex))


def test_inadmissible_params():
    with pytest.raises(InadmissibleParamsError):
        GeometryParams(Geometry.INOUE_S0, a=0.0, b=1.0)
    with pytest.raises(InadmissibleParamsError):
        GeometryParams(Geometry.KODAIRA_SECONDARY, epsilon=2)
    with pytest.raises(InadmissibleParamsError):
        GeometryParams(Geometry.HOPF)                      # missing lam
    with pytest.raises(InadmissibleParamsError):
        GeometryParams(Geometry.TORUS, lam=1.0)            # unused param set


def test_params_c_derived():
    assert GeometryParams(Geometry.HOPF, lam=2.0).c == 5.0
    assert GeometryParams(Geometry.TORUS).c == 1.0


def _reality_violation_loop(mu):
    """The per-bracket loop that the array expression replaced."""
    worst = 0.0
    for a in range(4):
        for b in range(4):
            diff = conjugate_vector(mu.mu[a, b]) - mu.mu[_CONJ[a], _CONJ[b]]
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def test_reality_violation_equals_per_bracket_loop():
    rng = np.random.default_rng(5)
    algebras = [from_brackets(b11=[1, 0, 0, 0])]
    algebras += [entry(g).structure_constants(sample_params(g, rng))
                 for g in ALL_GEOMETRIES for _ in range(5)]
    algebras += [StructureConstants(rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4)))
                 for _ in range(20)]
    for mu in algebras:
        assert reality_violation(mu.mu) == _reality_violation_loop(mu)
