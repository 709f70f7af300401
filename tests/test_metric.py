import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hcflow.curvature import _matrices
from hcflow.metric import (POSITIVITY_MARGIN, DegenerateMetricError, HermitianMetric,
                           positive_rows)
from oracles import det_cofactor


def _inverse(g):
    """B = A^-1, the inverse the contraction engine uses."""
    return _matrices(g, POSITIVITY_MARGIN)[1]


def test_determinant_identity():
    assert HermitianMetric(1, 1, 0).det == 1.0


def test_determinant_offdiagonal():
    assert HermitianMetric(2, 3, 1 + 1j).det == pytest.approx(4.0, abs=1e-15)


def test_determinant_hopf_ray_point():
    assert HermitianMetric(1, 1.5, 0).det == pytest.approx(1.5)


def test_inverse_identity():
    b = _inverse(HermitianMetric(1, 1, 0))
    assert (b[0, 0], b[1, 1], b[0, 1]) == (1.0, 1.0, 0.0)


def test_inverse_real_offdiagonal():
    b = _inverse(HermitianMetric(2, 3, 1))
    assert b[0, 0] == pytest.approx(3 / 5)
    assert b[1, 1] == pytest.approx(2 / 5)
    assert b[0, 1] == pytest.approx(-1 / 5)


def test_inverse_near_degenerate_roundtrip():
    g = HermitianMetric(1, 1, 0.9)
    prod = g.matrix() @ _inverse(g)
    assert np.max(np.abs(prod - np.eye(2))) < 1e-13


def test_degenerate_rejection():
    g = HermitianMetric(1, 1, 1.0)
    with pytest.raises(DegenerateMetricError):
        _inverse(g)
    with pytest.raises(DegenerateMetricError):
        g.require_positive()


def test_margin_tolerates_roundoff_near_collapse():
    g = HermitianMetric(1.0, 1.0, np.sqrt(1 - 1e-9))
    g.require_positive()            # D ~ 1e-9 > default margin
    with pytest.raises(DegenerateMetricError):
        g.require_positive(margin=1e-6)


NAN, INF = math.nan, math.inf
# (x, y, Re z, Im z): signed zeros, negative, NaN and infinite parts, subnormal
# values, huge metrics whose x y and |z|^2 overflow, and D = 0 at x y = 1
EDGE_ROWS = [
    (0.0, 1.0, 0.0, 0.0), (-0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (1.0, -0.0, 0.0, 0.0),
    (1.0, 1.0, -0.0, -0.0), (-1.0, 2.0, 0.0, 0.0), (1.0, -2.0, 0.5, 0.0), (-INF, 1.0, 0.0, 0.0),
    (NAN, 1.0, 0.0, 0.0), (1.0, NAN, 0.0, 0.0), (1.0, 1.0, NAN, 0.0), (1.0, 1.0, 0.0, NAN),
    (INF, 1.0, 0.0, 0.0), (1.0, 1.0, INF, 0.0), (INF, INF, INF, 0.0),
    (5e-324, 5e-324, 0.0, 0.0), (5e-324, 1.0, 5e-324, 0.0), (5e-324, 5e-324, 5e-324, 0.0),
    (1e-310, 1e-310, 5e-324, -5e-324), (1e-200, 1e-200, 1e-201, 0.0),
    (1e200, 1e200, 1e199, 0.0), (1e200, 1e200, 0.0, -1e199), (1e200, 1e-200, 1.0, 0.0),
    (1.0, 1.0, 0.5, 0.0), (4.0, 1.0, 0.0, -1.0), (2.0, 0.5, 0.6, 0.8),
]


@pytest.mark.parametrize("margin", [POSITIVITY_MARGIN, 0.0, 0.75])
def test_positivity_scalar_and_rows_forms_agree_on_edge_rows(margin):
    scalar = [HermitianMetric(x, y, complex(zre, zim)).is_positive(margin)
              for x, y, zre, zim in EDGE_ROWS]
    assert positive_rows(np.array(EDGE_ROWS), margin).tolist() == scalar
    assert True in scalar and False in scalar


def test_positivity_is_strict_at_the_margin_and_holds_for_huge_metrics():
    # D = x y - |z|^2 = 0.75 = 0.75 x y exactly: not positive above 0.75
    assert HermitianMetric(1.0, 1.0, 0.5).is_positive(0.74)
    assert not HermitianMetric(1.0, 1.0, 0.5).is_positive(0.75)
    assert not HermitianMetric(4.0, 1.0, -1j).is_positive(0.75)
    # x y and |z|^2 overflow to inf, and D = inf - inf is NaN, yet the metric is positive
    huge = HermitianMetric(1e200, 1e200, 1e199)
    assert math.isnan(huge.det) and huge.is_positive()
    huge.require_positive()


def _metric_strategy(lo, hi):
    return st.builds(
        lambda x, y, fill, phi: HermitianMetric(
            x, y, complex(np.sqrt(fill * x * y) * np.cos(phi),
                          np.sqrt(fill * x * y) * np.sin(phi))),
        st.floats(lo, hi), st.floats(lo, hi),
        st.floats(0, 0.95), st.floats(0, 2 * np.pi))


valid_metrics = _metric_strategy(1e-3, 1e3)


@given(_metric_strategy(0.1, 10.0))
def test_inverse_roundtrip_property(g):
    prod = g.matrix() @ _inverse(g)
    assert np.max(np.abs(prod - np.eye(2))) <= 1e-13


@given(valid_metrics)
def test_inverse_roundtrip_property_wide_range(g):
    # over six decades of aspect ratio the product's own cancellation scale
    # |g| |g^-1| bounds the achievable accuracy, so normalize by it
    prod = g.matrix() @ _inverse(g)
    scale = np.maximum(1.0, np.abs(g.matrix()) @ np.abs(_inverse(g)))
    assert np.max(np.abs(prod - np.eye(2)) / scale) <= 1e-13


@given(valid_metrics)
def test_determinant_matches_cofactor_expansion(g):
    ref = det_cofactor(g.matrix())
    # cancellation in x*y - |z|^2 scales the roundoff with the addends
    ulp_scale = 2.3e-16 * (g.x * g.y + g.u)
    assert abs(ref.imag) <= ulp_scale
    assert abs(g.det - ref.real) <= 4 * ulp_scale


def test_derived_quantities_not_cached():
    g = HermitianMetric(2, 2, 1 + 1j)
    assert g.u == 2.0
    assert g.det == 2.0
    assert HermitianMetric(2 * g.x, 2 * g.y, 2 * g.z).det == 8.0


def test_matrix_is_hermitian():
    g = HermitianMetric(1.5, 2.5, 0.3 - 0.7j)
    m = g.matrix()
    assert np.allclose(m, m.conj().T)
