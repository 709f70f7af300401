"""Chern curvature quantities of left-invariant metrics via tensor contraction.

Everything here is contracted directly from the structure constants mu and the
metric, with dense loops over the two holomorphic directions.  Index
conventions used throughout:

* ``A[i, j]`` is the metric pairing of frame vector i with conjugate frame
  vector j, ``B = A^-1``.
* In inverse-metric factors the barred index selects the row of ``B``, the
  unbarred index the column.
* ``T[i, j, k]`` stores the torsion with both lower holomorphic slots (i, j)
  and the conjugate slot k; the all-conjugate components are its complex
  conjugate.

``curvature_bundle`` is the one entry point; each quantity is a field of its
result.  It takes one metric, a sequence of metrics, or n metrics as rows
(x, y, Re z, Im z) of shape (n, 4) (see ``hcflow.metric``); a sequence is
turned into rows first.  It then runs the same contractions once over the
stacked matrices ``A`` of shape (n, 2, 2), and each field but ``gamma_b``
gets the leading axis n.

The structure constants are one algebra, mu of shape (4, 4, 4), shared by
every metric, or carry the metric axis: mu of shape (n, 4, 4, 4) holds one
algebra per metric row, so one call serves metrics of several geometries
(``hcflow verify`` stacks all its geometries' metrics this way).  Then
``gamma_b`` gets the leading axis n too.

Layout of the stacked contractions: every metric-dependent operand, and each
block of mu, carries a ``...`` for the metric axis, in one set of subscripts.
For one metric the ``...`` is empty, so the one-metric call runs the plain
2x2 contractions, and a shared mu has an empty ``...`` that broadcasts.  Most
einsums put the ``...`` last (``'lk...,pj...,lir...,krp...->ij...'``, on
contiguous metric-last copies of A, B, the intermediates and a per-metric
mu), so their innermost loop runs over the n metrics rather than over a
2-long tensor index; their results are moved back to metric-first.  Two
contractions keep the ``...`` first: ``gamma_h``
(``'...js,...ip,...kjp->...kis'``) and the first term of Q4
(``'...lk,...qm,...mkl,...qji->...ij'``).  numpy's einsum picks its
summation order from the operands' layout, and metric-last sums these two in
another order than the one-metric call, which changes their last bits for a
dense mu; metric-first keeps them.  So each slice of a stacked call has the
bits of the one-metric call with that slice's mu, for any mu.

This module is the reference oracle for the closed-form tensors in
``hcflow.catalog``: the two must agree for every geometry and metric.
Independent cross-checks of its contractions live with the tests.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import StructureConstants
from .metric import (HermitianMetric, POSITIVITY_MARGIN, metric_rows,
                     require_positive_rows)


@dataclass(frozen=True)
class CurvatureBundle:
    """All curvature quantities of one (mu, g) pair, built from shared intermediates."""

    gamma_h: np.ndarray  # gamma_h[k, i, s]: holomorphic Christoffels
    gamma_b: np.ndarray  # gamma_b[k, l, r]: mixed Christoffels (= mu components)
    torsion: np.ndarray  # T[i, j, k], antisymmetric in (i, j)
    S: np.ndarray        # second Chern-Ricci, 2x2 Hermitian
    Q1: np.ndarray
    Q2: np.ndarray
    Q3: np.ndarray
    Q4: np.ndarray
    Q: np.ndarray        # Q1/2 - Q2/4 - Q3/2 + Q4
    K: np.ndarray        # S - Q, the flow tensor


def _matrices(g: HermitianMetric | Sequence[HermitianMetric] | np.ndarray,
              margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Metric matrix A (one metric) or stack (n, 2, 2) (a sequence of metrics,
    or rows (x, y, Re z, Im z)), and B = A^-1."""
    if isinstance(g, HermitianMetric):
        g.require_positive(margin)
        A = g.matrix()
    else:
        rows = metric_rows(g)
        require_positive_rows(rows, margin)
        x, y, zre, zim = rows.T
        # set part by part, as HermitianMetric.matrix sets them: conj gives -0.0 where Im z = 0
        A = np.zeros((len(rows), 2, 2), dtype=complex)
        A.real[:, 0, 0], A.real[:, 1, 1] = x, y
        A.real[:, 0, 1] = A.real[:, 1, 0] = zre
        A.imag[:, 0, 1] = zim
        A.imag[:, 1, 0] = -zim
    return A, np.linalg.inv(A)


def _metric_last(X: np.ndarray, lead: int) -> np.ndarray:
    """X, C-contiguous, with its first ``lead`` (metric) axes moved to the end;
    X itself when there is none, so a shared mu keeps its layout."""
    if not lead:
        return X
    return np.ascontiguousarray(X.transpose(*range(lead, X.ndim), *range(lead)))


def _metric_first(X: np.ndarray, lead: int) -> np.ndarray:
    """X, C-contiguous, with its last ``lead`` (metric) axes moved to the front."""
    k = X.ndim - lead
    return np.ascontiguousarray(X.transpose(*range(k, X.ndim), *range(k)))


def _second_chern_ricci_from_gamma(A, B, m_bhh, m_hbh, m_hbb, gamma_h) -> np.ndarray:
    """S from metric-last A, B, mu blocks and gamma_h; metric-last."""
    t1 = np.einsum('lk...,pj...,lir...,krp...->ij...', B, A, m_bhh, gamma_h)
    t2 = np.einsum('lk...,pj...,lrp...,kir...->ij...', B, A, m_bhh, gamma_h)
    t3 = np.einsum('lk...,pj...,klr...,rip...->ij...', B, A, m_hbh, gamma_h)
    t4 = np.einsum('lk...,pj...,klr...,rip...->ij...', B, A, m_hbb, m_bhh)
    return t1 - t2 - t3 - t4


def _quadratic_from_torsion(B, T, Bl, Tl, lead):
    """Q1..Q4, metric-first, from B and T given in both layouts:
    metric-first (B, T) and metric-last (Bl, Tl)."""
    Tc, Tcl = np.conj(T), np.conj(Tl)
    Q1 = np.einsum('lk...,qm...,ikq...,jlm...->ij...', Bl, Bl, Tl, Tcl)
    Q2 = np.einsum('lk...,qm...,kmj...,lqi...->ij...', Bl, Bl, Tl, Tcl)
    Q3 = np.einsum('lk...,qm...,ikl...,jqm...->ij...', Bl, Bl, Tl, Tcl)
    Q4b = np.einsum('lk...,qm...,qlk...,mij...->ij...', Bl, Bl, Tcl, Tl)
    Q1, Q2, Q3, Q4b = (_metric_first(X, lead) for X in (Q1, Q2, Q3, Q4b))
    # metric-first: metric-last sums this term in another order
    Q4a = np.einsum('...lk,...qm,...mkl,...qji->...ij', B, B, T, Tc)
    return Q1, Q2, Q3, 0.5 * (Q4a + Q4b)


def curvature_bundle(mu: StructureConstants,
                     g: HermitianMetric | Sequence[HermitianMetric] | np.ndarray,
                     margin: float = POSITIVITY_MARGIN) -> CurvatureBundle:
    """Compute Gamma, T, S, Q1..Q4, Q and K in one pass over shared intermediates.

    Given n metrics, as a sequence or as rows (x, y, Re z, Im z) of shape
    (n, 4), all are checked at once (the first degenerate one raises) and
    every field but ``gamma_b`` gets a leading axis of length n.  ``mu`` is
    one algebra for all metrics, or a stack (n, 4, 4, 4) of one per metric
    row, which gives ``gamma_b`` the axis n too.
    """
    A, B = _matrices(g, margin)
    return _contract(A, B, mu)


def _contract(A: np.ndarray, B: np.ndarray, mu: StructureConstants) -> CurvatureBundle:
    """``curvature_bundle``'s contractions, from the metric matrix A (or a stack
    (n, 2, 2)) and B = A^-1.  On object arrays of sympy values it runs
    symbolically; B is then the caller's, as ``np.linalg.inv`` takes no objects."""
    lead = A.ndim - 2  # number of metric axes: 1 for a stack, 0 for one metric
    m = mu.mu
    mu_lead = m.ndim - 3  # 1 for one algebra per metric, 0 for a shared one
    if mu_lead and (not lead or len(m) != len(A)):
        raise ValueError(f"{len(m)} algebras for {len(A) if lead else 'one'} metric(s); "
                         f"a stack of structure constants needs one per metric row")
    m_hbb = m[..., 0:2, 2:4, 2:4]
    m_bhh = m[..., 2:4, 0:2, 0:2]
    m_hbh = m[..., 0:2, 2:4, 0:2]
    m_hhh = m[..., 0:2, 0:2, 0:2]

    # metric-first: metric-last sums this contraction in another order
    gamma_h = -np.einsum('...js,...ip,...kjp->...kis', B, A, m_hbb)
    gamma_b = m_bhh.copy()
    Al, Bl, gamma_hl = (_metric_last(X, lead) for X in (A, B, gamma_h))
    hbb, bhh, hbh, hhh = (_metric_last(X, mu_lead) for X in (m_hbb, m_bhh, m_hbh, m_hhh))
    Tl = (-np.einsum('jp...,ikp...->ijk...', Al, hbb)
          + np.einsum('ip...,jkp...->ijk...', Al, hbb)
          - np.einsum('mk...,ijm...->ijk...', Al, hhh))
    T = _metric_first(Tl, lead)
    S = _metric_first(_second_chern_ricci_from_gamma(Al, Bl, bhh, hbh, hbb, gamma_hl), lead)
    Q1, Q2, Q3, Q4 = _quadratic_from_torsion(B, T, Bl, Tl, lead)
    Q = 0.5 * Q1 - 0.25 * Q2 - 0.5 * Q3 + Q4
    return CurvatureBundle(gamma_h=gamma_h, gamma_b=gamma_b, torsion=T,
                           S=S, Q1=Q1, Q2=Q2, Q3=Q3, Q4=Q4, Q=Q, K=S - Q)


def hermiticity_defect(M: np.ndarray) -> float | np.ndarray:
    """Max absolute deviation of M from being Hermitian, over the last two axes."""
    return np.max(np.abs(M - np.swapaxes(M, -1, -2).conj()), axis=(-2, -1))
