"""Independent reimplementations used as test oracles.

None of the tensor oracles shares a code path with hcflow.curvature.  The
``*_loops`` oracles avoid einsum: every contraction is an explicit nested
loop, evaluated in a different association order.
``second_chern_ricci_expanded`` and ``quadratic_terms_mu`` use einsum, but
expand their quantity in structure constants along a route of their own.
``verification_one_geometry_at_a_time`` is the per-geometry loop that
``hcflow.verify.run_verification`` replaced by one stacked pass.
``PUBLISHED_TABLES`` holds the paper's per-component S and Q1..Q4 tables as
typed from its appendix, for every entry but the torus; some of them differ
from the engine (``tests/test_catalog.py`` pins which).
"""
from __future__ import annotations

import numpy as np

from hcflow import algebra
from hcflow.catalog import entry, sample_metrics, sample_params
from hcflow.curvature import curvature_bundle, hermiticity_defect
from hcflow.geometry import Geometry
from hcflow.metric import HermitianMetric
from hcflow.verify import (CHUNK, HYGIENE_TOL, K_AGREEMENT_TOL, _finite, _rel_matrix_error,
                           _scale)


def det_cofactor(m: np.ndarray) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _slots(mu: np.ndarray, g: HermitianMetric):
    a = g.matrix()
    b = np.linalg.inv(a)
    return a, b, mu


def christoffels_loops(mu: np.ndarray, g: HermitianMetric) -> np.ndarray:
    """gamma[k, i, s] by brute-force summation."""
    a, b, m = _slots(mu, g)
    gamma = np.zeros((2, 2, 2), dtype=complex)
    for k in range(2):
        for i in range(2):
            for s in range(2):
                acc = 0.0
                for j in range(2):
                    for p in range(2):
                        acc += -b[j, s] * a[i, p] * m[k, 2 + j, 2 + p]
                gamma[k, i, s] = acc
    return gamma


def torsion_loops(mu: np.ndarray, g: HermitianMetric) -> np.ndarray:
    """T[i, j, k] by antisymmetrizing brute-force Christoffels."""
    a, _, m = _slots(mu, g)
    gamma = christoffels_loops(mu, g)
    t_up = np.zeros((2, 2, 2), dtype=complex)  # torsion with raised last slot
    for i in range(2):
        for j in range(2):
            for s in range(2):
                t_up[i, j, s] = gamma[i, j, s] - gamma[j, i, s] - m[i, j, s]
    t = np.zeros((2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                acc = 0.0
                for s in range(2):
                    acc += a[s, k] * t_up[i, j, s]
                t[i, j, k] = acc
    return t


def second_chern_ricci_loops(mu: np.ndarray, g: HermitianMetric) -> np.ndarray:
    a, b, m = _slots(mu, g)
    gamma = christoffels_loops(mu, g)
    s_out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            acc = 0.0
            for k in range(2):
                for l in range(2):
                    for p in range(2):
                        for r in range(2):
                            acc += b[l, k] * a[p, j] * (
                                m[2 + l, i, r] * gamma[k, r, p]
                                - m[2 + l, r, p] * gamma[k, i, r]
                                - m[k, 2 + l, r] * gamma[r, i, p]
                                - m[k, 2 + l, 2 + r] * m[2 + r, i, p])
            s_out[i, j] = acc
    return s_out


def quadratic_terms_loops(mu: np.ndarray, g: HermitianMetric):
    _, b, _ = _slots(mu, g)
    t = torsion_loops(mu, g)
    tc = np.conj(t)
    q1 = np.zeros((2, 2), dtype=complex)
    q2 = np.zeros((2, 2), dtype=complex)
    q3 = np.zeros((2, 2), dtype=complex)
    q4 = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    for m_ in range(2):
                        for q in range(2):
                            w = b[l, k] * b[q, m_]
                            q1[i, j] += w * t[i, k, q] * tc[j, l, m_]
                            q2[i, j] += w * t[k, m_, j] * tc[l, q, i]
                            q3[i, j] += w * t[i, k, l] * tc[j, q, m_]
                            q4[i, j] += 0.5 * w * (t[m_, k, l] * tc[q, j, i]
                                                   + tc[q, l, k] * t[m_, i, j])
    return q1, q2, q3, q4


def hcf_tensor_loops(mu: np.ndarray, g: HermitianMetric) -> np.ndarray:
    s = second_chern_ricci_loops(mu, g)
    q1, q2, q3, q4 = quadratic_terms_loops(mu, g)
    return s - (0.5 * q1 - 0.25 * q2 - 0.5 * q3 + q4)


def second_chern_ricci_expanded(mu: np.ndarray, g: HermitianMetric) -> np.ndarray:
    """S by the fully expanded contraction of structure constants."""
    A, B, m = _slots(mu, g)
    m_hbb = m[0:2, 2:4, 2:4]
    m_bhh = m[2:4, 0:2, 0:2]
    m_hbh = m[0:2, 2:4, 0:2]
    e1 = np.einsum('lk,pj,vp,rq,kvq,lir->ij', B, A, B, A, m_hbb, m_bhh)
    e2 = np.einsum('lk,pj,vr,iq,kvq,lrp->ij', B, A, B, A, m_hbb, m_bhh)
    e3 = np.einsum('lk,pj,vp,iq,rvq,klr->ij', B, A, B, A, m_hbb, m_hbh)
    e4 = np.einsum('lk,pj,klr,rip->ij', B, A, m_hbb, m_bhh)
    return -(e1 - e2 - e3 + e4)


def quadratic_terms_mu(mu: np.ndarray, g: HermitianMetric):
    """(Q1, Q2, Q3, Q4) with each torsion factor expanded in structure constants."""
    A, B, m = _slots(mu, g)
    m_hbb = m[0:2, 2:4, 2:4]
    m_hhh = m[0:2, 0:2, 0:2]
    m_bhh = m[2:4, 0:2, 0:2]
    m_bbb = m[2:4, 2:4, 2:4]
    # holomorphic-slot factor F[i, k, q] and its conjugate G[j, l, m],
    # each expanded term by term rather than conjugated from F
    F = (-np.einsum('kp,iqp->ikq', A, m_hbb)
         + np.einsum('ip,kqp->ikq', A, m_hbb)
         - np.einsum('vq,ikv->ikq', A, m_hhh))
    G = (-np.einsum('pl,jmp->jlm', A, m_bhh)
         + np.einsum('pj,lmp->jlm', A, m_bhh)
         - np.einsum('mv,jlv->jlm', A, m_bbb))
    Q1 = np.einsum('lk,qm,ikq,jlm->ij', B, B, F, G)
    Q2 = np.einsum('lk,qm,kmj,lqi->ij', B, B, F, G)
    Q3 = np.einsum('lk,qm,ikl,jqm->ij', B, B, F, G)
    Q4 = 0.5 * (np.einsum('lk,qm,mkl,qji->ij', B, B, F, G)
                + np.einsum('lk,qm,qlk,mij->ij', B, B, G, F))
    return Q1, Q2, Q3, Q4


def verification_one_geometry_at_a_time(geometries, samples: int, seed: int) -> dict:
    """``run_verification``'s report without ``elapsed_seconds``, one geometry at a time.

    Geometry i draws its parameters and metrics from ``default_rng(seed + i)``;
    each chunk of its metrics is one engine call with its one algebra, and the
    hygiene checks run on each distinct parameter draw alone.
    """
    report = {"seed": seed, "samples": samples, "geometries": []}
    for i, geometry in enumerate(geometries):
        rng = np.random.default_rng(seed + i)
        params = sample_params(geometry, rng)
        desc = entry(geometry)
        mu = desc.structure_constants(params)
        worst = worst_herm = 0.0
        for start in range(0, samples, CHUNK):
            rows = sample_metrics(rng, min(CHUNK, samples - start))
            K = curvature_bundle(mu, rows).K
            closed = desc.closed_form_K(params, rows)
            worst = float(np.max(_rel_matrix_error(K, closed), initial=worst))
            worst_herm = float(np.max(hermiticity_defect(K) / _scale(K), initial=worst_herm))
        item = {"geometry": geometry.value, "params": params.as_dict(), "samples": samples,
                "max_rel_error": _finite(worst), "max_hermiticity_defect": _finite(worst_herm),
                "passed": bool(worst <= K_AGREEMENT_TOL and np.isfinite(worst_herm))}
        draws = np.random.default_rng(seed + i)
        distinct = dict.fromkeys(sample_params(geometry, draws) for _ in range(20))
        violations = {}
        for name in ("antisymmetry", "reality", "integrability", "jacobi"):
            check = getattr(algebra, f"{name}_violation")
            violations[name] = float(np.max([check(desc.structure_constants(p).mu)
                                             for p in distinct], initial=0.0))
        item["structure_constants"] = {
            "geometry": geometry.value, "draws": 20,
            "violations": {name: _finite(v) for name, v in violations.items()},
            "passed": all(v <= HYGIENE_TOL for v in violations.values())}
        report["geometries"].append(item)
    report["passed"] = all(item["passed"] for item in report["geometries"])
    return report


# ---------------------------------------------------------------------------
# the published S / Q component tables, each (params, metric) -> {name: 2x2}
# ---------------------------------------------------------------------------

def _herm(m11, m22, m12) -> np.ndarray:
    return np.array([[m11, m12], [np.conjugate(m12), m22]], dtype=complex)


def _tables_hyperelliptic(p, g):
    x, y, z, u, d = g.x, g.y, g.z, g.u, g.det
    d2 = d * d
    return {
        "S": _herm(x * x * u / d2, x * y * u / d2, x * x * y * z / d2),
        "Q1": _herm(x * x * u / d2, x * y * u / d2, x * z * u / d2),
        "Q2": _herm(0, 2 * u / d, 0),
        "Q3": _herm(x * x * u / d2, u * u / d2, x * z * u / d2),
        "Q4": _herm(0, u / d, 0),
    }


def _tables_hopf(p, g):
    x, y, z, u, d = g.x, g.y, g.z, g.u, g.det
    lam = p.lam
    c = p.c
    d2 = d * d
    q1num = (c * x ** 3 * d2 + y * u * (x * x * y * y - u * u)
             + (x + y) * (x * y - 2 * u) * u * u + 2 * x * x * y * d)
    return {
        "S": _herm(
            x * (x ** 3 * c + u * (2 * x + y)) / d2,
            (-c * x * x * (x * y - 2 * u) - 4 * u * d + y * y * (2 * x * x + u)) / d2,
            x * z * (-1j * lam * d + x * x * c + y * (x + y) + u) / d2),
        "Q1": _herm(x * q1num / d2 ** 2, y * q1num / d2 ** 2,
                    z * (c * x ** 3 + (2 * x + y) * u) / d2),
        "Q2": _herm(2 * u / d, 2 * c * x * x / d, -2 * x * y * (1 + 1j * lam) / d),
        "Q3": _herm((c * x ** 4 + (2 * x * x + u) * u) / d2,
                    (c * x * x + (2 * x + y) * y * u) / d2,
                    z * (c * x ** 3 + 1j * lam * x + (x + y) * u + x * x * y) / d2),
        "Q4": _herm(u / d, c * x * x / d, -(1 + 1j * lam) * x * z / d),
    }


def _tables_properly_elliptic(p, g):
    x, y, z, u, d = g.x, g.y, g.z, g.u, g.det
    lam = p.lam
    c = p.c
    d2 = d * d
    return {
        "S": _herm(
            (-y * (2 * x + c * y) * d + ((x + y) ** 2 + lam * lam * y * y - 4) * u) / d2,
            y * (c * y ** 3 + (x - 2 * y) * u) / d2,
            y * z * ((1 + 1j * lam) * d + x * x - 2 * x * y + c * y * y) / d2),
        "Q1": _herm(x * (c * y ** 3 + (x - 2 * y) * u) / d2,
                    y * (c * y ** 3 + (x - 2 * y) * u) / d2,
                    z * (c * y ** 3 + (x - 2 * y) * u) / d2),
        "Q2": _herm(2 * y * y * c / d, 2 * u / d, 2 * (1 + 1j * lam) * y * z / d),
        "Q3": _herm((c * y * y + x * (x - 2 * y)) * u / d2,
                    (c * y ** 4 + u * (u - 2 * y * y)) / d2,
                    z * ((1 - 1j * lam) * y * d + c * y ** 3 + x * u) / d2),
        "Q4": _herm(y * y * c / d, u / d, (1 + 1j * lam) / d),
    }


def _tables_kodaira_primary(p, g):
    x, y, z, u, d = g.x, g.y, g.z, g.u, g.det
    d2 = d * d
    return {
        "S": _herm(-y * y * (x * y - 2 * u) / d2, y ** 4 / d2, y ** 3 * z / d2),
        "Q1": _herm(x * y ** 3 / d2, y ** 4 / d2, y ** 3 * z / d2),
        "Q2": _herm(2 * y * y / d, 0, 0),
        "Q3": _herm(y * y * u / d2, y ** 4 / d2, y ** 3 * z / d2),
        "Q4": _herm(y * y / d, 0, 0),
    }


def _tables_kodaira_secondary(p, g):
    x, y, z, u, d = g.x, g.y, g.z, g.u, g.det
    d2 = d * d
    return {
        "S": _herm(((x * x + y * y) * u - y * y * d) / d2,
                   y * (x * u + y ** 3) / d2,
                   ((x * x + y * y) + 1j * d) / d2),
        "Q1": _herm(x * (x * u + y ** 3) / d2, y * (x * u + y ** 3) / d2,
                    z * (x * u + y ** 3) / d2),
        "Q2": _herm(2 * y * y / d, 2 * u / d, 2j * y * z / d),
        "Q3": _herm((x * x + y * y) * u / d2, (y ** 4 + u * u) / d2,
                    z * (x + 1j * y) * (u - 1j * y * y) / d2),
        "Q4": _herm(y * y / d, u / d, 1j * y * z / d),
    }


def _tables_inoue_s0(p, g):
    x, y, z, u, d = g.x, g.y, g.z, g.u, g.det
    a, b = p.a, p.b
    bb = b * b + 9 * a * a
    d2 = d * d
    return {
        "S": _herm(x * (bb * u + 4 * a * a * d) / d2,
                   x * y * (bb * u - 8 * a * a * d) / d2,
                   x * z * (bb * x * y - 2 * a * (a + 1j * b) * d) / d2),
        "Q1": _herm(x * x * (bb * u + 4 * a * a * d) / d2,
                    x * y * (bb * u + 4 * a * a * d) / d2,
                    x * z * (bb * u + 4 * a * a * d) / d2),
        "Q2": _herm(8 * a * a * x * x / d, 2 * (b * b + a * a) * u / d,
                    -4 * a * (a + 1j * b) / d),
        "Q3": _herm(bb * x * x * u / d2,
                    (bb * u * u + 4 * a * a * (x * y + 2 * u) * d) / d2,
                    x * z * (bb * u + 2 * a * (3 * a + 1j * b) * d) / d2),
        "Q4": _herm(4 * a * a * x * x / d, (b * b + a * a) * u / d,
                    -2 * a * (a + 1j * b) / d),
    }


def _tables_inoue_j1(p, g):
    x, y, z, u, d = g.x, g.y, g.z, g.u, g.det
    zb = np.conjugate(z)
    zz2 = z * z + zb * zb
    d2 = d * d
    return {
        "S": _herm((-2 * d2 - x * y * d - zz2 * u + 2 * x * y * u) / d2,
                   y * y * (x * y + u - zz2) / d2,
                   (x * y * y * (z - zb) + y * z * (x * y - z * z)) / d2),
        "Q1": _herm(x * y * (x * y + u - zz2) / d2,
                    y * y * (x * y + u - zz2) / d2,
                    y * z * ((z - zb) * u + x * y * z - z ** 3) / d2),
        "Q2": _herm(2 * u / d, 2 * y * y / d, 2 * y * zb / d),
        "Q3": _herm((x * x * y * y - x * y * zz2 + u * u) / d2,
                    y * y * (2 * u - zz2) / d2,
                    y * (x * y - z * z) * (z - zb) / d2),
        "Q4": _herm(u / d, y * y / d, y * zb / d),
    }


def _tables_inoue_j2(p, g):
    x, y, z, u, d = g.x, g.y, g.z, g.u, g.det
    zb = np.conjugate(z)
    zz2 = z * z + zb * zb
    d2 = d * d
    return {
        "S": _herm((x * y * y * (4 * x - y) - (2 * u - 2 * y * y + zz2) * u
                    - y * (7 * x - (z + zb)) * d) / d2,
                   y * y * (u + y * y + x * y - zz2) / d2,
                   (y * y * d + x * y * y * (2 * z * z - zb) + z * y * (y * y - z * z)) / d2),
        "Q1": _herm(x * y * (u - zz2 + y * (x + y)) / d2,
                    y * y * (u - zz2 + y * (x + y)) / d2,
                    y * ((z - zb) * u + x * y * z + y * y * z - z ** 3) / d2),
        "Q2": _herm(2 * (u + y * (z + zb) + y * y) / d, 2 * y * y / d,
                    2 * y * (y + zb) / d),
        "Q3": _herm((2 * x * y * u - x * y * zz2 + y * y * u
                     + (x * y - y * (z + zb) - u) * d) / d2,
                    y * y * (2 * u - zz2 + y * y) / d2,
                    y * (z * u + y * u - x * y * (z - zb) - z ** 3 + y * y * z - x * y * y) / d2),
        "Q4": _herm((u + y * (z + zb) + y * y) / d, y * y / d, y * (y + zb) / d),
    }


PUBLISHED_TABLES = {
    Geometry.HYPERELLIPTIC: _tables_hyperelliptic,
    Geometry.HOPF: _tables_hopf,
    Geometry.PROPERLY_ELLIPTIC: _tables_properly_elliptic,
    Geometry.KODAIRA_PRIMARY: _tables_kodaira_primary,
    Geometry.KODAIRA_SECONDARY: _tables_kodaira_secondary,
    Geometry.INOUE_S0: _tables_inoue_s0,
    Geometry.INOUE_SPM_J1: _tables_inoue_j1,
    Geometry.INOUE_SP_J2: _tables_inoue_j2,
}
