"""Verification harness: contraction engine vs closed-form tensors, and
structure-constant hygiene.

The closed forms are the production fast path; they are only trusted because
this suite certifies them against the contraction engine.
"""
from __future__ import annotations

import logging
import time

import numpy as np

from . import algebra
from .catalog import entry, list_geometries, sample_metrics, sample_params
from .curvature import curvature_bundle, hermiticity_defect
from .geometry import Geometry, GeometryParams

log = logging.getLogger("hcflow.verify")

K_AGREEMENT_TOL = 1e-9
#: Largest structure-constant hygiene violation that passes.
HYGIENE_TOL = 1e-14
#: metrics evaluated per stacked engine call, so memory stays bounded for any sample count
CHUNK = 256


def _scale(M: np.ndarray) -> np.ndarray:
    """max(1, largest |component|) over the last two axes; NaN stays NaN."""
    return np.maximum(1.0, np.max(np.abs(M), axis=(-2, -1)))


def _rel_matrix_error(computed: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Max componentwise deviation over the last two axes, normalized by the
    reference matrix scale.

    The matrix scale (not the individual component) is the denominator so
    that components which vanish identically do not turn roundoff into a
    spurious infinite relative error.
    """
    return np.max(np.abs(computed - reference), axis=(-2, -1)) / _scale(reference)


def _chunks(rngs: list[np.random.Generator], samples: int):
    """Lists of (case index, rows) holding CHUNK rows in all (the last one
    fewer): each case's ``samples`` metrics as rows (x, y, Re z, Im z), the
    cases in order, each case's drawn in order from its own generator.

    A piece may end a case or a chunk; the rows have the bits of one draw per
    case, as ``sample_metrics`` gives the same rows however a draw is cut.
    """
    chunk, filled = [], 0
    for i, rng in enumerate(rngs):
        left = samples
        while left:
            n = min(left, CHUNK - filled)
            chunk.append((i, sample_metrics(rng, n)))
            left, filled = left - n, filled + n
            if filled == CHUNK:
                yield chunk
                chunk, filled = [], 0
    if chunk:
        yield chunk


def _finite(value: float) -> float | None:
    """JSON-safe report value: None for NaN or infinity."""
    return value if np.isfinite(value) else None


def _agreement(cases: list[tuple[GeometryParams, np.random.Generator]],
               samples: int) -> list[dict]:
    """Engine-vs-closed-form agreement on ``samples`` random metrics per case.

    One pass over all cases: each engine call takes CHUNK metrics of
    consecutive cases with one algebra per metric row, and the closed form,
    the error reductions and the report stay per case.
    """
    params = [p for p, _ in cases]
    descs = [entry(p.geometry) for p in params]
    mus = np.array([d.structure_constants(p).mu for d, p in zip(descs, params)],
                   dtype=complex).reshape(-1, 4, 4, 4)
    worst = [0.0] * len(cases)
    worst_herm = [0.0] * len(cases)
    for chunk in _chunks([rng for _, rng in cases], samples):
        rows = np.concatenate([r for _, r in chunk])
        case = np.repeat([i for i, _ in chunk], [len(r) for _, r in chunk])
        K = curvature_bundle(algebra.StructureConstants(mus[case]), rows).K
        closed = np.concatenate([descs[i].closed_form_K(params[i], r) for i, r in chunk])
        error = _rel_matrix_error(K, closed)
        herm = hermiticity_defect(K) / _scale(K)
        stop = 0
        for i, r in chunk:
            start, stop = stop, stop + len(r)
            # np.max propagates NaN, so one non-finite sample fails the case
            worst[i] = float(np.max(error[start:stop], initial=worst[i]))
            worst_herm[i] = float(np.max(herm[start:stop], initial=worst_herm[i]))
    report = []
    for p, w, h in zip(params, worst, worst_herm):
        log.debug("%s: max rel error %.3e over %d metrics", p.geometry.value, w, samples)
        report.append({
            "geometry": p.geometry.value,
            "params": p.as_dict(),
            "samples": samples,
            "max_rel_error": _finite(w),
            "max_hermiticity_defect": _finite(h),
            "passed": bool(w <= K_AGREEMENT_TOL and np.isfinite(h)),
        })
    return report


def verify_geometry(geometry: Geometry, samples: int, seed: int,
                    params: GeometryParams | None = None) -> dict:
    """Engine-vs-closed-form agreement on random metrics for one geometry,
    its parameters drawn from ``default_rng(seed)`` unless given."""
    rng = np.random.default_rng(seed)
    if params is None:
        params = sample_params(geometry, rng)
    return _agreement([(params, rng)], samples)[0]


def verify_structure_constants(geometries: list[Geometry], draws: int, seed: int) -> list[dict]:
    """Antisymmetry/reality/integrability/Jacobi hygiene over parameter draws.

    Geometry i makes its draws from ``default_rng(seed + i)``, in order, and
    its repeats are dropped (the max over equal parameters is the same).  The
    distinct draws of all geometries form one stack of structure constants,
    each check runs once on it, and each geometry's block is reduced alone.
    """
    if not geometries:
        return []
    distinct = []
    for i, geom in enumerate(geometries):
        rng = np.random.default_rng(seed + i)
        distinct.append(list(dict.fromkeys(sample_params(geom, rng) for _ in range(draws))))
    mu = np.concatenate([entry(g).structure_constants(d).mu
                         for g, d in zip(geometries, distinct)])
    names = ("antisymmetry", "reality", "integrability", "jacobi")
    values = np.array([check(mu) for check in (
        algebra.antisymmetry_violation, algebra.reality_violation,
        algebra.integrability_violation, algebra.jacobi_violation)])
    report, stop = [], 0
    for geom, d in zip(geometries, distinct):
        start, stop = stop, stop + len(d)
        # np.max propagates NaN, which Python's max drops unless it comes first
        worst = np.max(values[:, start:stop], axis=1, initial=0.0).tolist()
        report.append({"geometry": geom.value, "draws": draws,
                       "violations": {n: _finite(v) for n, v in zip(names, worst)},
                       "passed": all(v <= HYGIENE_TOL for v in worst)})
    return report


def run_verification(geometries: list[Geometry] | None = None, samples: int = 200,
                     seed: int = 0) -> dict:
    """Full verification report; ``passed`` reflects only the K agreement."""
    geoms = geometries if geometries is not None else [d.geometry for d in list_geometries()]
    t0 = time.perf_counter()
    # geometry i draws its parameters, then its metrics, from default_rng(seed + i)
    rngs = [np.random.default_rng(seed + i) for i in range(len(geoms))]
    items = _agreement([(sample_params(g, rng), rng) for g, rng in zip(geoms, rngs)], samples)
    for item, hygiene in zip(items, verify_structure_constants(geoms, 20, seed)):
        item["structure_constants"] = hygiene
    report: dict = {"seed": seed, "samples": samples, "geometries": items}
    report["elapsed_seconds"] = time.perf_counter() - t0
    report["passed"] = all(item["passed"] for item in report["geometries"])
    return report
