"""Verification harness: general-contraction engine vs closed-form tensors,
structure-constant hygiene, and the report-only diff against the published
per-component tables.

The closed forms are the production fast path; they are only trusted because
this suite certifies them against the contraction engine.  The published
S/Q component tables are known to contain typos, so their diff is reported
per component and never asserted.
"""
from __future__ import annotations

import logging
import time

import numpy as np

from . import algebra
from .catalog import entry, list_geometries, sample_metrics, sample_params
from .curvature import curvature_bundle, hermiticity_defect
from .geometry import Geometry, GeometryParams
from .metric import HermitianMetric

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


def _chunks(rng: np.random.Generator, samples: int):
    """The sampled metrics as rows (x, y, Re z, Im z), drawn in order, CHUNK at a time."""
    for start in range(0, samples, CHUNK):
        yield sample_metrics(rng, min(CHUNK, samples - start))


def _finite(value: float) -> float | None:
    """JSON-safe report value: None for NaN or infinity."""
    return value if np.isfinite(value) else None


def verify_geometry(geometry: Geometry, samples: int, seed: int,
                    params: GeometryParams | None = None) -> dict:
    """Engine-vs-closed-form agreement on random metrics for one geometry."""
    rng = np.random.default_rng(seed)
    if params is None:
        params = sample_params(geometry, rng)
    desc = entry(geometry)
    mu = desc.structure_constants(params)
    worst = worst_herm = 0.0
    for rows in _chunks(rng, samples):
        K = curvature_bundle(mu, rows).K
        closed = desc.closed_form_K(params, rows)
        # np.max propagates NaN, so one non-finite sample fails the geometry
        worst = float(np.max(_rel_matrix_error(K, closed), initial=worst))
        worst_herm = float(np.max(hermiticity_defect(K) / _scale(K), initial=worst_herm))
    log.debug("%s: max rel error %.3e over %d metrics", geometry.value, worst, samples)
    return {
        "geometry": geometry.value,
        "params": params.as_dict(),
        "samples": samples,
        "max_rel_error": _finite(worst),
        "max_hermiticity_defect": _finite(worst_herm),
        "passed": bool(worst <= K_AGREEMENT_TOL and np.isfinite(worst_herm)),
    }


def verify_structure_constants(geometry: Geometry, draws: int, seed: int) -> dict:
    """Antisymmetry/reality/integrability/Jacobi hygiene over parameter draws.

    The draws are made in seed order and repeats are dropped (the max over
    equal parameters is the same), then each check runs once on the stack of
    their structure constants.
    """
    rng = np.random.default_rng(seed)
    desc = entry(geometry)
    distinct = dict.fromkeys(sample_params(geometry, rng) for _ in range(draws))
    mu = np.array([desc.structure_constants(p).mu for p in distinct],
                  dtype=complex).reshape(-1, 4, 4, 4)
    # np.max propagates NaN, which Python's max drops unless it comes first
    worst = {name: float(np.max(check(mu), initial=0.0)) for name, check in (
        ("antisymmetry", algebra.antisymmetry_violation),
        ("reality", algebra.reality_violation),
        ("integrability", algebra.integrability_violation),
        ("jacobi", algebra.jacobi_violation))}
    return {"geometry": geometry.value, "draws": draws,
            "violations": {name: _finite(v) for name, v in worst.items()},
            "passed": all(v <= HYGIENE_TOL for v in worst.values())}


def appendix_diff(geometry: Geometry, samples: int, seed: int) -> dict:
    """Report-only comparison of the published S/Q component tables against
    the contraction engine, plus the reassembled K against the closed form.

    Known discrepancies (dimensionally inconsistent published entries) show up
    here as order-one diffs; they are recorded, not failed.
    """
    rng = np.random.default_rng(seed)
    params = sample_params(geometry, rng)
    desc = entry(geometry)
    mu = desc.structure_constants(params)
    names = ("S", "Q1", "Q2", "Q3", "Q4")
    worst: dict[str, np.ndarray] = {n: np.zeros((2, 2)) for n in names}
    worst_assembled = 0.0
    for rows in _chunks(rng, samples):
        per_metric = [desc.appendix_tables(params, HermitianMetric(x, y, complex(z_re, z_im)))
                      for x, y, z_re, z_im in rows.tolist()]
        if per_metric[0] is None:
            return {"geometry": geometry.value, "tables": None}
        tables = {n: np.array([t[n] for t in per_metric]) for n in names}
        bundle = curvature_bundle(mu, rows)
        for n in names:
            computed = getattr(bundle, n)
            rel = np.abs(tables[n] - computed) / _scale(computed)[:, None, None]
            worst[n] = np.maximum(worst[n], np.max(rel, axis=0))
        assembled = (tables["S"] - 0.5 * tables["Q1"] + 0.25 * tables["Q2"]
                     + 0.5 * tables["Q3"] - tables["Q4"])
        closed = desc.closed_form_K(params, rows)
        worst_assembled = float(np.max(_rel_matrix_error(assembled, closed),
                                       initial=worst_assembled))
    component_report = {
        n: {"max_rel_diff": float(np.max(worst[n])),
            "per_component": [[float(worst[n][i, j]) for j in range(2)] for i in range(2)]}
        for n in names
    }
    return {
        "geometry": geometry.value,
        "params": params.as_dict(),
        "samples": samples,
        "tables": component_report,
        "assembled_K_vs_closed_form": worst_assembled,
    }


def run_verification(geometries: list[Geometry] | None = None, samples: int = 200,
                     seed: int = 0, include_appendix: bool = False) -> dict:
    """Full verification report; ``passed`` reflects only the K agreement."""
    geoms = geometries if geometries is not None else [d.geometry for d in list_geometries()]
    t0 = time.perf_counter()
    report: dict = {"seed": seed, "samples": samples, "geometries": []}
    for i, geom in enumerate(geoms):
        item = verify_geometry(geom, samples, seed + i)
        item["structure_constants"] = verify_structure_constants(geom, 20, seed + i)
        if include_appendix:
            item["appendix_diff"] = appendix_diff(geom, min(samples, 25), seed + i)
        report["geometries"].append(item)
    report["elapsed_seconds"] = time.perf_counter() - t0
    report["passed"] = all(item["passed"] for item in report["geometries"])
    return report
