"""Seeded inputs of the two benchmark workloads.

Every workload exercises the three hcflow commands a user runs: single
flows (`hcflow run`), a grid of them (`hcflow sweep`) and the closed-form
certification (`hcflow verify --all`, the same on both workloads).  The
workloads differ in which geometries, horizons and emit targets the flows
have.  Parameters and initial metrics are drawn with
`catalog.sample_params` / `catalog.sample_metric`, so the program sees
ordinary config documents.  The same seed and seconds give the same inputs.

The uniforms behind the draws are Latin-hypercube stratified and centred:
of K draws for one geometry, each of the K equal slices of every uniform
gets exactly one, at the slice's midpoint, and the seed permutes which
slices go together.  Every run therefore covers the whole draw
distribution, hard tails included, in its proper share.  Over seeds 1-10
of limits-t1000 (13 draws per geometry), the integrator
steps per flow spread (interquartile range over median) as follows, for
centred, jittered (a random place inside the slice) and independent
draws: their 90th percentile, which sets run_ms_p90, by 0.16, 0.16 and
0.31; their total, which sets the sweep time, by 0.10, 0.23 and 0.51.  On
hopf-collapse all stay below 0.02.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hcflow.catalog import entry, sample_metric, sample_params
from hcflow.geometry import Geometry

ALL_EMIT = ("trajectory-csv", "outcome-json", "analysis-json", "plot-data")
DEFAULT_EMIT = ("trajectory-csv", "outcome-json", "analysis-json")

IMMORTAL = tuple(g for g in Geometry if entry(g).expected_outcome == "immortal")

# Sizes per second of --seconds.  The benchmark repeats the workload slice
# by slice in rounds until --seconds is used up, at least three rounds.  In
# the pure-Python lane on a 2-core machine, at --seconds 45, a round of
# limits-t1000 (104 flows) takes 15-23 s, so a run makes its three rounds
# in 50-70 s; one of hopf-collapse (180 flows) takes 7-10 s, so a run makes
# 4-6.  Both have ten or more flows beyond run_ms_p90.
_LIMITS_FLOWS_PER_GEOMETRY_PER_S = 0.29
_HOPF_FLOWS_PER_S = 4.0
VERIFY_CALLS = 8
VERIFY_SAMPLES = 100


@dataclass(frozen=True)
class Workload:
    name: str
    configs: list[dict]          # each run by `hcflow run` and, slice by slice, `hcflow sweep`
    emit: tuple[str, ...]
    verify_calls: list[list[str]]  # argv of each `hcflow verify` call


class _Strata:
    """Stand-in for the Generator that sample_metric / sample_params draw from.

    `start(k)` begins draw k of K; the d-th uniform of that draw is the
    midpoint of slice perm[d][k] of K.
    """

    def __init__(self, rng: np.random.Generator, k_draws: int) -> None:
        self._rng, self._k_draws = rng, k_draws
        self._perms: list[np.ndarray] = []
        self._k = self._d = 0

    def start(self, k: int) -> "_Strata":
        self._k, self._d = k, 0
        return self

    def _unit(self) -> float:
        if self._d == len(self._perms):
            self._perms.append(self._rng.permutation(self._k_draws))
        u = (self._perms[self._d][self._k] + 0.5) / self._k_draws
        self._d += 1
        return u

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        if size is None:
            return low + (high - low) * self._unit()
        return np.array([low + (high - low) * self._unit() for _ in range(size)])

    def choice(self, options):
        return options[min(int(self._unit() * len(options)), len(options) - 1)]


def _flow_docs(geometry: Geometry, rng: np.random.Generator, k_draws: int,
               t_max: float, **extra) -> list[dict]:
    strata = _Strata(rng, k_draws)
    return [_flow_doc(geometry, strata.start(k), t_max, **extra) for k in range(k_draws)]


def _flow_doc(geometry: Geometry, rng, t_max: float, **extra) -> dict:
    params = sample_params(geometry, rng)
    g0 = sample_metric(rng)
    return {
        "schema_version": 1,
        "geometry": geometry.value,
        "params": {("lambda" if k == "lam" else k): v
                   for k, v in params.as_dict().items()},
        "g0": {"x": g0.x, "y": g0.y, "z_re": g0.z.real, "z_im": g0.z.imag},
        "t_max": t_max,
        **extra,
    }


def _verify_calls(rng: np.random.Generator) -> list[list[str]]:
    return [["verify", "--all", "--samples", str(VERIFY_SAMPLES),
             "--seed", str(int(rng.integers(0, 2**31))), "--json"]
            for _ in range(VERIFY_CALLS)]


def _count(seconds: float, rate: float, floor: int) -> int:
    return max(floor, round(seconds * rate))


def limits_t1000(seed: int, seconds: float) -> Workload:
    rng = np.random.default_rng([seed, 1])
    per_geometry = _count(seconds, _LIMITS_FLOWS_PER_GEOMETRY_PER_S, 1)
    # round-robin over the geometries, so every slice of the run has the same mix
    by_geometry = [_flow_docs(g, rng, per_geometry, 1000.0) for g in IMMORTAL]
    configs = [docs[k] for k in range(per_geometry) for docs in by_geometry]
    return Workload("limits-t1000", configs, ALL_EMIT, _verify_calls(rng))


def hopf_collapse(seed: int, seconds: float) -> Workload:
    rng = np.random.default_rng([seed, 2])
    # the drawn metrics collapse before t ~ 20; t_max = 100 is well past that
    configs = _flow_docs(Geometry.HOPF, rng, _count(seconds, _HOPF_FLOWS_PER_S, 4), 100.0)
    return Workload("hopf-collapse", configs, DEFAULT_EMIT, _verify_calls(rng))


WORKLOADS = {"limits-t1000": limits_t1000, "hopf-collapse": hopf_collapse}
