"""Post-processing of flow trajectories: normalized limits, growth rates,
decay bounds, and the finite-time surrogate of the Gromov-Hausdorff
classification.

The classifier fits the normalized components x/(1+t), y/(1+t), |z|/(1+t)
over the final window of the run.  A component survives when its tail
exponent (the slope of log n over log(1+t)) exceeds DECAY_EXPONENT, unless its
window mean is below ZERO_LEVEL, where roundoff has no slope.  Survivors fit
exponents near 0 and the slowest decay, Kodaira x, goes like t^(-3/5); unlike a
level threshold, this does not depend on the scale of the initial metric.

Which limits a geometry can have, the sign conditions and explicit bounds its
flow obeys, and whether its un-rescaled flow converges are read from its
``hcflow.catalog`` entry; nothing here branches on the geometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import (LIMIT_CIRCLE, LIMIT_COLLAPSE, LIMIT_KE_CURVE, LIMIT_POINT,
                      OUTCOME_EXTINCT, OUTCOME_IMMORTAL, entry)
from .geometry import Geometry, GeometryParams
from .integrate import FlowOutcome, Trajectory
from .metric import HermitianMetric

LIMIT_FLAT_KAEHLER = "flat-kaehler-metric"
LIMIT_UNCLASSIFIED = "unclassified"

#: Tail fraction of the run over which normalized components are averaged.
DEFAULT_WINDOW = 0.10
#: Normalized components with a window mean below this are zero (roundoff).
ZERO_LEVEL = 1e-9
#: A component survives when its tail exponent is above this.
DECAY_EXPONENT = -0.3
#: Immortal runs shorter than this cannot be classified.
MIN_CLASSIFIABLE_T = 500.0
#: Tail fraction of the run over which growth rates are fitted.
GROWTH_WINDOW = 0.5
#: Relative allowance of the decay bound on u.
DECAY_SLACK = 1e-6


class TrajectoryTooShortError(ValueError):
    """Raised when a trajectory lacks the tail data an operation needs."""


class DecayBoundViolation(AssertionError):
    """Raised when a trajectory breaks the exponential decay bound for u."""


@dataclass(frozen=True)
class LimitDescriptor:
    """Classified long-time limit with the numeric evidence that produced it."""

    kind: str
    circle_length: float | None = None
    normalized_limit: tuple[float, float] | None = None
    flat_limit: HermitianMetric | None = None
    collapse_time: float | None = None
    evidence: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "evidence": self.evidence}
        if self.circle_length is not None:
            out["circle_length"] = self.circle_length
        if self.normalized_limit is not None:
            out["normalized_limit"] = list(self.normalized_limit)
        if self.flat_limit is not None:
            g = self.flat_limit
            out["flat_limit"] = {"x": g.x, "y": g.y, "z_re": g.z.real, "z_im": g.z.imag}
        if self.collapse_time is not None:
            out["collapse_time"] = self.collapse_time
        return out


def _line_fit(t: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept of v against t; a fit needs at least
    two samples in its window."""
    if len(t) < 2:
        raise TrajectoryTooShortError(
            f"a line fit needs at least two samples in its window, got {len(t)}")
    design = np.column_stack([t, np.ones_like(t)])
    (slope, intercept), *_ = np.linalg.lstsq(design, v, rcond=None)
    return slope, intercept


def linear_growth_rate(traj: Trajectory, component: str) -> tuple[float, float]:
    """Least-squares slope of x or y over the final window, with max relative
    deviation of the data from the affine fit."""
    if component not in ("x", "y"):
        raise ValueError("component must be 'x' or 'y'")
    if len(traj) == 0 or traj.t[-1] < 100.0:
        raise TrajectoryTooShortError(
            f"growth-rate fit needs a run to t >= 100, got t_end="
            f"{traj.t[-1] if len(traj) else 0.0}")
    v = traj.x if component == "x" else traj.y
    t = traj.t
    sel = t >= (1.0 - GROWTH_WINDOW) * t[-1]
    tt, vv = t[sel], v[sel]
    slope, intercept = _line_fit(tt, vv)
    fit = slope * tt + intercept
    scale = max(1.0, float(np.max(np.abs(fit))))
    residual = float(np.max(np.abs(vv - fit)) / scale)
    return float(slope), residual


def verify_decay_bound(traj: Trajectory) -> dict:
    """Check u(t) <= u(0) * exp(-2 t / y(0)) * (1 + DECAY_SLACK) at every sample.

    Returns a report with the measured tail decay exponent and the limiting
    diagonal metric; raises DecayBoundViolation when the bound fails.
    Intended for hyperelliptic runs, where the bound is a theorem.
    """
    if len(traj) == 0:
        raise TrajectoryTooShortError("empty trajectory")
    u = traj.u
    u0, y0 = float(u[0]), float(traj.y[0])
    bound = u0 * np.exp(-2.0 * traj.t / y0) * (1.0 + DECAY_SLACK)
    bad = np.nonzero(u > bound)[0]
    if bad.size:
        i = int(bad[0])
        raise DecayBoundViolation(
            f"u({traj.t[i]:g}) = {u[i]:.6e} exceeds bound {bound[i]:.6e}")

    exponent = None
    if u0 > 0:
        # log-linear fit over the later half of the samples above the floor
        # of float64 (u is emitted as 0 once it leaves the normal range)
        above = np.nonzero(u > 1e-280)[0]
        sel = above[len(above) // 2:]
        if sel.size >= 4:
            exponent = float(_line_fit(traj.t[sel], np.log(u[sel]))[0])
    gf = traj.final_metric()
    return {
        "passed": True,
        "u0": u0,
        "y0": y0,
        "bound_exponent": -2.0 / y0,
        "measured_exponent": exponent,
        "x_inf": gf.x,
        "y_inf": gf.y,
        "z_inf_abs": abs(gf.z),
    }


def classify_gh_limit(geometry: Geometry, traj: Trajectory,
                      outcome: FlowOutcome) -> LimitDescriptor:
    """Classify the normalized long-time limit of one flow run.

    Decision rule on the components that survive (see module docstring):
    none is a point; x or y alone on a geometry whose expected limit is a
    circle is a circle of length sqrt(L), L its window mean; x alone on one
    whose expected limit is a Kaehler-Einstein curve is the rescaled base
    curve.  A non-finite level or exponent is unclassified.  Extinct runs are
    labeled by their collapse time.  Raises TrajectoryTooShortError for an
    immortal run shorter than MIN_CLASSIFIABLE_T, or whose window holds one
    sample where an exponent needs a fit.
    """
    if outcome.outcome_class == OUTCOME_EXTINCT:
        return LimitDescriptor(kind=LIMIT_COLLAPSE, collapse_time=outcome.t_est,
                               evidence={"monitor_final": traj.monitor_final})
    if outcome.outcome_class != OUTCOME_IMMORTAL:
        return LimitDescriptor(kind=LIMIT_UNCLASSIFIED,
                               evidence={"reason": outcome.outcome_class})
    if len(traj) == 0 or traj.t[-1] < MIN_CLASSIFIABLE_T:
        raise TrajectoryTooShortError(
            f"classification needs t_max >= {MIN_CLASSIFIABLE_T:g}, got "
            f"{traj.t[-1] if len(traj) else 0.0:g}")

    t = traj.t
    sel = t >= (1.0 - DEFAULT_WINDOW) * t[-1]
    info = {"window_t_start": float(t[sel][0]), "window_t_end": float(t[-1]),
            "window_samples": int(sel.sum())}
    survivors = set()
    for name, n in zip(("x", "y", "z_abs"), traj.normalized):
        level = info[f"n_{name}"] = float(np.mean(n[sel]))
        exponent = info[f"exponent_{name}"] = None if level < ZERO_LEVEL else float(
            _line_fit(np.log1p(t[sel]), np.log(n[sel]))[0])
        if exponent is not None and exponent > DECAY_EXPONENT:
            survivors.add(name)
    if not all(math.isfinite(v) for v in info.values() if v is not None):
        return LimitDescriptor(kind=LIMIT_UNCLASSIFIED, evidence=info)

    n_x, n_y = info["n_x"], info["n_y"]
    desc = entry(geometry)
    if not survivors:
        if desc.converges_unrescaled:  # report both facts
            info["unnormalized_limit"] = unnormalized_limit(traj).to_json_dict()
        return LimitDescriptor(kind=LIMIT_POINT, evidence=info)
    if desc.expected_limit == LIMIT_CIRCLE:
        if survivors == {"x"}:
            return LimitDescriptor(kind=LIMIT_CIRCLE, circle_length=math.sqrt(n_x),
                                   normalized_limit=(n_x, 0.0), evidence=info)
        if survivors == {"y"}:
            return LimitDescriptor(kind=LIMIT_CIRCLE, circle_length=math.sqrt(n_y),
                                   normalized_limit=(0.0, n_y), evidence=info)
    if desc.expected_limit == LIMIT_KE_CURVE and survivors == {"x"}:
        return LimitDescriptor(kind=LIMIT_KE_CURVE,
                               normalized_limit=(n_x, 0.0), evidence=info)
    return LimitDescriptor(kind=LIMIT_UNCLASSIFIED, evidence=info)


def unnormalized_limit(traj: Trajectory) -> LimitDescriptor:
    """Un-rescaled limit of a run whose un-rescaled flow converges
    (hyperelliptic): a flat diagonal metric."""
    gf = traj.final_metric()
    return LimitDescriptor(
        kind=LIMIT_FLAT_KAEHLER,
        flat_limit=HermitianMetric(gf.x, gf.y, 0.0),
        evidence={"z_final_abs": abs(gf.z)})


# ---------------------------------------------------------------------------
# sign conditions and explicit bounds along trajectories
# ---------------------------------------------------------------------------

#: the values that must be <= 0 (up to slack) where a rate has each sign
_SIGN_EXCESS = {"== 0": np.abs, "<= 0": np.positive, ">= 0": np.negative}


def _cond_max(name: str, values: np.ndarray, slack: float) -> dict:
    """values must be finite and <= slack * scale; reports the worst margin
    (None where it or the allowance is not finite)."""
    scale = 1.0 + float(np.max(np.abs(values))) if values.size else 1.0
    worst = float(np.max(values)) if values.size else 0.0
    allowed = slack * scale
    finite = bool(np.isfinite(values).all()) and math.isfinite(allowed)
    return {"condition": name, "passed": finite and worst <= allowed,
            "worst": worst if math.isfinite(worst) else None,
            "allowed": allowed if math.isfinite(allowed) else None}


def monotonicity_report(geometry: Geometry, traj: Trajectory, rel_tol: float) -> dict:
    """Evaluate the geometry's sign conditions and explicit bounds (its catalog
    entry's ``signs`` and ``explicit_bounds``) at all samples of a non-empty
    trajectory.

    All assertions carry a slack of 10*rel_tol (scaled by the magnitude of the
    quantity involved) to absorb integration error.  A huge metric's rates or
    bounds overflow to inf or NaN, which fails their checks.
    """
    s = 10.0 * rel_tol
    desc = entry(geometry)
    with np.errstate(all="ignore"):
        rates = zip(("xdot", "ydot", "udot", "Ddot"),
                    (traj.xdot, traj.ydot, traj.udot, traj.ddot), desc.signs)
        checks = [_cond_max(f"{name} {sign}", _SIGN_EXCESS[sign](rate), s)
                  for name, rate, sign in rates if sign is not None]
        checks += [_cond_max(name, excess, s) for name, excess in desc.explicit_bounds(traj)]
    return {"geometry": geometry.value, "slack": s,
            "passed": all(c["passed"] for c in checks), "checks": checks}


def udot_consistency(geometry: Geometry, params: GeometryParams,
                     traj: Trajectory) -> dict:
    """Compare d(|z|^2)/dt from the integrated z against the reduced formula.

    The flow integrates (x, y, Re z, Im z); the reduced systems evolve
    (x, y, u).  Their u-rates must agree at every sampled state.
    """
    observed = traj.udot
    expected = entry(geometry).udot(params, traj.x, traj.y, traj.z_re, traj.z_im)
    with np.errstate(invalid="ignore"):
        rel = np.abs(observed - expected) / np.maximum(np.abs(observed), np.abs(expected))
    # fmax skips NaN: samples where both rates are 0 (0/0) or either is not finite
    return {"max_rel_error": float(np.fmax.reduce(rel, initial=0.0)),
            "samples": len(traj)}
