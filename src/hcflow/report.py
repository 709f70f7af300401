"""Assembly of the per-run analysis report emitted as analysis.json.

Every geometry-specific part (expected labels, references, the decay bound,
the monotonicity checks) comes from the run's ``hcflow.catalog`` entry.
"""
from __future__ import annotations

from .analysis import (DecayBoundViolation, TrajectoryTooShortError,
                       classify_gh_limit, linear_growth_rate,
                       monotonicity_report, udot_consistency,
                       verify_decay_bound, LIMIT_UNCLASSIFIED)
from .catalog import LIMIT_CIRCLE, LIMIT_KE_CURVE, entry
from .integrate import FlowConfig, FlowOutcome, Trajectory


def analysis_report(config: FlowConfig, traj: Trajectory, outcome: FlowOutcome) -> dict:
    """Slopes, decay checks, invariant checks and the limit classification.

    ``clean`` is true when the limit is classified and every monotonicity
    check passes.
    """
    geometry = config.params.geometry
    params = config.params
    desc = entry(geometry)
    report: dict = {
        "geometry": geometry.value,
        "params": params.as_dict(),
        "outcome_class": outcome.outcome_class,
        "t_end": float(traj.t[-1]) if len(traj) else 0.0,
        "expected_outcome": desc.expected_outcome,
        "expected_limit": desc.expected_limit,
    }

    try:
        report["classification"] = classify_gh_limit(geometry, traj, outcome).to_json_dict()
    except TrajectoryTooShortError as exc:
        report["classification"] = {"kind": LIMIT_UNCLASSIFIED, "evidence": {"reason": str(exc)}}

    slopes = {}
    if len(traj) and traj.t[-1] >= 100.0 and outcome.outcome_class == "immortal":
        for component in ("x", "y"):
            slope, residual = linear_growth_rate(traj, component)
            slopes[component] = {"slope": slope, "residual": residual}
    report["growth_rates"] = slopes

    kind = report["classification"]["kind"]
    if kind == LIMIT_CIRCLE:
        report["reference_circle_length"] = desc.expected_circle_length(params)
    if kind == LIMIT_KE_CURVE:
        report["reference_normalized_limit"] = list(desc.expected_normalized_limit(params))

    if desc.converges_unrescaled and len(traj):
        try:
            report["decay_bound"] = verify_decay_bound(traj)
        except DecayBoundViolation as exc:
            report["decay_bound"] = {"passed": False, "violation": str(exc)}

    if len(traj):
        report["monotonicity"] = monotonicity_report(geometry, traj, config.rel_tol)
        consistency = udot_consistency(geometry, params, traj)
        consistency["passed"] = consistency["max_rel_error"] <= 10 * config.rel_tol
        report["udot_consistency"] = consistency

    # a frozen huge metric can be classified, but its explicit bounds fail
    report["clean"] = (kind != LIMIT_UNCLASSIFIED
                       and report.get("monotonicity", {}).get("passed", True))
    return report
