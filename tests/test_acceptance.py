"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Long flow runs are shared between criteria through module fixtures.
"""
import numpy as np
import pytest

from hcflow.analysis import (classify_gh_limit, linear_growth_rate,
                             monotonicity_report, udot_consistency,
                             verify_decay_bound)
from hcflow.catalog import (LIMIT_CIRCLE, LIMIT_COLLAPSE, LIMIT_KE_CURVE,
                            LIMIT_POINT, entry, sample_metric)
from hcflow.geometry import Geometry, GeometryParams
from hcflow.integrate import FlowConfig, OUTCOME_EXTINCT, OUTCOME_IMMORTAL, integrate
from hcflow.metric import HermitianMetric
from hcflow.verify import run_verification

REL_TOL = 1e-9
ABS_TOL = 1e-12

#: Fixed representative parameters for the long-run suites.
RUN_PARAMS = {
    Geometry.TORUS: {},
    Geometry.HYPERELLIPTIC: {},
    Geometry.HOPF: {"lam": 0.7},
    Geometry.PROPERLY_ELLIPTIC: {"lam": 0.8},
    Geometry.KODAIRA_PRIMARY: {},
    Geometry.KODAIRA_SECONDARY: {"epsilon": 1},
    Geometry.INOUE_S0: {"a": 1.0, "b": 2.0},
    Geometry.INOUE_SPM_J1: {},
    Geometry.INOUE_SP_J2: {},
}

EXPECTED_KIND = {
    Geometry.TORUS: LIMIT_POINT,
    Geometry.HYPERELLIPTIC: LIMIT_POINT,
    Geometry.HOPF: LIMIT_COLLAPSE,
    Geometry.PROPERLY_ELLIPTIC: LIMIT_KE_CURVE,
    Geometry.KODAIRA_PRIMARY: LIMIT_POINT,
    Geometry.KODAIRA_SECONDARY: LIMIT_POINT,
    Geometry.INOUE_S0: LIMIT_CIRCLE,
    Geometry.INOUE_SPM_J1: LIMIT_CIRCLE,
    Geometry.INOUE_SP_J2: LIMIT_CIRCLE,
}


def report(criterion: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion:2d} {status}: {description}{suffix}")
    assert passed, f"criterion {criterion}: {description}{suffix}"


def _initial_metric(rng) -> HermitianMetric:
    """Moderate random metric with a guaranteed off-diagonal part."""
    while True:
        g = sample_metric(rng, diag_range=(0.6, 1.5), max_fill=0.5)
        if g.u >= 0.02 * g.x * g.y:
            return g


@pytest.fixture(scope="module")
def classification_runs():
    """Five random-initial-metric runs to t = 1000 for every catalog entry."""
    rng = np.random.default_rng(42)
    runs = {}
    for geometry in Geometry:
        params = GeometryParams(geometry, **RUN_PARAMS[geometry])
        items = []
        for _ in range(5):
            g0 = _initial_metric(rng)
            config = FlowConfig(params=params, g0=g0, t_max=1000.0,
                                rel_tol=REL_TOL, abs_tol=ABS_TOL, sample_stride=1.0)
            traj, outcome = integrate(config)
            items.append((config, traj, outcome))
        runs[geometry] = items
    return runs


def test_criterion_01_oracle_agreement():
    rep = run_verification(samples=200, seed=7)
    worst = max(item["max_rel_error"] for item in rep["geometries"])
    ok = rep["passed"] and rep["elapsed_seconds"] <= 2.0
    report(1, "closed-form vs contraction engine, 200 metrics x 9 entries",
           ok, f"max_rel_error={worst:.2e}, elapsed={rep['elapsed_seconds']:.2f}s")


def test_criterion_02_exact_hopf_solution():
    config = FlowConfig(params=GeometryParams(Geometry.HOPF, lam=0.0),
                        g0=HermitianMetric(1, 1.5, 0), t_max=10.0,
                        rel_tol=REL_TOL, abs_tol=ABS_TOL, sample_stride=0.01)
    traj, outcome = integrate(config)
    sel = traj.t <= 2.2
    x_err = float(np.max(np.abs(traj.x[sel] - (1 - 4 * traj.t[sel] / 9))))
    ok = (outcome.outcome_class == OUTCOME_EXTINCT and x_err <= 1e-6
          and abs(outcome.t_est - 2.25) <= 1e-3)

    config2 = FlowConfig(params=GeometryParams(Geometry.HOPF, lam=1.0),
                         g0=HermitianMetric(1, 3, 0), t_max=20.0,
                         rel_tol=REL_TOL, abs_tol=ABS_TOL, sample_stride=0.05)
    _, outcome2 = integrate(config2)
    ok = ok and outcome2.outcome_class == OUTCOME_EXTINCT
    ok = ok and abs(outcome2.t_est - 4.5) <= 2e-3
    report(2, "exact collapsing solution: x(t) = 1 - 4t/9, T = 2.25 and 4.5",
           ok, f"x_err={x_err:.1e}, T0={outcome.t_est:.6f}, T1={outcome2.t_est:.6f}")


def test_criterion_03_hopf_universal_collapse():
    rng = np.random.default_rng(5)
    lams = [0.0, 0.7, 1.5]
    worst_monitor = 0.0
    ok = True
    for i in range(20):
        g0 = sample_metric(rng)
        params = GeometryParams(Geometry.HOPF, lam=lams[i % 3])
        config = FlowConfig(params=params, g0=g0, t_max=300.0,
                            rel_tol=REL_TOL, abs_tol=ABS_TOL,
                            sample_stride=0.5)
        traj, outcome = integrate(config)
        ok = ok and outcome.outcome_class == OUTCOME_EXTINCT
        ok = ok and traj.monitor_final < 1e-6
        worst_monitor = max(worst_monitor, traj.monitor_final)
    report(3, "20 random-start collapses across lam in {0, 0.7, 1.5}",
           ok, f"worst final positivity margin={worst_monitor:.1e}")


def test_criterion_04_torus_stationary():
    g0 = HermitianMetric(1.3, 0.9, 0.2 - 0.4j)
    config = FlowConfig(params=GeometryParams(Geometry.TORUS), g0=g0, t_max=100.0,
                        rel_tol=REL_TOL, abs_tol=ABS_TOL, sample_stride=1.0)
    traj, outcome = integrate(config)
    drift = max(float(np.max(np.abs(traj.x - g0.x))), float(np.max(np.abs(traj.y - g0.y))),
                float(np.max(np.abs(traj.z_re - g0.z.real))),
                float(np.max(np.abs(traj.z_im - g0.z.imag))))
    ok = outcome.outcome_class == OUTCOME_IMMORTAL and drift <= 1e-12
    report(4, "flat flow is stationary to t = 100", ok, f"drift={drift:.1e}")


def test_criterion_05_hyperelliptic_decay_bound():
    ok = True
    details = []
    for g0, t_max in ((HermitianMetric(1, 1, 0.5), 40.0),
                      (HermitianMetric(2, 3, 1 + 1j), 60.0)):
        # abs_tol far below the terminal u keeps the error control relative,
        # so the integrated z follows the exponential decay to the end
        config = FlowConfig(params=GeometryParams(Geometry.HYPERELLIPTIC),
                            g0=g0, t_max=t_max, rel_tol=REL_TOL, abs_tol=1e-30,
                            sample_stride=0.1)
        traj, outcome = integrate(config)
        try:
            rep = verify_decay_bound(traj)
        except AssertionError as exc:
            ok = False
            details.append(str(exc))
            continue
        ddot_ok = bool(np.min(traj.ddot) >= -1e-12)
        limit_ok = (0 < rep["x_inf"] < g0.x and 0 < rep["y_inf"] < g0.y
                    and rep["z_inf_abs"] <= 1e-6)
        ok = ok and outcome.outcome_class == OUTCOME_IMMORTAL and ddot_ok and limit_ok
        details.append(f"u<=bound ok, exponent={rep['measured_exponent']:.4f} "
                       f"(ref {rep['bound_exponent']:.4f})")
    report(5, "exponential decay of u and monotone determinant", ok, "; ".join(details))


def test_criterion_06_growth_rates():
    tol = 0.02
    checks = []

    def slope_of(geometry, params_kwargs, g0, component, target):
        params = GeometryParams(geometry, **params_kwargs)
        config = FlowConfig(params=params, g0=g0, t_max=500.0,
                            rel_tol=REL_TOL, abs_tol=ABS_TOL, sample_stride=0.5)
        traj, _ = integrate(config)
        slope, _ = linear_growth_rate(traj, component)
        checks.append((geometry.value, params_kwargs, slope, target))
        return abs(slope - target) <= tol * target

    ok = slope_of(Geometry.PROPERLY_ELLIPTIC, {"lam": 1.0},
                  HermitianMetric(1, 1, 0.3 + 0.2j), "x", 2.0)
    for a in (0.5, 1.0, 2.0):
        ok = slope_of(Geometry.INOUE_S0, {"a": a, "b": 2.0},
                      HermitianMetric(1, 1, 0.3 + 0.2j), "y", 8 * a * a) and ok
    ok = slope_of(Geometry.INOUE_SPM_J1, {}, HermitianMetric(1, 1, 0.3 + 0.4j),
                  "x", 3.0) and ok
    ok = slope_of(Geometry.INOUE_SP_J2, {}, HermitianMetric(1, 1, 0.3 + 0.4j),
                  "x", 3.0) and ok
    detail = ", ".join(f"{name}{kw or ''}:{slope:.4f}->{target}"
                       for name, kw, slope, target in checks)
    report(6, "linear growth rates at t = 500 within 2%", ok, detail)


def test_criterion_07_gh_classification(classification_runs):
    tol = 0.02
    ok = True
    details = []
    for geometry, items in classification_runs.items():
        expected = EXPECTED_KIND[geometry]
        desc_entry = entry(geometry)
        for config, traj, outcome in items:
            desc = classify_gh_limit(geometry, traj, outcome)
            this_ok = desc.kind == expected
            if expected == LIMIT_CIRCLE and this_ok:
                ref = desc_entry.expected_circle_length(config.params)
                this_ok = abs(desc.circle_length - ref) <= tol * ref
            if expected == LIMIT_KE_CURVE and this_ok:
                ref = desc_entry.expected_normalized_limit(config.params)
                this_ok = (abs(desc.normalized_limit[0] - ref[0]) <= tol * ref[0]
                           and desc.normalized_limit[1] <= 0.05)
            ok = ok and this_ok
            if not this_ok:
                details.append(f"{geometry.value}: got {desc.kind} "
                               f"{desc.circle_length or desc.normalized_limit}")
        if not details:
            pass
    report(7, "normalized-limit classification matches the expected labels "
              "(5 random starts per entry, t = 1000)", ok, "; ".join(details) or
           "all 45 runs classified as expected")


def test_criterion_08_monotonicity_suites(classification_runs):
    ok = True
    failures = []
    for geometry, items in classification_runs.items():
        for config, traj, outcome in items:
            rep = monotonicity_report(geometry, traj, config.rel_tol)
            if not rep["passed"]:
                ok = False
                bad = [c["condition"] for c in rep["checks"] if not c["passed"]]
                failures.append(f"{geometry.value}: {bad}")
    report(8, "per-geometry sign conditions and explicit bounds (slack 10*rel_tol)",
           ok, "; ".join(failures) or "all checks on 45 trajectories")


def test_criterion_09_structure_constant_hygiene():
    rep = run_verification(samples=1, seed=11)
    worst = 0.0
    ok = True
    for item in rep["geometries"]:
        v = item["structure_constants"]["violations"]
        worst = max(worst, *v.values())
        ok = ok and item["structure_constants"]["passed"]
    report(9, "Jacobi and integrability over 20 parameter draws per entry",
           ok, f"worst violation={worst:.1e}")


def test_criterion_10_udot_consistency(classification_runs):
    ok = True
    worst = 0.0
    for geometry, items in classification_runs.items():
        config, traj, outcome = items[0]   # one z0 != 0 run per geometry
        rep = udot_consistency(geometry, config.params, traj)
        worst = max(worst, rep["max_rel_error"])
        ok = ok and rep["max_rel_error"] <= 10 * config.rel_tol
    report(10, "d|z|^2/dt matches the reduced u-evolution at sampled states",
           ok, f"max_rel_error={worst:.1e}")
