import numpy as np
import pytest

from hcflow.analysis import (DecayBoundViolation, LIMIT_FLAT_KAEHLER,
                             TrajectoryTooShortError, classify_gh_limit,
                             linear_growth_rate, monotonicity_report, udot_consistency,
                             unnormalized_limit, verify_decay_bound)
from hcflow.catalog import (LIMIT_CIRCLE, LIMIT_COLLAPSE, LIMIT_KE_CURVE, LIMIT_POINT,
                            entry)
from hcflow.analysis import LIMIT_UNCLASSIFIED
from hcflow.geometry import Geometry, GeometryParams
from hcflow.integrate import (FlowConfig, FlowOutcome, OUTCOME_EXTINCT,
                              OUTCOME_IMMORTAL, Trajectory, integrate)
from hcflow.metric import HermitianMetric
from hcflow.report import analysis_report


def synthetic_trajectory(t, x, y, z_re=None, z_im=None):
    zero = np.zeros_like(t)
    return Trajectory(t=t, x=x, y=y,
                      z_re=zero if z_re is None else z_re,
                      z_im=zero if z_im is None else z_im,
                      xdot=zero, ydot=zero, zre_dot=zero, zim_dot=zero,
                      stop_reason=OUTCOME_IMMORTAL, t_est=None,
                      monitor_final=1.0)


def immortal_outcome():
    return FlowOutcome(OUTCOME_IMMORTAL, None, None, "reached t_max")


# ---------------------------------------------------------------------------
# growth rates
# ---------------------------------------------------------------------------

def test_linear_growth_rate_recovers_slope():
    t = np.linspace(0, 500, 1001)
    traj = synthetic_trajectory(t, x=2.0 * t + 3.0, y=np.ones_like(t))
    slope, residual = linear_growth_rate(traj, "x")
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert residual <= 1e-12


def test_linear_growth_rate_requires_long_run():
    t = np.linspace(0, 50, 100)
    traj = synthetic_trajectory(t, x=t, y=np.ones_like(t))
    with pytest.raises(TrajectoryTooShortError):
        linear_growth_rate(traj, "x")
    with pytest.raises(ValueError):
        linear_growth_rate(synthetic_trajectory(
            np.linspace(0, 200, 100), np.zeros(100), np.zeros(100)), "q")


# ---------------------------------------------------------------------------
# decay bound
# ---------------------------------------------------------------------------

def test_decay_bound_trivial_for_diagonal_start():
    t = np.linspace(0, 40, 200)
    traj = synthetic_trajectory(t, x=np.ones_like(t), y=np.ones_like(t))
    report = verify_decay_bound(traj)
    assert report["passed"] and report["u0"] == 0.0


def test_decay_bound_violation_raises():
    t = np.linspace(0, 40, 200)
    z = np.full_like(t, 0.5)                      # u does not decay at all
    traj = synthetic_trajectory(t, x=np.ones_like(t), y=np.ones_like(t), z_re=z)
    with pytest.raises(DecayBoundViolation):
        verify_decay_bound(traj)


def test_decay_bound_on_real_hyperelliptic_run():
    config = FlowConfig(params=GeometryParams(Geometry.HYPERELLIPTIC),
                        g0=HermitianMetric(1, 1, 0.5), t_max=20.0,
                        sample_stride=0.1, abs_tol=1e-30)
    traj, _ = integrate(config)
    report = verify_decay_bound(traj)
    assert report["passed"]
    assert 0 < report["x_inf"] < 1.0
    assert 0 < report["y_inf"] < 1.0
    assert report["measured_exponent"] == pytest.approx(-2.0, rel=0.05)


def test_decay_bound_at_default_tolerance_to_t1000():
    # u leaves float64's normal range near t = 350 and is emitted as 0; the
    # exponent is fitted where it is still resolved, not over a noise plateau
    config = FlowConfig(params=GeometryParams(Geometry.HYPERELLIPTIC),
                        g0=HermitianMetric(1, 1, 0.5), t_max=1000.0, abs_tol=1e-12)
    traj, _ = integrate(config)
    report = verify_decay_bound(traj)
    assert report["passed"]
    assert report["measured_exponent"] <= report["bound_exponent"]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classifier_point():
    t = np.linspace(0, 1000, 2001)
    traj = synthetic_trajectory(t, x=np.sqrt(1 + t), y=1 / (1 + t) + 1.0)
    desc = classify_gh_limit(Geometry.KODAIRA_PRIMARY, traj, immortal_outcome())
    assert desc.kind == LIMIT_POINT
    # a roundoff-level |z| growing like (1+t)^0.5 after rescaling is still zero
    traj = synthetic_trajectory(t, x=np.sqrt(1 + t), y=1 / (1 + t) + 1.0,
                                z_re=1e-16 * (1 + t) ** 1.5)
    desc = classify_gh_limit(Geometry.KODAIRA_PRIMARY, traj, immortal_outcome())
    assert desc.kind == LIMIT_POINT
    assert desc.evidence["exponent_z_abs"] is None


def test_classifier_circle_on_y():
    t = np.linspace(0, 1000, 2001)
    traj = synthetic_trajectory(t, x=np.ones_like(t), y=8.0 * t + 1.0)
    desc = classify_gh_limit(Geometry.INOUE_S0, traj, immortal_outcome())
    assert desc.kind == LIMIT_CIRCLE
    assert desc.circle_length == pytest.approx(2 * np.sqrt(2), rel=2e-3)
    ev = desc.evidence
    assert "theta" not in ev and ev["exponent_z_abs"] is None
    assert ev["exponent_x"] == pytest.approx(-1.0, abs=1e-3)
    assert abs(ev["exponent_y"]) < 1e-3


def test_classifier_circle_on_x():
    t = np.linspace(0, 1000, 2001)
    traj = synthetic_trajectory(t, x=3.0 * t + 1.0, y=np.ones_like(t))
    desc = classify_gh_limit(Geometry.INOUE_SPM_J1, traj, immortal_outcome())
    assert desc.kind == LIMIT_CIRCLE
    assert desc.circle_length == pytest.approx(np.sqrt(3), rel=2e-3)


def test_classifier_ke_curve():
    t = np.linspace(0, 1000, 2001)
    traj = synthetic_trajectory(t, x=2.0 * t + 1.0, y=np.ones_like(t))
    desc = classify_gh_limit(Geometry.PROPERLY_ELLIPTIC, traj, immortal_outcome())
    assert desc.kind == LIMIT_KE_CURVE
    assert desc.normalized_limit[0] == pytest.approx(2.0, rel=2e-3)
    assert desc.normalized_limit[1] == 0.0


def test_classifier_growth_on_nongrowing_geometry_is_unclassified():
    # linear growth on a geometry with no circle/curve interpretation
    t = np.linspace(0, 1000, 2001)
    traj = synthetic_trajectory(t, x=3.0 * t + 1.0, y=np.ones_like(t))
    desc = classify_gh_limit(Geometry.KODAIRA_PRIMARY, traj, immortal_outcome())
    assert desc.kind == LIMIT_UNCLASSIFIED
    # a NaN in the tail of a decaying x is never a clean point
    x = np.sqrt(1 + t)
    x[-5] = np.nan
    traj = synthetic_trajectory(t, x=x, y=np.ones_like(t))
    params = GeometryParams(Geometry.KODAIRA_PRIMARY)
    assert classify_gh_limit(Geometry.KODAIRA_PRIMARY, traj,
                             immortal_outcome()).kind == LIMIT_UNCLASSIFIED
    config = FlowConfig(params=params, g0=HermitianMetric(1, 1, 0), t_max=1000.0)
    report = analysis_report(config, traj, immortal_outcome())
    assert report["classification"]["kind"] == LIMIT_UNCLASSIFIED
    assert report["clean"] is False


@pytest.mark.parametrize("scale", [30.0, 100.0])
def test_classifier_ignores_initial_scale(scale):
    # a level threshold calls these unclassified: at t = 1000 the decaying
    # components of a large initial metric are still far from zero
    cases = [(Geometry.KODAIRA_PRIMARY, {}), (Geometry.KODAIRA_SECONDARY, {"epsilon": 1}),
             (Geometry.PROPERLY_ELLIPTIC, {"lam": 0.5}),
             (Geometry.INOUE_S0, {"a": 0.3, "b": 1.0}), (Geometry.HYPERELLIPTIC, {})]
    for geometry, params_kwargs in cases:
        params = GeometryParams(geometry, **params_kwargs)
        g0 = HermitianMetric(scale, scale, scale * (0.3 + 0.2j))
        traj, outcome = integrate(FlowConfig(params=params, g0=g0, t_max=1000.0))
        desc = classify_gh_limit(geometry, traj, outcome)
        assert desc.kind == entry(geometry).expected_limit, (geometry, desc.evidence)


def test_classifier_finite_time_collapse():
    t = np.linspace(0, 2.25, 100)
    traj = synthetic_trajectory(t, x=1 - t / 2.26, y=1 - t / 2.26)
    outcome = FlowOutcome(OUTCOME_EXTINCT, 2.25, None, "collapsed")
    desc = classify_gh_limit(Geometry.HOPF, traj, outcome)
    assert desc.kind == LIMIT_COLLAPSE
    assert desc.collapse_time == 2.25


def test_classifier_needs_long_tail():
    t = np.linspace(0, 100, 200)
    traj = synthetic_trajectory(t, x=np.ones_like(t), y=np.ones_like(t))
    with pytest.raises(TrajectoryTooShortError):
        classify_gh_limit(Geometry.TORUS, traj, immortal_outcome())


def test_unnormalized_limit_is_flat_diagonal():
    t = np.linspace(0, 1000, 101)
    z = np.exp(-t)
    traj = synthetic_trajectory(t, x=np.full_like(t, 0.8), y=np.full_like(t, 0.9),
                                z_re=z)
    desc = unnormalized_limit(traj)
    assert desc.kind == LIMIT_FLAT_KAEHLER
    assert desc.flat_limit.z == 0
    assert desc.flat_limit.x == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# invariant reports on real runs
# ---------------------------------------------------------------------------

def test_monotonicity_and_udot_on_short_runs():
    cases = [
        (Geometry.HYPERELLIPTIC, {}, HermitianMetric(1, 1, 0.5)),
        (Geometry.HOPF, {"lam": 0.7}, HermitianMetric(1, 2, 0.3 + 0.1j)),
        (Geometry.INOUE_SPM_J1, {}, HermitianMetric(1, 1, 0.2 + 0.4j)),
    ]
    for geometry, params_kwargs, g0 in cases:
        params = GeometryParams(geometry, **params_kwargs)
        config = FlowConfig(params=params, g0=g0, t_max=5.0, sample_stride=0.05)
        traj, outcome = integrate(config)
        mono = monotonicity_report(geometry, traj, config.rel_tol)
        assert mono["passed"], mono
        consistency = udot_consistency(geometry, params, traj)
        assert consistency["max_rel_error"] <= 10 * config.rel_tol


def test_udot_consistency_zero_rates_and_empty_trajectory():
    # torus: z is constant and both u-rates vanish, so every denominator is 0
    params = GeometryParams(Geometry.TORUS)
    config = FlowConfig(params=params, g0=HermitianMetric(1, 2, 0.3 - 0.4j), t_max=5.0)
    traj, _ = integrate(config)
    assert len(traj) > 1 and np.all(traj.udot == 0)
    assert udot_consistency(Geometry.TORUS, params, traj) == \
        {"max_rel_error": 0.0, "samples": len(traj)}

    empty = Trajectory.from_rows(np.zeros((0, 9)), OUTCOME_IMMORTAL, None, float("nan"))
    params = GeometryParams(Geometry.HOPF, lam=0.5)
    assert udot_consistency(Geometry.HOPF, params, empty) == \
        {"max_rel_error": 0.0, "samples": 0}
