import numpy as np
import pytest

from hcflow.analysis import (DecayBoundViolation, LIMIT_FLAT_KAEHLER,
                             TrajectoryTooShortError, classify_gh_limit,
                             linear_growth_rate, monotonicity_report, udot_consistency,
                             unnormalized_limit, verify_decay_bound)
from hcflow.catalog import (LIMIT_CIRCLE, LIMIT_COLLAPSE, LIMIT_KE_CURVE, LIMIT_POINT,
                            entry, sample_metric, sample_params)
from hcflow.analysis import LIMIT_UNCLASSIFIED
from hcflow.geometry import Geometry, GeometryParams
from hcflow.integrate import (FlowConfig, FlowOutcome, OUTCOME_EXTINCT,
                              OUTCOME_IMMORTAL, Trajectory, integrate)
from hcflow.metric import HermitianMetric
from hcflow.report import analysis_report


def synthetic_trajectory(t, x, y, z_re=None, z_im=None, xdot=None, ydot=None,
                         zre_dot=None, zim_dot=None):
    """Trajectory of the given columns and their analytic rates; a column or
    rate not given is 0."""
    zero = np.zeros_like(t)

    def col(v):  # a scalar rate fills its column
        return zero if v is None else v + zero

    return Trajectory(t=t, x=x, y=y, z_re=col(z_re), z_im=col(z_im),
                      xdot=col(xdot), ydot=col(ydot), zre_dot=col(zre_dot),
                      zim_dot=col(zim_dot), stop_reason=OUTCOME_IMMORTAL, t_est=None,
                      monitor_final=1.0)


def immortal_outcome():
    return FlowOutcome(OUTCOME_IMMORTAL, None, None, "reached t_max")


# ---------------------------------------------------------------------------
# growth rates
# ---------------------------------------------------------------------------

def test_linear_growth_rate_recovers_slope():
    t = np.linspace(0, 500, 1001)
    traj = synthetic_trajectory(t, x=2.0 * t + 3.0, y=np.ones_like(t), xdot=2.0)
    slope, correction = linear_growth_rate(traj, "x")
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert correction <= 1e-12
    # x' = 2 + 3/t: the Richardson step removes the 1/t term, and its size is 3/500
    t = np.linspace(1, 500, 1000)
    traj = synthetic_trajectory(t, x=2.0 * t + 3.0 * np.log(t), y=np.ones_like(t),
                                xdot=2.0 + 3.0 / t)
    slope, correction = linear_growth_rate(traj, "x")
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert correction == pytest.approx(3.0 / 500, rel=1e-9)


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
    rates = {"xdot": 0.5 / np.sqrt(1 + t), "ydot": -1 / (1 + t) ** 2}
    traj = synthetic_trajectory(t, x=np.sqrt(1 + t), y=1 / (1 + t) + 1.0, **rates)
    desc = classify_gh_limit(Geometry.KODAIRA_PRIMARY, traj, immortal_outcome())
    assert desc.kind == LIMIT_POINT
    assert desc.evidence["exponent_x"] == pytest.approx(-0.5, abs=1e-12)
    # a roundoff-level |z| growing like (1+t)^0.5 after rescaling is still zero
    traj = synthetic_trajectory(t, x=np.sqrt(1 + t), y=1 / (1 + t) + 1.0,
                                z_re=1e-16 * (1 + t) ** 1.5,
                                zre_dot=1.5e-16 * (1 + t) ** 0.5, **rates)
    desc = classify_gh_limit(Geometry.KODAIRA_PRIMARY, traj, immortal_outcome())
    assert desc.kind == LIMIT_POINT
    assert desc.evidence["exponent_z_abs"] is None


def test_classifier_circle_on_y():
    t = np.linspace(0, 1000, 2001)
    traj = synthetic_trajectory(t, x=np.ones_like(t), y=8.0 * t + 1.0, ydot=8.0)
    desc = classify_gh_limit(Geometry.INOUE_S0, traj, immortal_outcome())
    assert desc.kind == LIMIT_CIRCLE
    assert desc.circle_length == pytest.approx(2 * np.sqrt(2), rel=2e-3)
    ev = desc.evidence
    assert "theta" not in ev and ev["exponent_z_abs"] is None
    assert ev["rate_x"] == 0.0 and ev["exponent_x"] is None  # a constant x has rate 0
    assert abs(ev["exponent_y"]) < 1e-3


def test_classifier_circle_on_x():
    t = np.linspace(0, 1000, 2001)
    traj = synthetic_trajectory(t, x=3.0 * t + 1.0, y=np.ones_like(t), xdot=3.0)
    desc = classify_gh_limit(Geometry.INOUE_SPM_J1, traj, immortal_outcome())
    assert desc.kind == LIMIT_CIRCLE
    assert desc.circle_length == pytest.approx(np.sqrt(3), rel=2e-3)


def test_classifier_ke_curve():
    t = np.linspace(0, 1000, 2001)
    traj = synthetic_trajectory(t, x=2.0 * t + 1.0, y=np.ones_like(t), xdot=2.0)
    desc = classify_gh_limit(Geometry.PROPERLY_ELLIPTIC, traj, immortal_outcome())
    assert desc.kind == LIMIT_KE_CURVE
    assert desc.normalized_limit[0] == pytest.approx(2.0, rel=2e-3)
    assert desc.normalized_limit[1] == 0.0


def test_classifier_growth_on_nongrowing_geometry_is_unclassified():
    # linear growth on a geometry with no circle/curve interpretation
    t = np.linspace(0, 1000, 2001)
    traj = synthetic_trajectory(t, x=3.0 * t + 1.0, y=np.ones_like(t), xdot=3.0)
    desc = classify_gh_limit(Geometry.KODAIRA_PRIMARY, traj, immortal_outcome())
    assert desc.kind == LIMIT_UNCLASSIFIED
    # a NaN in the tail of a decaying x is never a clean point
    x = np.sqrt(1 + t)
    x[-5] = np.nan
    traj = synthetic_trajectory(t, x=x, y=np.ones_like(t), xdot=0.5 / np.sqrt(1 + t))
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
    # the run stops at 2.25; x and y, extrapolated from the last row, vanish at 2.26
    t = np.linspace(0, 2.25, 100)
    traj = synthetic_trajectory(t, x=1 - t / 2.26, y=1 - t / 2.26,
                                xdot=-1 / 2.26, ydot=-1 / 2.26)
    outcome = FlowOutcome(OUTCOME_EXTINCT, 2.25, None, "collapsed")
    desc = classify_gh_limit(Geometry.HOPF, traj, outcome)
    assert desc.kind == LIMIT_COLLAPSE
    assert desc.collapse_time == pytest.approx(2.26, rel=1e-12)
    assert desc.evidence["collapse_time_error"] == 0.0


@pytest.mark.parametrize("geometry, params_kwargs", [
    (Geometry.INOUE_S0, {"a": 0.7, "b": 0.4}), (Geometry.INOUE_SPM_J1, {}),
    (Geometry.INOUE_SP_J2, {}), (Geometry.PROPERLY_ELLIPTIC, {"lam": 0.5})],
                         ids=["inoue-s0", "inoue-spm-j1", "inoue-sp-j2", "properly-elliptic"])
def test_limit_matches_the_catalog_at_t1000(geometry, params_kwargs):
    # measured relative errors: 5.6e-16, 0, 2.2e-7 and 2.3e-6 (a window mean
    # of x/(1+t) over the last 10% of the run was off by 8e-4 to 2.7e-3)
    params = GeometryParams(geometry, **params_kwargs)
    config = FlowConfig(params=params, g0=HermitianMetric(1.2, 0.9, 0.2 + 0.1j), t_max=1000.0)
    traj, outcome = integrate(config)
    desc = classify_gh_limit(geometry, traj, outcome)
    ref = entry(geometry)
    assert desc.kind == ref.expected_limit
    if desc.kind == LIMIT_CIRCLE:
        assert desc.circle_length == pytest.approx(ref.expected_circle_length(params), rel=1e-5)
    else:
        expected = ref.expected_normalized_limit(params)
        assert desc.normalized_limit[0] == pytest.approx(expected[0], rel=1e-5)
        assert desc.normalized_limit[1] == expected[1]
    report = analysis_report(config, traj, outcome)
    for component in ("x", "y"):  # one estimator: the same bits in both places
        assert (report["growth_rates"][component]["slope"]
                == report["classification"]["evidence"][f"rate_{component}"])


@pytest.mark.parametrize("geometry", [g for g in Geometry
                                      if entry(g).expected_outcome == OUTCOME_IMMORTAL],
                         ids=lambda g: g.value)
def test_classification_is_scale_invariant(geometry):
    # K is homogeneous of degree 0, so c g(t/c) is a flow whenever g(t) is, and
    # its rates are those of g; with t_max, abs_tol and the stride scaled by c
    # the rates agreed to <= 1.2e-7 relative on these 64 scaled runs
    rng = np.random.default_rng(3)
    for _ in range(4):
        params, g0 = sample_params(geometry, rng), sample_metric(rng)

        def classify(c):
            config = FlowConfig(params=params, g0=HermitianMetric(c * g0.x, c * g0.y, c * g0.z),
                                t_max=2000.0 * c, abs_tol=1e-12 * c, sample_stride=2.0 * c)
            return classify_gh_limit(geometry, *integrate(config))

        ref = classify(1.0)
        for c in (0.25, 4.0):
            desc = classify(c)
            assert desc.kind == ref.kind, (params, g0, c)
            for name in ("rate_x", "rate_y", "rate_z_abs"):
                if ref.evidence[name] > 1e-9:
                    assert desc.evidence[name] == pytest.approx(ref.evidence[name], rel=1e-6)


@pytest.mark.parametrize("lam, g0, singular_time", [(0.0, HermitianMetric(1, 1.5, 0), 2.25),
                                                    (1.0, HermitianMetric(1, 3, 0), 4.5)],
                         ids=["T=2.25", "T=4.5"])
def test_collapse_time_on_exact_hopf_solutions(lam, g0, singular_time):
    # x = x0 (1 - t/T): the monitor falls like (1 - t/T)^2 and crosses the
    # default threshold 1e-10 at t = T (1 - 1e-5), where the run stops; the
    # extrapolation t - x/x' from there missed T by 4.9e-15 and 4.7e-14
    config = FlowConfig(params=GeometryParams(Geometry.HOPF, lam=lam), g0=g0, t_max=10.0)
    traj, outcome = integrate(config)
    desc = classify_gh_limit(Geometry.HOPF, traj, outcome)
    assert desc.kind == LIMIT_COLLAPSE
    assert desc.collapse_time == pytest.approx(singular_time, abs=1e-12)
    assert desc.evidence["collapse_time_error"] <= 1e-12
    assert outcome.t_est == pytest.approx(singular_time * (1 - 1e-5), rel=1e-9)


def test_collapse_time_matches_a_tiny_threshold_crossing():
    # the crossing of degeneracy_threshold 1e-28 misses T by ~3e-14; over 200
    # such draws the extrapolation at the default threshold agreed with it to
    # <= 8.5e-14 relative, where the default crossing was off by up to 1.9e-5
    rng = np.random.default_rng(11)
    for _ in range(25):
        x0, y0 = rng.uniform(0.2, 5.0, size=2)
        z0 = np.sqrt(rng.uniform(0.01, 0.9) * x0 * y0) * np.exp(2j * np.pi * rng.uniform())
        params = GeometryParams(Geometry.HOPF, lam=rng.uniform(-3.0, 3.0))

        def run(threshold):
            config = FlowConfig(params=params, g0=HermitianMetric(x0, y0, z0), t_max=100.0,
                                degeneracy_threshold=threshold)
            return integrate(config)

        _, reference = run(1e-28)
        desc = classify_gh_limit(Geometry.HOPF, *run(1e-10))
        assert reference.outcome_class == OUTCOME_EXTINCT
        assert desc.collapse_time == pytest.approx(reference.t_est, rel=1e-12)


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
