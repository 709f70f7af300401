import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcflow import _g17, core
from hcflow.analysis import classify_gh_limit
from hcflow.catalog import GEOMETRY_IDS, LIMIT_POINT, pack_params, sample_metric, sample_params
from hcflow.cli import _plot_data_csv
from hcflow.geometry import Geometry, GeometryParams
from hcflow.integrate import (FlowConfig, MAX_SAMPLES, OUTCOME_DEGENERATE_INPUT,
                              OUTCOME_EXTINCT, OUTCOME_IMMORTAL, TRAJECTORY_HEADER,
                              columns_csv, integrate)
from hcflow.metric import HermitianMetric


def _config(geometry, g0, t_max, **kwargs):
    params_kwargs = kwargs.pop("params", {})
    return FlowConfig(params=GeometryParams(geometry, **params_kwargs),
                      g0=g0, t_max=t_max, **kwargs)


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def _velocity(params: GeometryParams, g: HermitianMetric) -> tuple[float, float, complex]:
    """Flow velocity (xdot, ydot, zdot) = -K of the metric g, from ``core.closed_k``."""
    k11, k22, k12re, k12im = core.closed_k(
        GEOMETRY_IDS[params.geometry], *pack_params(params), g.x, g.y, g.z.real, g.z.imag)
    return -k11, -k22, complex(-k12re, -k12im)


def test_rhs_hopf_invariant_ray():
    xdot, ydot, zdot = _velocity(GeometryParams(Geometry.HOPF, lam=0.0),
                                 HermitianMetric(1, 1.5, 0))
    assert xdot == pytest.approx(-4 / 9)
    assert ydot == pytest.approx(-2 / 3)
    assert zdot == 0


def test_rhs_kodaira_primary_identity():
    xdot, ydot, zdot = _velocity(GeometryParams(Geometry.KODAIRA_PRIMARY),
                                 HermitianMetric(1, 1, 0))
    assert (xdot, ydot, zdot) == (2.0, -1.0, 0.0)


def test_rhs_inoue_s0_identity():
    xdot, ydot, zdot = _velocity(GeometryParams(Geometry.INOUE_S0, a=1.0, b=1.0),
                                 HermitianMetric(1, 1, 0))
    assert (xdot, ydot, zdot) == (0.0, 8.0, 0.0)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_hopf_exact_solution_and_extinction_time():
    config = _config(Geometry.HOPF, HermitianMetric(1, 1.5, 0), 10.0,
                     params={"lam": 0.0}, sample_stride=0.01)
    traj, outcome = integrate(config)
    assert outcome.outcome_class == OUTCOME_EXTINCT
    assert outcome.t_est == pytest.approx(2.25, abs=1e-3)
    sel = traj.t <= 2.2
    assert np.max(np.abs(traj.x[sel] - (1 - 4 * traj.t[sel] / 9))) <= 1e-6
    assert np.max(np.abs(traj.y[sel] - 1.5 * traj.x[sel])) <= 1e-6
    assert traj.stop_reason == OUTCOME_EXTINCT and traj.t_est == outcome.t_est


def test_hopf_lam1_extinction_time():
    config = _config(Geometry.HOPF, HermitianMetric(1, 3, 0), 20.0,
                     params={"lam": 1.0}, sample_stride=0.1)
    _, outcome = integrate(config)
    assert outcome.t_est == pytest.approx(4.5, abs=2e-3)


def test_torus_flow_is_stationary():
    g0 = HermitianMetric(1.2, 0.8, 0.3 + 0.1j)
    traj, outcome = integrate(_config(Geometry.TORUS, g0, 100.0, sample_stride=1.0))
    assert outcome.outcome_class == OUTCOME_IMMORTAL
    drift = max(np.max(np.abs(traj.x - g0.x)), np.max(np.abs(traj.y - g0.y)),
                np.max(np.abs(traj.z_re - g0.z.real)),
                np.max(np.abs(traj.z_im - g0.z.imag)))
    assert drift <= 1e-12
    assert traj.stop_reason == OUTCOME_IMMORTAL and traj.t_est is None


def test_degenerate_initial_metric():
    traj, outcome = integrate(_config(Geometry.TORUS, HermitianMetric(1, 1, 1.0), 1.0))
    assert outcome.outcome_class == OUTCOME_DEGENERATE_INPUT
    assert len(traj) == 0


def test_initial_metric_below_threshold_is_degenerate_input():
    g0 = HermitianMetric(1.0, 1.0, np.sqrt(1 - 1e-12))
    _, outcome = integrate(_config(Geometry.HOPF, g0, 1.0, params={"lam": 0.5}))
    assert outcome.outcome_class == OUTCOME_DEGENERATE_INPUT


def test_near_degenerate_start_integrates_through_fast_transient():
    # D/(x*y) = 1e-6 makes the initial velocity ~1e12; the flow moves away
    # from degeneracy before eventually collapsing
    g0 = HermitianMetric(1.0, 1.0, np.sqrt(1 - 1e-6))
    traj, outcome = integrate(_config(Geometry.HOPF, g0, 100.0,
                                      params={"lam": 0.5}, sample_stride=0.01))
    assert outcome.outcome_class == OUTCOME_EXTINCT
    assert 0 < outcome.t_est < 1.0
    assert traj.monitor_final == pytest.approx(1e-10, rel=0.1)


def test_diagonal_initial_metrics_stay_diagonal():
    for geometry, params in ((Geometry.HOPF, {"lam": 0.7}),
                             (Geometry.PROPERLY_ELLIPTIC, {"lam": 1.0})):
        config = _config(geometry, HermitianMetric(1, 2, 0), 5.0,
                         params=params, sample_stride=0.05)
        traj, _ = integrate(config)
        zmax = np.max(np.hypot(traj.z_re, traj.z_im))
        assert zmax <= 10 * config.abs_tol


def test_halving_tolerance_convergence():
    g0 = HermitianMetric(1.0, 1.0, 0.4 + 0.3j)
    coarse = 1e-7
    states = []
    for rel_tol in (coarse, coarse / 2):
        config = _config(Geometry.INOUE_SP_J2, g0, 50.0, sample_stride=1.0,
                         rel_tol=rel_tol, abs_tol=1e-13)
        traj, _ = integrate(config)
        states.append(np.column_stack([traj.x, traj.y, traj.z_re, traj.z_im]))
    diff = np.max(np.abs(states[0] - states[1]))
    scale = max(1.0, float(np.max(np.abs(states[0]))))
    assert diff <= coarse * scale


def test_extinct_final_state_has_tiny_monitor():
    config = _config(Geometry.HOPF, HermitianMetric(2, 0.7, 0.5 - 0.3j), 100.0,
                     params={"lam": 1.5}, sample_stride=0.5)
    traj, outcome = integrate(config)
    assert outcome.outcome_class == OUTCOME_EXTINCT
    assert traj.monitor_final < 1e-6
    assert outcome.t_est is not None and outcome.t_est <= 100.0
    assert np.all(np.diff(traj.t) > 0)


def _cells(csv):
    return np.array([[float(c) for c in line.split(",")]
                     for line in csv.strip().split("\n")[1:]])


def test_trajectory_csv_schema():
    config = _config(Geometry.TORUS, HermitianMetric(1, 1, 0.5), 1.0,
                     sample_stride=0.5)
    traj, _ = integrate(config)
    csv = traj.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "t,x,y,z_re,z_im,D,u,xdot,ydot"
    assert len(lines) == 1 + len(traj)
    row = lines[1].split(",")
    assert len(row) == 9
    assert float(row[5]) == pytest.approx(0.75)   # D = 1 - 0.25
    assert float(row[6]) == pytest.approx(0.25)   # u = |z|^2
    assert _plot_data_csv(traj).split("\n", 1)[0] == "t,n_x,n_y,n_z_abs"

    # every cell of both CSVs reads back to exactly the column value it encodes
    hopf, _ = integrate(_config(Geometry.HOPF, HermitianMetric(2, 0.7, 0.5 - 0.3j), 3.0,
                                params={"lam": 1.5}, sample_stride=0.1))
    j2, _ = integrate(_config(Geometry.INOUE_SP_J2, HermitianMetric(1.3, 0.4, 0.1 + 0.2j),
                              3.0, sample_stride=0.1))
    for tr in (traj, hopf, j2):
        assert len(tr) > 1
        expected = np.column_stack([tr.t, tr.x, tr.y, tr.z_re, tr.z_im,
                                    tr.d, tr.u, tr.xdot, tr.ydot])
        assert np.array_equal(_cells(tr.to_csv()), expected)
        w = 1.0 + tr.t
        expected = np.column_stack([tr.t, tr.x / w, tr.y / w,
                                    np.hypot(tr.z_re, tr.z_im) / w])
        assert np.array_equal(_cells(_plot_data_csv(tr)), expected)


def _reference_csv(header, table):
    """The oracle: one ``'%.17g' % v`` per cell."""
    return header + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                   for row in table.tolist())


def _assert_matches_reference(values, n_cols):
    table = np.asarray(values, dtype=np.float64).reshape(-1, n_cols)
    assert columns_csv("h", table.T) == _reference_csv("h", table)


def _tables(cells):
    """Tables of 1-70 rows and 1-9 columns of ``cells``."""
    return st.integers(1, 9).flatmap(lambda n_cols: st.lists(
        st.lists(cells, min_size=n_cols, max_size=n_cols), min_size=1, max_size=70))


@settings(max_examples=200, deadline=None)
@given(_tables(st.integers(0, 2**64 - 1)))
def test_columns_csv_matches_per_cell_format_on_raw_bit_patterns(rows):
    table = np.array(rows, dtype=np.uint64).view(np.float64)
    assert columns_csv("h", table.T) == _reference_csv("h", table)


@settings(max_examples=200, deadline=None)
@given(_tables(st.floats(width=64)))
def test_columns_csv_matches_per_cell_format_on_floats(rows):
    table = np.array(rows, dtype=np.float64)
    assert columns_csv("h", table.T) == _reference_csv("h", table)


def _csv_edge_values():
    big = np.finfo(np.float64).max
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, big, -big]
    for k in range(-320, 309):
        p = float(f"1e{k}")
        edges += [p, -p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    # the fixed/scientific switch at X = -5/-4 and 16/17, the decade roll-over
    # of 17 nines, and 2- and 3-digit exponents
    edges += [1.2345e-5, 1.2345e-4, 9.99999999999999999e-5, 1e16 - 2, 1e16 + 2, 1e17 - 16,
              9.9999999999999999e16, 123456789012345678.0, 1e-99, 1e-100, 1e99, 1e100]
    # exact 17-digit ties, which round half to even
    edges += [1000000000000000.25, 1000000000000000.75, -1000000000000000.25, 0.5, 2.5]
    return edges


def test_columns_csv_matches_per_cell_format_on_edge_values():
    edges = _csv_edge_values()
    _assert_matches_reference(edges, 1)
    _assert_matches_reference(edges[:len(edges) // 4 * 4], 4)
    assert columns_csv("v", [np.array([1000000000000000.25, 1000000000000000.75])]) == \
        "v\n1000000000000000.2\n1000000000000000.8\n"


@pytest.mark.parametrize("shift", [-1, 1])
def test_columns_csv_is_exact_when_the_decade_guess_is_off(monkeypatch, shift):
    # every cell's product then lies a decade out, which the formatter must
    # detect (or, for a product rounding to 10**17, carry) rather than print
    guess = _g17._decade
    monkeypatch.setattr(_g17, "_decade", lambda a: guess(a) + shift)
    rng = np.random.default_rng(3)
    values = rng.uniform(-1, 1, 500) * 10.0 ** rng.integers(-30, 30, 500)
    _assert_matches_reference([*_csv_edge_values(), *values], 1)


def test_columns_csv_matches_per_cell_format_on_ties_and_long_tables():
    rng = np.random.default_rng(7)
    ties = rng.integers(10**15, 10**16, 2000) + rng.choice([0.25, 0.5, 0.75], 2000)
    _assert_matches_reference(ties, 4)
    # more rows than one array pass takes, with every magnitude of a run
    values = rng.uniform(-1, 1, 700 * 9) * 10.0 ** rng.integers(-60, 60, 700 * 9)
    _assert_matches_reference(values, 9)


def test_columns_csv_matches_per_cell_format_on_log_polar_tails():
    # a decaying run's u = exp(L) and z = exp(L / 2) (cos, sin) columns: O(1)
    # through 3-digit exponents and subnormals (per-cell fallback) down to 0
    L = np.linspace(0.0, -1600.0, 1001).tolist()
    u = np.array([math.exp(v) for v in L])
    r = np.array([math.exp(0.5 * v) for v in L])
    assert u[-1] == 0.0 and (u[(u > 0) & (u < 2.2250738585072014e-308)]).size > 0
    table = np.column_stack([u, r * math.cos(2.0), r * math.sin(2.0), -u])
    assert columns_csv("h", table.T) == _reference_csv("h", table)


def test_columns_csv_small_tables():
    assert columns_csv("a,b", [np.zeros(0), np.zeros(0)]) == "a,b\n"
    one_row = columns_csv("a,b", [np.array([0.1]), np.array([-0.0])])
    assert one_row == "a,b\n0.10000000000000001,-0\n"
    one_column = columns_csv("a", [np.array([1.0, 1e-5, 1e17])])
    assert one_column == "a\n1\n1.0000000000000001e-05\n1e+17\n"


def test_degenerate_input_writes_header_only_csvs():
    traj, _ = integrate(_config(Geometry.TORUS, HermitianMetric(1, 1, 1.0), 1.0))
    assert traj.to_csv() == TRAJECTORY_HEADER + "\n"
    assert _plot_data_csv(traj) == "t,n_x,n_y,n_z_abs\n"


def test_config_validation():
    params = GeometryParams(Geometry.TORUS)
    g0 = HermitianMetric(1, 1, 0)
    with pytest.raises(ValueError):
        FlowConfig(params=params, g0=g0, t_max=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(params=params, g0=g0, t_max=1.0, rel_tol=2.0)
    with pytest.raises(ValueError):
        FlowConfig(params=params, g0=g0, t_max=1.0, sample_stride=0.0)
    with pytest.raises(ValueError):
        FlowConfig(params=params, g0=g0, t_max=float("nan"))
    with pytest.raises(ValueError):
        FlowConfig(params=params, g0=g0, t_max=float("inf"))
    with pytest.raises(ValueError):
        FlowConfig(params=params, g0=g0, t_max=1.0, sample_stride=float("inf"))
    with pytest.raises(ValueError, match="cap"):
        FlowConfig(params=params, g0=g0, t_max=MAX_SAMPLES + 1.0, sample_stride=1.0)
    FlowConfig(params=params, g0=g0, t_max=float(MAX_SAMPLES), sample_stride=1.0)
    with pytest.raises(ValueError, match=r"^g0\.z_im: must be finite"):
        FlowConfig(params=params, g0=HermitianMetric(1, 1, complex(0, float("inf"))), t_max=1.0)
    with pytest.raises(ValueError, match=r"^params\.b: must be finite"):
        FlowConfig(params=GeometryParams(Geometry.INOUE_S0, a=1.0, b=float("nan")), g0=g0,
                   t_max=1.0)


@pytest.mark.parametrize("y0", [0.5, 2.0, 30.0])
def test_kodaira_primary_self_similar_solution(y0):
    # with z0 = 0 the flow is x' = 2y/x, y' = -y^2/x^2, and x0 = sqrt(5 y0)
    # starts it on the exact solution x0 (1+t)^(2/5), y0 (1+t)^(-1/5)
    x0 = math.sqrt(5.0 * y0)
    config = _config(Geometry.KODAIRA_PRIMARY, HermitianMetric(x0, y0, 0), 1000.0)
    traj, outcome = integrate(config)
    s = 1.0 + traj.t
    error = max(np.max(np.abs(traj.x / (x0 * s ** 0.4) - 1.0)),
                np.max(np.abs(traj.y / (y0 * s ** -0.2) - 1.0)))
    assert error <= 1e-8  # 3.2e-9 measured, in 82 steps
    limit = classify_gh_limit(Geometry.KODAIRA_PRIMARY, traj, outcome)
    assert limit.kind == LIMIT_POINT


@pytest.mark.parametrize("geometry,params", [
    (Geometry.KODAIRA_PRIMARY, {}), (Geometry.KODAIRA_SECONDARY, {"epsilon": -1})],
    ids=["kodaira-primary", "kodaira-secondary"])
def test_kodaira_z0_zero_runs_follow_the_exact_solution(geometry, params, lane):
    # with z0 = 0 both entries flow by x' = 2y/x, y' = -y^2/x^2: C = x y^2 is constant,
    # and x^(5/2) = x0^(5/2) + 5 sqrt(C) t
    x0, y0 = 1.3, 0.7
    traj, _ = integrate(_config(geometry, HermitianMetric(x0, y0, 0), 1000.0, params=params))
    c0 = x0 * y0 * y0
    assert traj.t[-1] == 1000.0 and not traj.u.any()
    assert np.max(np.abs(traj.x * traj.y ** 2 / c0 - 1.0)) <= 1e-7  # 4.9e-9 measured
    x = (x0 ** 2.5 + 5.0 * math.sqrt(c0) * traj.t) ** 0.4
    assert np.max(np.abs(traj.x / x - 1.0)) <= 1e-7  # 1.4e-9 measured


def test_inoue_s0_z0_zero_run_is_linear_in_t(lane):
    # with z0 = 0 the flow is x' = 0, y' = 8 a^2
    a, x0, y0 = 0.8, 1.3, 0.7
    traj, _ = integrate(_config(Geometry.INOUE_S0, HermitianMetric(x0, y0, 0), 1000.0,
                                params={"a": a, "b": 0.5}))
    assert traj.t[-1] == 1000.0 and not traj.u.any()
    assert (traj.x == x0).all()
    assert np.max(np.abs(traj.y / (y0 + 8 * a * a * traj.t) - 1.0)) <= 1e-7  # 1.2e-15 measured


# ---------------------------------------------------------------------------
# symmetries of the flow as metamorphic oracles
# ---------------------------------------------------------------------------

def _draws(seed):
    """Two (geometry id, p1, p2, state0, t_max) draws per entry; Hopf collapses by t = 50."""
    for geometry in Geometry:
        rng = np.random.default_rng(seed)
        for _ in range(2):
            p1, p2 = pack_params(sample_params(geometry, rng))
            g = sample_metric(rng)
            yield pytest.param(GEOMETRY_IDS[geometry], p1, p2, (g.x, g.y, g.z.real, g.z.imag),
                               50.0 if geometry is Geometry.HOPF else 200.0, id=geometry.value)


def _run(geom, p1, p2, state0, t_max, c=1.0):
    """The closed-form run from c state0, with t_max, abs_tol and the stride scaled by c."""
    return core.run_closed_flow(geom, p1, p2, tuple(c * v for v in state0), c * t_max,
                                1e-9, 1e-12 * c, c * t_max / 1000, 1e-10)


def _resolved(rows):
    """Rows whose |z| is at least 1e-6 sqrt(x y), so that the absolute L_MIN flush
    (and the error control of a vanishing z) leaves their z meaningful."""
    return np.hypot(rows[:, 3], rows[:, 4]) >= 1e-6 * np.sqrt(rows[:, 1] * rows[:, 2])


def _relative(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b), initial=0.0))


@pytest.mark.parametrize("geom, p1, p2, state0, t_max", list(_draws(100)))
def test_flow_scales_with_its_initial_metric(geom, p1, p2, state0, t_max):
    # K is homogeneous of degree 0, so c g(t / c) solves the flow whenever g(t)
    # does.  The loop's absolute constants (abs_tol aside) make the runs take
    # other steps, up to 18 more or fewer here, so they agree to the tolerance,
    # not in bits.  Measured on these draws: x and y to 9.5e-8 relative on hopf,
    # whose x and y collapse, and <= 5.8e-9 elsewhere; resolved z to <= 1.3e-7;
    # Hopf t_est to 2.9e-10.  (Over 20 draws per entry hopf's x and y reached 1.9e-5.)
    ref = _run(geom, p1, p2, state0, t_max)
    for c in (2.0 ** 3, 2.0 ** -2):
        run = _run(geom, p1, p2, state0, t_max, c)
        assert run[0] == ref[0] and run[2].shape == ref[2].shape
        rows, expected, resolved = run[2], c * ref[2], _resolved(ref[2])
        assert _relative(rows[:, 1:3], expected[:, 1:3]) <= (3e-7 if geom == 2 else 2e-8)
        assert _relative(rows[resolved, 3] + 1j * rows[resolved, 4],
                         expected[resolved, 3] + 1j * expected[resolved, 4]) <= 3e-7
        if ref[1] is None:
            assert run[1] is None and (rows[:, 0] == expected[:, 0]).all()
        else:
            assert abs(run[1] - c * ref[1]) <= 1e-9 * c * ref[1]


@pytest.mark.parametrize("geom, p1, p2, state0, t_max",
                         [p for p in _draws(200) if p.values[0] < 7])
def test_flow_rotates_with_z0_on_the_w_z_entries(geom, p1, p2, state0, t_max):
    # where K12 = w z with w real, rotating z0 by e^(i alpha) rotates z(t) and keeps
    # x(t) and y(t).  Not bit for bit: _initial_step's scale reads theta.  Measured
    # on these draws: x and y to <= 2.2e-13 relative (hopf, near its collapse),
    # resolved z to <= 2.5e-12 (inoue-s0), Hopf t_est to 1.5e-15.  (Over 20 draws
    # per entry x and y reached 1.2e-10.)  Inoue S+- J1 and J2 break the symmetry
    # (their K depends on arg z), so they are left out
    ref = _run(geom, p1, p2, state0, t_max)
    for alpha in (0.9, -2.5):
        turn = complex(math.cos(alpha), math.sin(alpha))
        z0 = complex(*state0[2:]) * turn
        run = _run(geom, p1, p2, (*state0[:2], z0.real, z0.imag), t_max)
        assert run[0] == ref[0] and run[2].shape == ref[2].shape
        assert _relative(run[2][:, 1:3], ref[2][:, 1:3]) <= 5e-13
        rows, expected = run[2][_resolved(ref[2])], ref[2][_resolved(ref[2])]
        assert _relative(rows[:, 3] + 1j * rows[:, 4],
                         (expected[:, 3] + 1j * expected[:, 4]) * turn) <= 5e-12
        assert run[1] == ref[1] or abs(run[1] - ref[1]) <= 1e-14 * ref[1]
