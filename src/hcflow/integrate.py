"""Flow integration: evolve a metric by minus its flow tensor until t_max,
collapse, or failure.

A closed-form run integrates the 4-real state (x, y, L, theta), L = log |z|^2
and theta = arg z, so that an exponentially decaying z is a linearly
decaying L rather than a stiff tail (z0 = 0 starts at L = -inf, where z
stays 0); its rows hold the Cartesian (x, y, Re z, Im z), with z = 0 once
|z|^2 is below float64's normal range.  Every general-contraction run
integrates (x, y, Re z, Im z).  Extinction is detected by a positivity
monitor, the minimum of x, y and the determinant normalized by the
corresponding powers of the initial scale; when it crosses the configured
floor, the crossing time is bracketed inside the last accepted step by
bisection on the dense output.  Note the ratio D/(x*y) itself is useless as a
stopping quantity: on collapsing solutions x and y shrink jointly, so the
ratio can stay near 1 all the way to extinction while the metric dies.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .catalog import GEOMETRY_IDS, entry, pack_params
from .curvature import curvature_bundle
from .geometry import PARAMETERS, GeometryParams
from .metric import HermitianMetric

log = logging.getLogger("hcflow.integrate")

ENGINE_CLOSED_FORM = "closed-form"
ENGINE_GENERAL = "general-contraction"

OUTCOME_IMMORTAL = "immortal"
OUTCOME_EXTINCT = "extinct"
OUTCOME_DEGENERATE_INPUT = "degenerate-input"
OUTCOME_FAILURE = "integrator-failure"

TRAJECTORY_HEADER = "t,x,y,z_re,z_im,D,u,xdot,ydot"

#: Most stride samples one run may ask for (t_max / sample_stride); the
#: compiled core writes its rows into a buffer sized from this ratio.
MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class FlowConfig:
    """Everything one flow run depends on."""

    params: GeometryParams
    g0: HermitianMetric
    t_max: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    engine: str = ENGINE_CLOSED_FORM
    sample_stride: float | None = None  # defaults to t_max / 1000
    degeneracy_threshold: float = 1e-10

    def __post_init__(self) -> None:
        if not 0 <= self.t_max < math.inf:
            raise ValueError("t_max must be finite and >= 0")
        if not (0 < self.rel_tol < 1 and 0 < self.abs_tol < 1):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.engine not in (ENGINE_CLOSED_FORM, ENGINE_GENERAL):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.sample_stride is not None and not 0 < self.sample_stride < math.inf:
            raise ValueError("sample_stride must be finite and > 0")
        if not 0 < self.degeneracy_threshold < 1:
            raise ValueError("degeneracy_threshold must lie in (0, 1)")
        if self.stride == 0.0:
            raise ValueError(f"the default sample_stride t_max / 1000 underflows to 0 "
                             f"for t_max = {self.t_max:g}")
        if self.t_max / self.stride > MAX_SAMPLES:
            raise ValueError(f"t_max / sample_stride = {self.t_max / self.stride:g} exceeds "
                             f"the cap of {MAX_SAMPLES} samples per run")
        g0 = self.g0
        values = {PARAMETERS[k].user_name: v for k, v in self.params.as_dict().items()}
        values.update(x0=g0.x, y0=g0.y, z0_re=g0.z.real, z0_im=g0.z.imag)
        for name, value in values.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def stride(self) -> float:
        if self.sample_stride is not None:
            return self.sample_stride
        return self.t_max / 1000 if self.t_max > 0 else 1.0


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution curve with state derivatives at the samples."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z_re: np.ndarray
    z_im: np.ndarray
    xdot: np.ndarray
    ydot: np.ndarray
    zre_dot: np.ndarray
    zim_dot: np.ndarray
    stop_reason: str = ""
    t_est: float | None = None
    monitor_final: float = float("nan")

    @classmethod
    def from_rows(cls, rows: np.ndarray, stop_reason: str, t_est: float | None,
                  monitor_final: float) -> "Trajectory":
        if rows.size == 0:
            rows = np.zeros((0, 9))
        return cls(t=rows[:, 0], x=rows[:, 1], y=rows[:, 2], z_re=rows[:, 3],
                   z_im=rows[:, 4], xdot=rows[:, 5], ydot=rows[:, 6],
                   zre_dot=rows[:, 7], zim_dot=rows[:, 8],
                   stop_reason=stop_reason, t_est=t_est, monitor_final=monitor_final)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def u(self) -> np.ndarray:
        return self.z_re**2 + self.z_im**2

    @property
    def d(self) -> np.ndarray:
        return self.x * self.y - self.u

    @property
    def udot(self) -> np.ndarray:
        """d(|z|^2)/dt as induced by the integrated z evolution."""
        return 2.0 * (self.z_re * self.zre_dot + self.z_im * self.zim_dot)

    @property
    def ddot(self) -> np.ndarray:
        return self.xdot * self.y + self.x * self.ydot - self.udot

    @property
    def normalized(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Components x/(1+t), y/(1+t) and |z|/(1+t) of the rescaled metric."""
        w = 1.0 + self.t
        return self.x / w, self.y / w, np.hypot(self.z_re, self.z_im) / w

    def final_metric(self) -> HermitianMetric:
        return HermitianMetric(float(self.x[-1]), float(self.y[-1]),
                               complex(self.z_re[-1], self.z_im[-1]))

    def to_csv(self) -> str:
        return columns_csv(TRAJECTORY_HEADER, (
            self.t, self.x, self.y, self.z_re, self.z_im, self.d, self.u,
            self.xdot, self.ydot))


def columns_csv(header: str, columns) -> str:
    """CSV text of equal-length columns, every cell exactly ``'%.17g' % v``
    (reads back exactly).  ``_g17.csv_text`` produces the text with a few
    array passes per 256 rows; only cells it cannot settle (non-finite,
    extreme or near-tie values) go through per-cell ``%.17g``."""
    from ._g17 import csv_text  # imported on first use, outside hcflow's import time

    return csv_text(header, np.column_stack(columns))


@dataclass(frozen=True)
class FlowOutcome:
    """Terminal classification of one flow run."""

    outcome_class: str
    t_est: float | None
    final_state: HermitianMetric | None
    diagnostics: str
    stats: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        final = None
        if self.final_state is not None:
            g = self.final_state
            final = {"x": g.x, "y": g.y, "z_re": g.z.real, "z_im": g.z.imag,
                     "D": g.det, "u": g.u}
        return {
            "class": self.outcome_class,
            "t_est": self.t_est,
            "final_state": final,
            "diagnostics": self.diagnostics,
            "stats": self.stats,
        }


def _general_rhs(params: GeometryParams):
    mu = entry(params.geometry).structure_constants(params)
    nan4 = (float("nan"),) * 4

    def fn(x, y, zre, zim):
        g = HermitianMetric(x, y, complex(zre, zim))
        if not (g.x > 0 and g.y > 0 and g.det > 0):
            return nan4
        try:
            # a huge metric's contractions overflow to inf or NaN, which fails the step
            with np.errstate(all="ignore"):
                k = curvature_bundle(mu, g, margin=0.0).K
        except Exception:
            return nan4
        return -k[0, 0].real, -k[1, 1].real, -k[0, 1].real, -k[0, 1].imag

    return fn


def _no_samples(klass: str, diagnostics: str) -> tuple[Trajectory, FlowOutcome]:
    """Empty trajectory and outcome of a run that produced no samples."""
    return (Trajectory.from_rows(np.zeros((0, 9)), klass, None, float("nan")),
            FlowOutcome(klass, None, None, diagnostics))


def integrate(config: FlowConfig) -> tuple[Trajectory, FlowOutcome]:
    """Run the flow described by config; never raises for dynamical failures."""
    g0 = config.g0
    if not (g0.x > 0 and g0.y > 0
            and g0.det > config.degeneracy_threshold * g0.x * g0.y):
        return _no_samples(OUTCOME_DEGENERATE_INPUT,
                           f"initial metric not positive above the degeneracy "
                           f"threshold: x={g0.x} y={g0.y} D={g0.det}")

    state0 = (g0.x, g0.y, g0.z.real, g0.z.imag)
    try:
        if config.engine == ENGINE_CLOSED_FORM:
            p1, p2 = pack_params(config.params)
            status, t_est, rows, n_acc, n_rej, m_final = core.run_closed_flow(
                GEOMETRY_IDS[config.params.geometry], p1, p2, state0, config.t_max,
                config.rel_tol, config.abs_tol, config.stride,
                config.degeneracy_threshold)
        else:
            status, t_est, rows, n_acc, n_rej, m_final = core.run_flow(
                _general_rhs(config.params), state0, config.t_max,
                config.rel_tol, config.abs_tol, config.stride,
                config.degeneracy_threshold)
    except (OverflowError, ZeroDivisionError) as exc:
        # a float ** overflows on huge metrics (e.g. x**4 in the closed forms),
        # or a closed form divides by D**2 = 0 (a collapse bisected to D = 0 under
        # a tiny threshold); Python raises there, and the compiled loop raises alike
        return _no_samples(OUTCOME_FAILURE, f"{type(exc).__name__}: {exc}")

    if status == core.STATUS_REACHED_TMAX:
        klass, reason = OUTCOME_IMMORTAL, "reached t_max"
    elif status == core.STATUS_EXTINCT:
        klass, reason = OUTCOME_EXTINCT, "positivity monitor crossed threshold"
    else:
        klass, reason = OUTCOME_FAILURE, "error control failed away from a detected collapse"

    log.info("%s flow: %s after %d accepted steps (monitor %.2e)",
             config.params.geometry.value, klass, n_acc, m_final)
    traj = Trajectory.from_rows(rows, klass, t_est, m_final)
    stats = {"accepted_steps": int(n_acc), "rejected_steps": int(n_rej),
             "monitor_final": float(m_final), "engine": config.engine,
             "compiled_core": bool(core.COMPILED and config.engine == ENGINE_CLOSED_FORM)}
    final = traj.final_metric() if len(traj) else None
    outcome = FlowOutcome(klass, t_est, final, reason, stats)
    return traj, outcome
