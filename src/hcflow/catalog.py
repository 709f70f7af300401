"""Catalog of the nine model-geometry entries.

Each entry carries the structure constants of its complexified Lie algebra,
the closed-form flow tensor (the production fast path), and the reduced
evolution law of u = |z|^2.  Its ``_register`` call is the one statement of
the geometry's results: outcome, limit, the signs of (xdot, ydot, udot,
Ddot) along the flow, explicit bounds, circle length, normalized limit, and
whether the un-rescaled flow converges.  ``hcflow.analysis``,
``hcflow.report`` and ``hcflow list`` read these facts and do not branch on
the geometry.

The general contraction engine in ``hcflow.curvature`` is ground truth; the
closed forms here are certified against it by the verification suite.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core
from .algebra import StructureConstants, from_brackets
from .geometry import (PARAMETERS, Geometry, GeometryParams, InadmissibleParamsError,
                       param_names)
from .metric import HermitianMetric, metric_rows, require_positive_rows

GEOMETRY_IDS: dict[Geometry, int] = {g: i for i, g in enumerate(Geometry)}

OUTCOME_EXTINCT = "extinct"
OUTCOME_IMMORTAL = "immortal"

LIMIT_POINT = "point"
LIMIT_CIRCLE = "circle"
LIMIT_KE_CURVE = "kaehler-einstein-curve"
LIMIT_COLLAPSE = "finite-time-collapse"


def pack_params(params: GeometryParams) -> tuple[float, float]:
    """Pack the geometry parameters into the (p1, p2) floats the kernels take:
    the used ones in declared order, then zeros."""
    p1, p2, *_ = (*map(float, params.as_dict().values()), 0.0, 0.0)
    return p1, p2


# ---------------------------------------------------------------------------
# structure constants: each builder takes the geometry's parameters by name,
# as scalars or as arrays of draws (see ``from_brackets``)
# ---------------------------------------------------------------------------

def _mu_torus() -> StructureConstants:
    return from_brackets()


def _mu_hyperelliptic() -> StructureConstants:
    return from_brackets(b12=[1, 0, 0, 0], b12b=[-1, 0, 0, 0])


def _mu_hopf(lam) -> StructureConstants:
    return from_brackets(b12=[0, 1, 0, 0], b12b=[0, 0, 0, -1],
                         b22=[-1 + 1j * lam, 0, 1 + 1j * lam, 0])


def _mu_properly_elliptic(lam) -> StructureConstants:
    # the bracket of Z1 with conj(Z2) must be i*Z1: together with
    # [Z1, Z2] = i*Z1 this is the unique choice closing the Jacobi identity,
    # and it reproduces sl(2, R) + R as the underlying real algebra
    return from_brackets(b12=[1j, 0, 0, 0], b12b=[1j, 0, 0, 0],
                         b11=[0, -lam + 1j, 0, lam + 1j])


def _mu_kodaira_primary() -> StructureConstants:
    return from_brackets(b11=[0, 1j, 0, 1j])


def _mu_kodaira_secondary(epsilon) -> StructureConstants:
    e = epsilon
    return from_brackets(b12=[e, 0, 0, 0], b12b=[-e, 0, 0, 0],
                         b11=[0, -1j * e, 0, -1j * e])


def _mu_inoue_s0(a, b) -> StructureConstants:
    w = b + 1j * a
    return from_brackets(b12=[-w, 0, 0, 0], b12b=[w, 0, 0, 0],
                         b22=[0, -2j * a, 0, -2j * a])


def _mu_inoue_j1() -> StructureConstants:
    return from_brackets(b12=[0, -1, 0, 0], b12b=[0, -1, 0, 0],
                         b11=[-1, 0, 1, 0])


def _mu_inoue_j2() -> StructureConstants:
    return from_brackets(b12=[0, -1, 0, 0], b12b=[0, -1, 0, 0],
                         b11=[-1, 1, 1, -1])


# ---------------------------------------------------------------------------
# reduced evolution of u = |z|^2
# ---------------------------------------------------------------------------

def _udot(geometry: Geometry, params: GeometryParams, x: np.ndarray, y: np.ndarray,
          z_re: np.ndarray, z_im: np.ndarray) -> np.ndarray:
    if geometry is Geometry.TORUS:
        return np.zeros_like(x)
    # np.float_power is libm pow on every element; numpy's ** picks a SIMD
    # kernel by CPU that can round one ulp apart, which analysis.json would show
    u = z_re * z_re + z_im * z_im
    d2 = np.float_power(x * y - u, 2)
    if geometry is Geometry.HYPERELLIPTIC:
        return -2 * x * x * y * u / d2
    if geometry is Geometry.HOPF:
        c = params.c
        return -2 * x * u * (c * x * x + 2 * x * y + y * y) / d2
    if geometry is Geometry.PROPERLY_ELLIPTIC:
        c = params.c
        return -2 * y * u * (x * x - 2 * x * y + c * y * y) / d2
    if geometry is Geometry.KODAIRA_PRIMARY:
        return -2 * np.float_power(y, 3) * u / d2
    if geometry is Geometry.KODAIRA_SECONDARY:
        return -2 * y * u * (x * x + y * y) / d2
    if geometry is Geometry.INOUE_S0:
        a2, b2 = np.float_power((params.a, params.b), 2)  # Python's ** raises on overflow
        return -2 * (9 * a2 + b2) * x * x * y * u / d2
    im2 = np.float_power(z_im, 2)
    if geometry is Geometry.INOUE_SPM_J1:
        return -8 * x * y * y * im2 / d2
    if geometry is Geometry.INOUE_SP_J2:
        return -2 * y * y * (4 * x * im2 + y * u) / d2
    raise ValueError(geometry)


# ---------------------------------------------------------------------------
# explicit bounds along a trajectory: (condition, excess) pairs, the condition
# holding where excess <= 0; x0, y0 and D0 are float64 scalars, and
# np.float_power stands for Python's float **, so a huge metric's bounds
# overflow to inf rather than raise
# ---------------------------------------------------------------------------

def _bounds_kodaira_primary(traj, x0, y0, d0):
    bound = np.sqrt(2.0 * traj.t * np.float_power(y0, 3) + np.float_power(d0, 2))
    slope = 2.0 * np.float_power(y0, 2) / d0
    return [("D(t) <= sqrt(2 t y0^3 + D0^2)", traj.d - bound),
            ("x(t) <= (2 y0^2/D0) t + x0", traj.x - (slope * traj.t + x0))]


def _bounds_inoue_j1(traj, x0, y0, d0):
    return [("x(t) <= 3 t + x0", traj.x - (3.0 * traj.t + x0)),
            ("xdot <= 3", traj.xdot - 3.0)]


def _bounds_inoue_j2(traj, x0, y0, d0):
    cap = 3.0 + 2.0 * np.float_power(y0, 2) / d0
    return [("xdot <= 3 + 2 y0^2/D0", traj.xdot - cap)]


_SQRT3 = ("sqrt(3)", lambda p: math.sqrt(3))


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometryDescriptor:
    """One catalog entry: group data, closed forms, and expected flow behavior."""

    geometry: Geometry
    display_name: str
    group: str
    expected_outcome: str
    expected_limit: str
    _mu: Callable[..., StructureConstants]  # the parameters by name, scalars or arrays
    #: the sign of xdot, ydot, udot and Ddot along the flow, each "<= 0",
    #: ">= 0", "== 0" or None
    signs: tuple[str | None, str | None, str | None, str | None]
    #: (trajectory, x0, y0, D0) -> the (condition, excess) pairs of the explicit bounds
    _bounds: Callable | None = None
    #: the limit circle's length, as ``hcflow list`` prints it and as a function
    circle_length: tuple[str, Callable[[GeometryParams], float]] | None = None
    #: diagonal of the normalized limit metric
    normalized_limit: tuple[float, float] | None = None
    #: the un-rescaled flow converges too, with u under the decay bound
    converges_unrescaled: bool = False

    def structure_constants(self, params: GeometryParams | Sequence[GeometryParams]
                            ) -> StructureConstants:
        """Structure constants of one parameter set, shape (4, 4, 4).

        Given a sequence of n parameter sets, the builder runs once on each
        parameter's array of values, and mu has shape (n, 4, 4, 4); each
        slice has the bits of the one-set call.
        """
        if isinstance(params, GeometryParams):
            self._check(params)
            return self._mu(**params.as_dict())
        for p in params:
            self._check(p)
        names = param_names(self.geometry)
        mu = self._mu(**{name: np.array([getattr(p, name) for p in params]) for name in names})
        # an entry without parameters builds one algebra for all n
        return StructureConstants(np.broadcast_to(mu.mu, (len(params), 4, 4, 4)))

    def closed_form_K(self, params: GeometryParams,
                      g: HermitianMetric | Sequence[HermitianMetric] | np.ndarray) -> np.ndarray:
        """Flow tensor from the per-geometry closed-form table, as 2x2 Hermitian.

        Given n metrics, as a sequence or as rows (x, y, Re z, Im z) of shape
        (n, 4), all are checked at once (the first degenerate one raises), the
        kernel runs once on the columns, and the result has shape (n, 2, 2);
        each slice has the bits of the one-metric call.  A value that
        overflows is inf or NaN, never an exception.
        """
        self._check(params)
        rows = metric_rows(g)
        require_positive_rows(rows)
        p1, p2 = pack_params(params)
        k11, k22, k12re, k12im = core.closed_k_columns(
            GEOMETRY_IDS[self.geometry], p1, p2, *rows.T)
        # each part is set as complex(re, im) sets it; complex arithmetic can flip a zero's sign
        K = np.zeros((len(rows), 2, 2), dtype=complex)
        K.real[:, 0, 0], K.real[:, 1, 1] = k11, k22
        K.real[:, 0, 1] = K.real[:, 1, 0] = k12re
        K.imag[:, 0, 1] = k12im
        K.imag[:, 1, 0] = -k12im
        return K[0] if isinstance(g, HermitianMetric) else K

    def udot(self, params: GeometryParams, x: np.ndarray, y: np.ndarray,
             z_re: np.ndarray, z_im: np.ndarray) -> np.ndarray:
        """Reduced evolution rate of u = |z|^2 along the flow, elementwise over
        the metrics with coefficients x, y and z = z_re + i z_im."""
        self._check(params)
        # a non-finite trajectory gives non-finite rates, which the run's outcome already classifies
        with np.errstate(all="ignore"):
            return _udot(self.geometry, params, x, y, z_re, z_im)

    def expected_circle_length(self, params: GeometryParams) -> float | None:
        """Reference circumference of the collapsed-limit circle, when one exists."""
        return None if self.circle_length is None else self.circle_length[1](params)

    def expected_normalized_limit(self, params: GeometryParams) -> tuple[float, float] | None:
        """Diagonal of the expected normalized limit metric, when one exists."""
        return self.normalized_limit

    def explicit_bounds(self, traj) -> list[tuple[str, np.ndarray]]:
        """(condition, excess) pairs of the entry's explicit bounds along a
        non-empty trajectory; each condition holds where its excess is <= 0."""
        if self._bounds is None:
            return []
        x0, y0 = traj.x[0], traj.y[0]
        return self._bounds(traj, x0, y0, x0 * y0 - traj.u[0])

    def param_schema(self) -> list[dict]:
        return [{"name": PARAMETERS[name].user_name, "constraint": PARAMETERS[name].constraint}
                for name in param_names(self.geometry)]

    def describe(self) -> dict:
        """JSON-ready catalog entry (id, group, parameter schema, expected labels)."""
        entry = {
            "id": self.geometry.value,
            "name": self.display_name,
            "group": self.group,
            "params": self.param_schema(),
            "expected_outcome": self.expected_outcome,
            "expected_limit": self.expected_limit,
        }
        if self.circle_length is not None:
            entry["expected_circle_length"] = self.circle_length[0]
        if self.normalized_limit is not None:
            entry["expected_normalized_limit"] = list(self.normalized_limit)
        return entry

    def _check(self, params: GeometryParams) -> None:
        if params.geometry is not self.geometry:
            raise InadmissibleParamsError(
                f"params are for {params.geometry.value}, entry is {self.geometry.value}")


_CATALOG: dict[Geometry, GeometryDescriptor] = {}


def _register(*fields, **facts) -> None:
    descriptor = GeometryDescriptor(*fields, **facts)
    _CATALOG[descriptor.geometry] = descriptor


_register(Geometry.TORUS, "complex torus", "R^4 (abelian)",
          OUTCOME_IMMORTAL, LIMIT_POINT, _mu_torus, ("== 0", "== 0", "== 0", None))
_register(Geometry.HYPERELLIPTIC, "hyperelliptic surface", "SE~(2) x R",
          OUTCOME_IMMORTAL, LIMIT_POINT, _mu_hyperelliptic, ("<= 0", "<= 0", "<= 0", ">= 0"),
          converges_unrescaled=True)
_register(Geometry.HOPF, "Hopf surface", "SU(2) x R",
          OUTCOME_EXTINCT, LIMIT_COLLAPSE, _mu_hopf, ("<= 0", None, "<= 0", None))
_register(Geometry.PROPERLY_ELLIPTIC, "properly elliptic surface (non-Kaehler)",
          "SL~(2,R) x R", OUTCOME_IMMORTAL, LIMIT_KE_CURVE,
          _mu_properly_elliptic, (None, "<= 0", "<= 0", ">= 0"),
          normalized_limit=(2.0, 0.0))
_register(Geometry.KODAIRA_PRIMARY, "primary Kodaira surface", "R x H3(R)",
          OUTCOME_IMMORTAL, LIMIT_POINT, _mu_kodaira_primary, (None, None, "<= 0", ">= 0"),
          _bounds=_bounds_kodaira_primary)
_register(Geometry.KODAIRA_SECONDARY, "secondary Kodaira surface", "R |x H3(R)",
          OUTCOME_IMMORTAL, LIMIT_POINT, _mu_kodaira_secondary, (None, "<= 0", "<= 0", ">= 0"))
_register(Geometry.INOUE_S0, "Inoue surface of type S0", "Sol_0^4",
          OUTCOME_IMMORTAL, LIMIT_CIRCLE, _mu_inoue_s0, ("<= 0", None, "<= 0", ">= 0"),
          circle_length=("2*sqrt(2)*a", lambda p: 2 * math.sqrt(2) * abs(p.a)))
_register(Geometry.INOUE_SPM_J1, "Inoue surface of type S+- (J1)", "Sol_1^4",
          OUTCOME_IMMORTAL, LIMIT_CIRCLE, _mu_inoue_j1,
          (None, "<= 0", "<= 0", ">= 0"), _bounds=_bounds_inoue_j1, circle_length=_SQRT3)
_register(Geometry.INOUE_SP_J2, "Inoue surface of type S+ (J2)", "Sol_1^4",
          OUTCOME_IMMORTAL, LIMIT_CIRCLE, _mu_inoue_j2,
          (None, "<= 0", "<= 0", None), _bounds=_bounds_inoue_j2, circle_length=_SQRT3)


def entry(geometry: Geometry) -> GeometryDescriptor:
    return _CATALOG[geometry]


def list_geometries() -> list[GeometryDescriptor]:
    """All nine catalog entries, in id order."""
    return [_CATALOG[g] for g in Geometry]


def catalog_json() -> list[dict]:
    return [d.describe() for d in list_geometries()]


# ---------------------------------------------------------------------------
# random sampling (verification suite)
# ---------------------------------------------------------------------------

def sample_metrics(rng: np.random.Generator, n: int,
                   diag_range: tuple[float, float] = (0.1, 10.0),
                   max_fill: float = 0.95) -> np.ndarray:
    """n random valid metrics as rows (x, y, Re z, Im z) of shape (n, 4).

    One draw of 4n uniforms, four per metric in order: log-uniform x and y,
    |z|^2 uniform below max_fill*x*y, and the phase of z uniform.  Each row has
    the bits of ``sample_metric`` called n times, which leaves the generator
    in the same state.
    """
    lo, hi = math.log(diag_range[0]), math.log(diag_range[1])
    u = rng.uniform(size=4 * n).reshape(n, 4)
    # Generator.uniform(low, high) returns low + (high - low) * u for the unit
    # draw u; for low = 0.0 that is high * u, bit for bit
    x, y = np.exp(lo + (hi - lo) * u[:, :2]).T
    r = np.sqrt(max_fill * x * y * u[:, 2])
    phi = (2 * math.pi * u[:, 3]).tolist()
    # math's libm cos and sin, which numpy's SIMD kernels need not match
    return np.column_stack([x, y, r * np.array([math.cos(p) for p in phi]),
                            r * np.array([math.sin(p) for p in phi])])


def sample_metric(rng: np.random.Generator,
                  diag_range: tuple[float, float] = (0.1, 10.0),
                  max_fill: float = 0.95) -> HermitianMetric:
    """Random valid metric: ``sample_metrics`` for one metric."""
    x, y, z_re, z_im = sample_metrics(rng, 1, diag_range, max_fill)[0].tolist()
    return HermitianMetric(x, y, complex(z_re, z_im))


def sample_params(geometry: Geometry, rng: np.random.Generator) -> GeometryParams:
    """Random admissible parameters for a geometry (deterministic under a seed):
    each parameter's ``draw``, in the geometry's parameter order."""
    return GeometryParams(geometry, **{name: PARAMETERS[name].draw(rng)
                                       for name in param_names(geometry)})
