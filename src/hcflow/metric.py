"""Left-invariant Hermitian metrics on a 2-dimensional complex Lie group.

A metric is parameterized by the frame coefficients (x, y, z): x and y are
the positive diagonal entries, z the complex off-diagonal entry of the
Hermitian 2x2 matrix [[x, z], [conj(z), y]].  The determinant D = x*y - |z|^2
and the squared off-diagonal norm u = |z|^2 are always recomputed from
(x, y, z), never cached.

Stacked operations take n metrics as a float64 array of rows
(x, y, Re z, Im z) of shape (n, 4); ``metric_rows`` turns one metric or a
sequence of metrics into rows.

A metric is positive above a margin m when x > 0, y > 0 and D > m x y, stated
once as |z| / sqrt(x) / sqrt(y) < sqrt(1 - m), which forms neither x y nor
|z|^2 and so holds for a huge positive metric too.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

#: Relative positivity margin: metrics with D <= POSITIVITY_MARGIN * x * y are
#: treated as degenerate by operations that require an invertible metric.
POSITIVITY_MARGIN = 1e-12


def _positive(x, y, r, margin, sqrt):
    """Positivity of (x, y, |z| = r) above ``margin``: on floats with math's ``sqrt``
    (``is_positive``), on arrays with numpy's (``positive_rows``).  On floats a
    zero or negative x or y raises where arrays give False."""
    return (x > 0) & (y > 0) & (r / sqrt(x) / sqrt(y) < math.sqrt(1.0 - margin))


class DegenerateMetricError(ValueError):
    """Raised when an operation needs a positive-definite metric and D <= 0."""


@dataclass(frozen=True)
class HermitianMetric:
    """Value type for the metric coefficients (x, y, z)."""

    x: float
    y: float
    z: complex = 0.0

    @property
    def u(self) -> float:
        """Squared modulus of the off-diagonal coefficient, |z|^2."""
        z = complex(self.z)
        return z.real * z.real + z.imag * z.imag

    @property
    def det(self) -> float:
        """Determinant x*y - |z|^2 of the metric matrix."""
        return self.x * self.y - self.u

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", complex(self.z))

    def is_positive(self, margin: float = POSITIVITY_MARGIN) -> bool:
        """Whether D > margin * x * y with x, y > 0 (see the module docstring)."""
        try:
            return _positive(self.x, self.y, abs(self.z), margin, math.sqrt)
        except (ValueError, ZeroDivisionError):  # x or y is zero or negative
            return False

    def require_positive(self, margin: float = POSITIVITY_MARGIN) -> None:
        """Reject metrics that are degenerate up to the roundoff margin."""
        if not self.is_positive(margin):
            raise DegenerateMetricError(
                f"metric degenerate: x={self.x!r} y={self.y!r} |z|={abs(self.z)!r} "
                f"D={self.det!r} (margin {margin:g})"
            )

    def matrix(self) -> np.ndarray:
        """Metric as a 2x2 complex array; entry [i, j] pairs frame i with conjugate frame j."""
        return np.array([[self.x, self.z], [np.conj(self.z), self.y]], dtype=complex)


def metric_rows(g: HermitianMetric | Sequence[HermitianMetric] | np.ndarray) -> np.ndarray:
    """Rows (x, y, Re z, Im z) of shape (n, 4): one row for one metric, one
    per metric of a sequence; an array is taken as rows already."""
    if isinstance(g, np.ndarray):
        rows = np.asarray(g, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise ValueError(f"metric rows must have shape (n, 4), got {rows.shape}")
        return rows
    metrics = [g] if isinstance(g, HermitianMetric) else g
    return np.array([(h.x, h.y, h.z.real, h.z.imag) for h in metrics],
                    dtype=float).reshape(-1, 4)


def positive_rows(rows: np.ndarray, margin: float = POSITIVITY_MARGIN) -> np.ndarray:
    """``HermitianMetric.is_positive`` of each row, as a bool array."""
    x, y, zre, zim = rows.T
    with np.errstate(all="ignore"):  # a zero or negative x or y gives inf or NaN: False
        return _positive(x, y, np.hypot(zre, zim), margin, np.sqrt)


def require_positive_rows(rows: np.ndarray, margin: float = POSITIVITY_MARGIN) -> None:
    """``require_positive`` on every row at once: raises its error for the first bad row."""
    ok = positive_rows(rows, margin)
    if not ok.all():
        x, y, zre, zim = rows[np.argmin(ok)].tolist()
        HermitianMetric(x, y, complex(zre, zim)).require_positive(margin)
