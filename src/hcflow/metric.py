"""Left-invariant Hermitian metrics on a 2-dimensional complex Lie group.

A metric is parameterized by the frame coefficients (x, y, z): x and y are
the positive diagonal entries, z the complex off-diagonal entry of the
Hermitian 2x2 matrix [[x, z], [conj(z), y]].  The determinant D = x*y - |z|^2
and the squared off-diagonal norm u = |z|^2 are always recomputed from
(x, y, z), never cached.

Stacked operations take n metrics as a float64 array of rows
(x, y, Re z, Im z) of shape (n, 4); ``metric_rows`` turns one metric or a
sequence of metrics into rows.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

#: Relative positivity margin: metrics with D < POSITIVITY_MARGIN * x * y are
#: treated as degenerate by operations that require an invertible metric.
POSITIVITY_MARGIN = 1e-12


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

    def require_positive(self, margin: float = POSITIVITY_MARGIN) -> None:
        """Reject metrics that are degenerate up to the roundoff margin."""
        if not (self.x > 0 and self.y > 0 and self.det >= margin * self.x * self.y):
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


def require_positive_rows(rows: np.ndarray, margin: float = POSITIVITY_MARGIN) -> None:
    """``require_positive`` on every row at once, with its arithmetic; raises
    its error for the first degenerate row."""
    x, y, zre, zim = rows.T
    with np.errstate(all="ignore"):  # a huge metric overflows to inf, as Python's floats do
        ok = (x > 0) & (y > 0) & (x * y - (zre * zre + zim * zim) >= margin * x * y)
    if not ok.all():
        x, y, zre, zim = rows[np.argmin(ok)].tolist()
        HermitianMetric(x, y, complex(zre, zim)).require_positive(margin)
