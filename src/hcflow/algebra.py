"""Structure constants of the complexified Lie algebra.

Coefficients are stored as a dense (4, 4, 4) complex array mu over the basis
(Z1, Z2, conj Z1, conj Z2): mu[A, B, C] is the C-component of the bracket of
basis vectors A and B.  Index slots 0..1 are the holomorphic directions and
2..3 their conjugates.  A stack of n algebras is one (n, 4, 4, 4) array,
which ``from_brackets`` builds from array-valued brackets.  Exact (sympy)
coefficients stay exact in an object array, on which the contraction engine
runs symbolically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Z1, Z2, ZB1, ZB2 = 0, 1, 2, 3
_CONJ = (ZB1, ZB2, Z1, Z2)


def _dtype(values) -> type:
    """object where a value is exact (a sympy value, or an array of them), else complex."""
    for v in values:
        if not isinstance(v, (int, float, complex)) and np.asarray(v).dtype == object:
            return object
    return complex


def conjugate_vector(v: np.ndarray) -> np.ndarray:
    """Complex conjugation of a coefficient vector, swapping Zi <-> conj Zi;
    on an array of shape (4, ...), of each vector along the first axis."""
    return np.conj(np.asarray(v, dtype=_dtype((v,)))[list(_CONJ)])


# The four hygiene checks take mu of shape (..., 4, 4, 4) and return the max
# absolute violation per leading index, so one call checks a stack of
# coefficient arrays; each slice has the bits of the one-array call, and a
# NaN anywhere in a slice is that slice's result.

def antisymmetry_violation(mu: np.ndarray) -> np.ndarray:
    """Deviation from mu[a, b, c] = -mu[b, a, c]."""
    return np.max(np.abs(mu + np.swapaxes(mu, -3, -2)), axis=(-3, -2, -1))


def reality_violation(mu: np.ndarray) -> np.ndarray:
    """Deviation from the bracket being the complexification of a real one:
    conj(mu[a, b, C[c]]) against mu[C[a], C[b], c], C swapping Zi <-> conj Zi."""
    C = list(_CONJ)
    return np.max(np.abs(np.conj(mu[..., C]) - mu[..., C, :, :][..., C, :]),
                  axis=(-3, -2, -1))


def integrability_violation(mu: np.ndarray) -> np.ndarray:
    """Antiholomorphic part of brackets of holomorphic vectors (must vanish)."""
    return np.max(np.abs(mu[..., 0:2, 0:2, 2:4]), axis=(-3, -2, -1))


def jacobi_violation(mu: np.ndarray) -> np.ndarray:
    """Largest cyclic sum [[A, B], C] + [[B, C], A] + [[C, A], B] component.

    The leading axes are moved last, so the contractions' innermost loop runs
    over the stack; each sum over d still runs in the one-array order."""
    lead = mu.ndim - 3
    m = np.ascontiguousarray(np.moveaxis(mu, range(lead), range(3, mu.ndim)))
    total = (np.einsum('abd...,dce...->abce...', m, m)
             + np.einsum('bcd...,dae...->abce...', m, m)
             + np.einsum('cad...,dbe...->abce...', m, m))
    return np.max(np.abs(total), axis=(0, 1, 2, 3))


@dataclass(frozen=True)
class StructureConstants:
    """Immutable bracket coefficients of a 4-dimensional complexified algebra,
    shape (4, 4, 4), or of a stack of n such algebras, shape (n, 4, 4, 4)."""

    mu: np.ndarray

    def __post_init__(self) -> None:
        mu = np.ascontiguousarray(self.mu, dtype=_dtype((self.mu,)))
        if mu.shape[-3:] != (4, 4, 4) or mu.ndim > 4:
            raise ValueError(f"expected shape (4, 4, 4) or (n, 4, 4, 4), got {mu.shape}")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


def from_brackets(b12=None, b11=None, b22=None, b12b=None) -> StructureConstants:
    """Assemble structure constants from the independent brackets.

    Arguments are coefficient 4-vectors over (Z1, Z2, conj Z1, conj Z2) for
    the brackets [Z1, Z2], [Z1, conj Z1], [Z2, conj Z2] and [Z1, conj Z2];
    omitted brackets are zero.  [Z2, conj Z1], the conjugate pair brackets and
    all swapped-argument entries are filled in by reality and antisymmetry.

    A component may be an array of shape (n,) (scalars broadcast against it):
    then mu has shape (n, 4, 4, 4), one algebra per element, and each has the
    bits of the call on that element's scalars.  A sympy component makes mu
    an object array.
    """
    values = [c for v in (b12, b11, b22, b12b) if v is not None for c in v]
    arrays = [c.shape for c in values if isinstance(c, np.ndarray)]
    shape = np.broadcast_shapes(*arrays) if arrays else ()
    dtype = _dtype(values)

    def vec(v):
        out = np.zeros((4, *shape), dtype=dtype)
        for c, value in enumerate(() if v is None else v):
            out[c] = value
        return out

    b12, b11, b22, b12b = vec(b12), vec(b11), vec(b22), vec(b12b)
    mu = np.zeros((4, 4, 4, *shape), dtype=dtype)  # the algebra axes move last below

    def put(a, b, v):
        mu[a, b] = v
        mu[b, a] = -v

    put(Z1, Z2, b12)
    put(Z1, ZB1, b11)
    put(Z2, ZB2, b22)
    put(Z1, ZB2, b12b)
    put(Z2, ZB1, -conjugate_vector(b12b))
    put(ZB1, ZB2, conjugate_vector(b12))
    return StructureConstants(np.moveaxis(mu, (0, 1, 2), (-3, -2, -1)))
