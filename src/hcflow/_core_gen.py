"""Generate ``_core_kernels.h``, the C lane's closed forms and integrator constants.

``core.build`` writes ``render()`` beside each library it compiles, and
``core``'s digest covers this module and ``_core_py``, so a changed kernel or
constant builds a new library.  Only a build imports this module.  Each
kernel runs once on ``_Var`` values, which write every ``+ - * / **`` and
``_libm`` call as one C temporary in Python's order, ``/`` as ``DV`` and
``**`` as ``PW``: so each local (``sin(theta)``, ``d * d``) is computed once,
and C's first ERR_ code comes from the operation at which Python first
raises.  Constants are ``repr`` literals, which ``strtod`` reads back to the
same doubles.
"""
import types

from . import _core_py
from .geometry import Geometry

# catalog.GEOMETRY_IDS, not imported from catalog, which imports core, which imports this
NAMES = {gid: geometry.value for gid, geometry in enumerate(Geometry)}
_LIBM = lambda fn, v: v.emit(f"{fn.__name__}({v!r})")  # noqa: E731  (_core_py._libm, traced)


def _binary(template):  # an operator and its reflected form
    return (lambda a, b: a.emit(template.format(a, b)),
            lambda a, b: a.emit(template.format(b, a)))


class _Var:
    """A double of a traced kernel, named in C (its repr); each operation on it
    appends one C statement to ``lines``.  Constants print as their repr."""

    def __init__(self, lines, name):
        self.lines, self.name = lines, name

    def __repr__(self):
        return self.name

    def emit(self, expr):
        self.lines.append(f"double t{len(self.lines)} = {expr};")
        return _Var(self.lines, f"t{len(self.lines) - 1}")

    __add__, __radd__ = _binary("{!r} + {!r}")
    __sub__, __rsub__ = _binary("{!r} - {!r}")
    __mul__, __rmul__ = _binary("{!r} * {!r}")
    __truediv__, __rtruediv__ = _binary("DV({!r}, {!r})")
    __pow__, __rpow__ = _binary("PW({!r}, {!r})")


def _case(gid, kernel, args):
    """The C ``case`` of ``kernel`` traced on the C variables ``args``."""
    lines = []
    traced = types.FunctionType(kernel.__code__, {**kernel.__globals__, "_libm": _LIBM},
                                closure=kernel.__closure__)
    out = traced(*(_Var(lines, a) for a in args))
    body = lines + [f"k[{i}] = {v!r};" for i, v in enumerate(out)] + ["return err;"]
    return [f"    case {gid}: {{  /* {NAMES[gid]} */", *(f"        {s}" for s in body), "    }"]


def _function(head, state, cases):
    return [f"{head} {{", "    int err = 0;", *state, "    switch (geom) {",
            *(line for case in cases for line in case), "    default: return ERR_GEOMETRY;",
            "    }", "}"]


def _table(values):
    if isinstance(values, tuple):
        return "{" + (", ".join(map(_table, values)) or "0") + "}"
    return repr(values)


def render() -> str:
    """The text of ``_core_kernels.h``."""
    k_args, phi_args = ("p1", "p2", "x", "y", "zre", "zim"), ("p1", "p2", "x", "y", "u", "th")
    return "\n".join([
        "/* Rendered by hcflow._core_gen from hcflow/_core_py.py for one build. */",
        "/* Dormand-Prince 5(4) tableau, error weights and dense-output coefficients */",
        f"static const double A[7][6] = {_table(_core_py._A)};",
        f"static const double E[7] = {_table(_core_py._E)};",
        f"static const double P[7][4] = {_table(_core_py._P)};",
        *(f"static const double {name[1:]} = {getattr(_core_py, name)!r};" for name in (
            "_SAFETY", "_ALPHA", "_BETA", "_MIN_FACTOR", "_MAX_FACTOR", "_L_MIN")),
        "",
        "/* Closed-form flow tensor (K11, K22, Re K12, Im K12) at state s; 0 or an ERR_ code. */",
        *_function("int hcf_closed_k(int geom, double p1, double p2, const double *s, double *k)",
                   ["    double x = s[0], y = s[1], zre = s[2], zim = s[3];"],
                   [_case(g, kernel, k_args) for g, kernel in _core_py._KERNELS.items()]),
        "",
        "/* (K11, K22, Re phi, Im phi), phi = K12 / z, at |z|^2 = u and arg z = th: no division",
        " * by z, so it holds at u = 0 too.  Returns 0 or an ERR_ code. */",
        *_function("int hcf_closed_phi(int geom, double p1, double p2, double x, double y, "
                   "double u, double th, double *k)", [],
                   [_case(g, kernel, phi_args) for g, kernel in _core_py._PHI.items()]),
    ]) + "\n"

