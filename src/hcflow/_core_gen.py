"""Generate the C lane's headers: ``_core_kernels.h``, its closed forms, step
arithmetic and constants, and ``_g17_tables.h``, its CSV formatter's constants.

``core.build`` writes ``render()`` and ``render_g17()`` beside each library it
compiles, and ``core``'s digest covers this module, ``_core_py`` and ``_g17``,
so a changed kernel, step-control function, constant or formatter table
builds a new library.  Only a build imports this module.  Each kernel and
each function of ``STEP`` runs once on ``_Var`` values, which write every
``+ - * / **``, ``abs``, ``sqrt`` and ``_libm`` call as one C temporary in
Python's order, ``/`` as ``DV``, ``**`` as ``PW``, and ``min``/``max`` as
``pmin``/``pmax`` folded in argument order: so each local (``sin(theta)``,
``d * d``) is computed once, and C's first ERR_ code comes from the operation
at which Python first raises.  Inside a trace every ``_core_py`` function is
traced too, so the functions may call each other.  Constants are ``repr``
literals, which ``strtod`` reads back to the same doubles.
"""
import functools
import types

from . import _core_py, _g17
from .geometry import Geometry

# catalog.GEOMETRY_IDS, not imported from catalog, which imports core, which imports this
NAMES = {gid: geometry.value for gid, geometry in enumerate(Geometry)}
#: the constants that the C loop reads (an int is an enum constant, e.g. an array size)
CONSTANTS = ("_MAX_FACTOR", "_NONFINITE_FACTOR", "_EXTINCT_MARGIN", "_EXTINCT_DECREASES",
             "_ERR_FLOOR", "_TAIL_TOL", "_BISECTIONS", "_L_MIN")
#: the functions of the step loop's arithmetic that the C loop calls
STEP = ("_step_floor", "_error_norm", "_reject_factor", "_accept_factor", "_polar_monitor",
        "_dense_coefficients", "_dense_eval", "_sample_cut")


def _binary(template):  # an operator and its reflected form
    return (lambda a, b: a.emit(template.format(a, b)),
            lambda a, b: a.emit(template.format(b, a)))


def _fold(name):  # Python's min or max by pmin or pmax: the first argument wins ties and NaNs
    return lambda *args: functools.reduce(
        lambda a, b: (a if isinstance(a, _Var) else b).emit(f"{name}({a!r}, {b!r})"), args)


class _Var:
    """A double of a traced function, named in C (its repr); each operation on it
    appends one C statement to ``lines``.  Constants print as their repr.  An
    indexed one is an array, and its elements are named ``name[i]``."""

    def __init__(self, lines, name):
        self.lines, self.name, self.indexed = lines, name, False

    def __repr__(self):
        return self.name

    def __getitem__(self, i):
        self.indexed = True
        return _Var(self.lines, f"{self.name}[{i}]")

    def emit(self, expr):
        self.lines.append(f"double t{len(self.lines)} = {expr};")
        return _Var(self.lines, f"t{len(self.lines) - 1}")

    def __abs__(self):
        return self.emit(f"fabs({self!r})")

    __add__, __radd__ = _binary("{!r} + {!r}")
    __sub__, __rsub__ = _binary("{!r} - {!r}")
    __mul__, __rmul__ = _binary("{!r} * {!r}")
    __truediv__, __rtruediv__ = _binary("DV({!r}, {!r})")
    __pow__, __rpow__ = _binary("PW({!r}, {!r})")


def _namespace():
    """``_core_py``'s globals for a trace: its functions bound to them, and
    ``_libm``, ``sqrt``, ``min`` and ``max`` on ``_Var`` values."""
    ns = dict(vars(_core_py))
    for name, value in vars(_core_py).items():
        if isinstance(value, types.FunctionType):
            ns[name] = types.FunctionType(value.__code__, ns, name, value.__defaults__,
                                          value.__closure__)
    ns.update(_libm=lambda fn, v: v.emit(f"{fn.__name__}({v!r})"),
              sqrt=lambda v: v.emit(f"sqrt({v!r})"), min=_fold("pmin"), max=_fold("pmax"))
    return ns


def _trace(ns, fn, names):
    """``fn`` (a function of ``_core_py`` or a closure over one) run in ``ns`` on
    the C variables ``names``: its C statements, its parameters and its result."""
    lines = []
    params = [_Var(lines, name) for name in names]
    return lines, params, types.FunctionType(fn.__code__, ns, closure=fn.__closure__)(*params)


def _case(ns, gid, kernel, args):
    """The C ``case`` of ``kernel`` traced on the C variables ``args``."""
    lines, _, out = _trace(ns, kernel, args)
    body = lines + [f"k[{i}] = {v!r};" for i, v in enumerate(out)] + ["return err;"]
    return [f"    case {gid}: {{  /* {NAMES[gid]} */", *(f"        {s}" for s in body), "    }"]


def _function(head, state, cases):
    return [f"{head} {{", "    int err = 0, *fault = &err;", *state, "    switch (geom) {",
            *(line for case in cases for line in case), "    default: return ERR_GEOMETRY;",
            "    }", "}"]


def _step(ns, name):
    """The C function of ``_core_py``'s function ``name``, named without its
    ``_``.  Its parameters keep their names, an indexed one as a ``const double
    *``; a list result is written to ``out``; and a ``PW`` or ``DV`` in it makes
    it take ``fault``, which keeps the first error code."""
    fn = getattr(_core_py, name)
    lines, params, result = _trace(ns, fn, fn.__code__.co_varnames[:fn.__code__.co_argcount])
    head = [f"const double *{p!r}" if p.indexed else f"double {p!r}" for p in params]
    kind = "void" if isinstance(result, list) else "double"
    if isinstance(result, list):
        head.append("double *out")
        lines += [f"out[{i}] = {v!r};" for i, v in enumerate(result)]
    else:
        lines.append(f"return {result!r};")
    head += ["int *fault"] * any("PW(" in line or "DV(" in line for line in lines)
    return [f"static {kind} {name[1:]}({', '.join(head)}) {{", *(f"    {s}" for s in lines), "}"]


def _table(values):
    if isinstance(values, tuple):
        return "{" + (", ".join(map(_table, values)) or "0") + "}"
    return repr(values)


def _constant(name, module=_core_py):
    value = getattr(module, name)
    if isinstance(value, int):
        return f"enum {{ {name[1:]} = {value} }};"
    return f"static const double {name[1:]} = {value!r};"


def render() -> str:
    """The text of ``_core_kernels.h``."""
    ns = _namespace()
    k_args, phi_args = ("p1", "p2", "x", "y", "zre", "zim"), ("p1", "p2", "x", "y", "u", "th")
    return "\n".join([
        "/* Rendered by hcflow._core_gen from hcflow/_core_py.py for one build. */",
        "/* Dormand-Prince 5(4) tableau and error weights, and the loop's constants */",
        f"static const double A[7][6] = {_table(_core_py._A)};",
        f"static const double E[7] = {_table(_core_py._E)};",
        *map(_constant, CONSTANTS),
        "",
        "/* Closed-form flow tensor (K11, K22, Re K12, Im K12) at state s; 0 or an ERR_ code. */",
        *_function("int hcf_closed_k(int geom, double p1, double p2, const double *s, double *k)",
                   ["    double x = s[0], y = s[1], zre = s[2], zim = s[3];"],
                   [_case(ns, g, kernel, k_args) for g, kernel in _core_py._KERNELS.items()]),
        "",
        "/* (K11, K22, Re phi, Im phi), phi = K12 / z, at |z|^2 = u and arg z = th: no division",
        " * by z, so it holds at u = 0 too.  Returns 0 or an ERR_ code. */",
        *_function("int hcf_closed_phi(int geom, double p1, double p2, double x, double y, "
                   "double u, double th, double *k)", [],
                   [_case(ns, g, kernel, phi_args) for g, kernel in _core_py._PHI.items()]),
        "",
        "/* The step loop's arithmetic: _core_py's functions of the same names. */",
        *(line for name in STEP for line in _step(ns, name)),
    ]) + "\n"


def render_g17() -> str:
    """The text of ``_g17_tables.h``: ``_g17``'s constants and its table of 10**k for
    k in [_K_MIN, _K_MAX], one row {hi, hi's two halves, lo} per k."""
    rows = zip(*(column.tolist() for column in _g17._powers()))
    return "\n".join([
        "/* Rendered by hcflow._core_gen from hcflow/_g17.py for one build. */",
        *(_constant(name, _g17) for name in ("_MIN", "_MAX", "_K_MIN", "_SPLIT", "_TIE")),
        f"static const double POW10[{_g17._K_MAX - _g17._K_MIN + 1}][4] = {{",
        *(f"    {_table(row)}," for row in rows),
        "};",
    ]) + "\n"
