"""The eight 2-dimensional complex model geometries and their parameters.

The Lie group underlying Inoue surfaces of type S+- carries two distinct
complex structures, so it contributes two catalog entries (J1 and J2); the
catalog therefore has nine entries in total.

Each row of ``PARAMETERS`` is the one statement of a parameter's rules: how
users write it, which values it admits, and how the verification suite draws
it.  ``GeometryParams`` and ``catalog.sample_params`` read the rows; what a
geometry's flow does lives in its ``hcflow.catalog`` entry.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Geometry(enum.Enum):
    TORUS = "torus"
    HYPERELLIPTIC = "hyperelliptic"
    HOPF = "hopf"
    PROPERLY_ELLIPTIC = "properly-elliptic"
    KODAIRA_PRIMARY = "kodaira-primary"
    KODAIRA_SECONDARY = "kodaira-secondary"
    INOUE_S0 = "inoue-s0"
    INOUE_SPM_J1 = "inoue-spm-j1"
    INOUE_SP_J2 = "inoue-sp-j2"

    @classmethod
    def from_name(cls, name: str) -> "Geometry":
        key = name.strip().lower().replace("_", "-")
        for geom in cls:
            if geom.value == key:
                return geom
        raise InadmissibleParamsError(
            f"unknown geometry {name!r}; choose from "
            + ", ".join(g.value for g in cls)
        )


class InadmissibleParamsError(ValueError):
    """Raised for input values a flow does not admit.  ``path`` is the config
    path of the rejected value (``params.lambda``, ``g0.x``, ``t_max``) where
    it has one, and ``message`` says what is wrong with it."""

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path, self.message = path, message


class Parameter(NamedTuple):
    """How users write one complex-structure parameter, what it admits, and
    how the verification suite draws it."""

    user_name: str  # in configs, flags and `hcflow list`
    constraint: str  # `admits`, as `hcflow list` and the rejection say it
    type: type  # what a flag parses and GeometryParams holds
    admits: Callable[[float], bool]
    draw: Callable  # a random admissible value from a numpy Generator


#: Every complex-structure parameter, keyed by its ``GeometryParams`` field.
#: The draws are made in a geometry's parameter order, each row's calls in
#: the order written; seeded verification and benchmark inputs depend on it.
PARAMETERS: dict[str, Parameter] = {
    "lam": Parameter("lambda", "any real", float, lambda v: True,
                     lambda rng: float(rng.uniform(-2.0, 2.0))),
    "a": Parameter("a", "real, nonzero", float, lambda v: v != 0,
                   lambda rng: float(rng.uniform(0.3, 2.0)) * float(rng.choice([1, -1]))),
    "b": Parameter("b", "any real", float, lambda v: True,
                   lambda rng: float(rng.uniform(-2.0, 2.0))),
    "epsilon": Parameter("epsilon", "+1 or -1", int, lambda v: v in (1, -1),
                         lambda rng: int(rng.choice([1, -1]))),
}

#: Which parameters each geometry uses, in the order of the kernels' (p1, p2) slots.
_PARAMS_BY_GEOMETRY: dict[Geometry, tuple[str, ...]] = {
    Geometry.TORUS: (),
    Geometry.HYPERELLIPTIC: (),
    Geometry.HOPF: ("lam",),
    Geometry.PROPERLY_ELLIPTIC: ("lam",),
    Geometry.KODAIRA_PRIMARY: (),
    Geometry.KODAIRA_SECONDARY: ("epsilon",),
    Geometry.INOUE_S0: ("a", "b"),
    Geometry.INOUE_SPM_J1: (),
    Geometry.INOUE_SP_J2: (),
}


@dataclass(frozen=True)
class GeometryParams:
    """Geometry selector plus the parameters of its complex-structure family.

    lam parameterizes the Hopf and properly-elliptic families, (a, b) the
    Inoue S0 family, and epsilon the two secondary-Kodaira complex
    structures; each value must be finite and one its ``PARAMETERS`` row
    admits.  Parameters that the selected geometry does not use must be left
    unset.  A rejection's path is ``params.<user name>``.
    """

    geometry: Geometry
    lam: float | None = None
    a: float | None = None
    b: float | None = None
    epsilon: int | None = None

    def __post_init__(self) -> None:
        used = _PARAMS_BY_GEOMETRY[self.geometry]
        for name, param in PARAMETERS.items():
            value, path = getattr(self, name), f"params.{param.user_name}"
            if (name in used) != (value is not None):
                verb = "required by" if name in used else "not a parameter of"
                raise InadmissibleParamsError(f"{verb} {self.geometry.value}", path)
            if value is not None and not math.isfinite(value):
                raise InadmissibleParamsError(f"must be finite, got {value}", path)
            if value is not None and not param.admits(value):
                raise InadmissibleParamsError(
                    f"must be {param.constraint}, got {value!r}", path)

    @property
    def c(self) -> float:
        """1 + lam^2 for the lambda-families; 1.0 otherwise."""
        try:
            return 1.0 + (self.lam or 0.0) ** 2
        except OverflowError:  # Python's float ** raises where the kernels' 1.0 + p1 * p1 is inf
            return math.inf

    def as_dict(self) -> dict[str, float]:
        used = _PARAMS_BY_GEOMETRY[self.geometry]
        return {name: getattr(self, name) for name in used}


def param_names(geometry: Geometry) -> tuple[str, ...]:
    return _PARAMS_BY_GEOMETRY[geometry]
