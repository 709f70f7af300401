"""High-precision reference states of closed-form flows: ``tests/data/reference.json``.

Each case of ``CASES`` integrates g' = -K(g) of one catalog entry, its
Cartesian kernel in ``hcflow._core_py._KERNELS`` (pure rational arithmetic)
run on mpmath's ``mpf``, with ``mpmath.odefun`` (a Taylor-series method) at
``DIGITS`` significant digits, and records the state (x, y, Re z, Im z) at
each of its times.  The times are multiples of ``STRIDE``, which is exact in
binary, so a run with that sample stride has a row at each.  A Hopf flow
collapses at a finite T, and its times lie before it (the script checks them
against the RK5(4) run's ``t_est``).  The tier-1 tests compare both lanes'
rows against these states and check that the JSON records exactly the cases
declared here; they do not import mpmath.

Regenerate, from the repository root (about 80 s):

    PYTHONPATH=src python tests/make_reference.py

and commit the JSON together with this file.  Do so only when a case is
added or changed here: the states are those of the exact flow, so a change
to the integrator, its tolerances or the C lane must not move them.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from hcflow import _core_py
from hcflow.catalog import GEOMETRY_IDS, pack_params
from hcflow.geometry import Geometry, GeometryParams

OUT = Path(__file__).resolve().parent / "data" / "reference.json"
DIGITS = 25
STRIDE = 0.25

#: (id, geometry, GeometryParams keywords, g0 as (x, y, Re z, Im z), times);
#: the first Hopf and the first Inoue S+ J2 case are the two flows that once
#: compared the closed forms with the contraction engine as the rhs
CASES = [
    ("torus", "torus", {}, (1.3, 0.7, 0.2, 0.1), (1.0, 5.0, 20.0)),
    ("hyperelliptic", "hyperelliptic", {}, (1.3, 0.7, 0.2, 0.1), (1.0, 5.0, 20.0)),
    ("hopf-a", "hopf", {"lam": 0.7}, (1.0, 2.0, 0.4, 0.1), (0.5, 1.5, 2.75)),
    ("hopf-b", "hopf", {"lam": 0.0}, (1.3, 0.7, 0.2, 0.1), (0.5, 1.0, 1.75)),
    ("properly-elliptic", "properly-elliptic", {"lam": 0.5}, (1.3, 0.7, 0.2, 0.1),
     (1.0, 5.0, 20.0)),
    ("kodaira-primary", "kodaira-primary", {}, (1.3, 0.7, 0.2, 0.1), (1.0, 5.0, 20.0)),
    ("kodaira-secondary-plus", "kodaira-secondary", {"epsilon": 1}, (1.3, 0.7, 0.2, 0.1),
     (1.0, 5.0, 20.0)),
    ("kodaira-secondary-minus", "kodaira-secondary", {"epsilon": -1}, (1.0, 1.0, -0.3, 0.2),
     (1.0, 5.0, 20.0)),
    ("inoue-s0", "inoue-s0", {"a": 1.0, "b": 2.0}, (1.3, 0.7, 0.2, 0.1), (1.0, 5.0, 20.0)),
    ("inoue-spm-j1", "inoue-spm-j1", {}, (1.3, 0.7, 0.2, 0.1), (1.0, 5.0, 20.0)),
    ("inoue-sp-j2-a", "inoue-sp-j2", {}, (1.0, 1.0, 0.3, 0.4), (1.0, 2.5, 5.0)),
    ("inoue-sp-j2-b", "inoue-sp-j2", {}, (1.3, 0.7, 0.2, 0.1), (1.0, 5.0, 20.0)),
]


def declared() -> dict:
    """The document this script writes, without the states."""
    return {"digits": DIGITS, "stride": STRIDE, "cases": [
        {"id": cid, "geometry": geometry, "params": params, "g0": list(g0), "times": list(times)}
        for cid, geometry, params, g0, times in CASES]}


def _states(case: dict) -> list[list[str]]:
    import mpmath  # only here: the tests import this module for CASES

    geometry = Geometry.from_name(case["geometry"])
    gid = GEOMETRY_IDS[geometry]
    p1, p2 = pack_params(GeometryParams(geometry, **case["params"]))
    if geometry is Geometry.HOPF:
        t_est = _core_py.run_closed_flow(gid, p1, p2, case["g0"], 50.0, 1e-9, 1e-12, 1.0,
                                         1e-10)[1]
        if not max(case["times"]) < t_est:
            raise SystemExit(f"{case['id']}: a time is not before the collapse at ~{t_est}")
    kernel = _core_py._KERNELS[gid]
    mp1, mp2 = mpmath.mpf(p1), mpmath.mpf(p2)

    def velocity(t, state):
        return [-mpmath.mpf(k) for k in kernel(mp1, mp2, *state)]

    flow = mpmath.odefun(velocity, 0, [mpmath.mpf(v) for v in case["g0"]])
    return [[mpmath.nstr(v, DIGITS, strip_zeros=False) for v in flow(mpmath.mpf(t))]
            for t in case["times"]]


def main() -> int:
    import mpmath

    mpmath.mp.dps = DIGITS + 5  # guard digits: the states are printed to DIGITS
    doc = declared()
    for case in doc["cases"]:
        case["states"] = _states(case)
        print(case["id"], case["states"][-1], file=sys.stderr)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
