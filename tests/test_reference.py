"""The RK5(4) loop of both lanes against high-precision reference states.

``data/reference.json`` holds states of closed-form flows that
``make_reference.py`` computed with mpmath's Taylor-series integrator (see
there for how and when to regenerate it).  These tests read the numbers
only, so mpmath stays off the test path.
"""
import json

import numpy as np
import pytest

import make_reference
from hcflow import _core_py
from hcflow.catalog import GEOMETRY_IDS, pack_params
from hcflow.geometry import Geometry, GeometryParams

REFERENCE = json.loads(make_reference.OUT.read_text())
REL_TOL, ABS_TOL = 1e-9, 1e-12  # FlowConfig's defaults


def test_reference_records_the_declared_cases():
    # the data and its script cannot drift apart: the same cases, parameters,
    # starts, times and digits, and one state per time
    cases = [{k: v for k, v in case.items() if k != "states"} for case in REFERENCE["cases"]]
    assert dict(REFERENCE, cases=cases) == make_reference.declared()
    for case in REFERENCE["cases"]:
        assert [len(state) for state in case["states"]] == [4] * len(case["times"])


@pytest.mark.parametrize("lane", ["python", "c"])
@pytest.mark.parametrize("case", REFERENCE["cases"], ids=lambda case: case["id"])
def test_rows_match_the_reference(case, lane, request):
    # at the default tolerances the global error stays within 100 rel_tol of the
    # state's scale, max(1, max |state|)
    run = _core_py.run_closed_flow if lane == "python" else request.getfixturevalue("c_run")
    geometry = Geometry.from_name(case["geometry"])
    p1, p2 = pack_params(GeometryParams(geometry, **case["params"]))
    status, _, rows, *_ = run(GEOMETRY_IDS[geometry], p1, p2, tuple(case["g0"]),
                              max(case["times"]), REL_TOL, ABS_TOL, REFERENCE["stride"], 1e-10)
    assert status == _core_py.STATUS_REACHED_TMAX
    at = {t: state for t, *state in rows[:, :5].tolist()}
    got = np.array([at[t] for t in case["times"]])
    reference = np.array(case["states"], dtype=float)
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert np.max(np.abs(got - reference)) <= 100 * REL_TOL * scale
