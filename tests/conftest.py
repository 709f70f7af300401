import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hcflow import _core_py, core
from hcflow.catalog import sample_metric, sample_params
from hcflow.geometry import Geometry


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def metrics(seed: int, n: int, **kwargs):
    gen = np.random.default_rng(seed)
    return [sample_metric(gen, **kwargs) for _ in range(n)]


def params_for(geometry: Geometry, seed: int = 0):
    return sample_params(geometry, np.random.default_rng(seed))


ALL_GEOMETRIES = list(Geometry)


@pytest.fixture(scope="session")
def c_library():
    """Path of the C core that ``import hcflow`` built and loaded: the digest covers
    every input of the build, so it is the library of these sources."""
    if core.LIBRARY is None:  # not COMPILED, which tests monkeypatch
        pytest.skip("import hcflow built no C core")
    return core.LIBRARY


@pytest.fixture(scope="session")
def c_bound(c_library):
    """The C core's ``run_closed_flow`` and ``csv_text``, bound as ``hcflow.core`` binds them."""
    return core.bind(c_library)


@pytest.fixture(scope="session")
def c_run(c_bound):
    """The C core's ``run_closed_flow``."""
    return c_bound[0]


@pytest.fixture(params=["python", "c"])
def lane(request, monkeypatch):
    """Runs the test in the lane "python" or "c", whichever lane ``import hcflow``
    chose: sets ``core.run_closed_flow``, ``core.csv_text`` (the CSV formatter,
    ``_g17.csv_text`` or the C library's) and ``core.COMPILED``."""
    if request.param == "python":
        from hcflow import _g17

        monkeypatch.setattr(core, "run_closed_flow", _core_py.run_closed_flow)
        monkeypatch.setattr(core, "csv_text", _g17.csv_text)
    else:
        run_closed_flow, csv_text = request.getfixturevalue("c_bound")
        monkeypatch.setattr(core, "run_closed_flow", run_closed_flow)
        monkeypatch.setattr(core, "csv_text", csv_text)
    monkeypatch.setattr(core, "COMPILED", request.param == "c")
    return request.param

