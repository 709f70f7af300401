import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hcflow import core
from hcflow.catalog import sample_metric, sample_params
from hcflow.geometry import Geometry

ROOT = Path(__file__).resolve().parent.parent


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
def c_library(tmp_path_factory):
    """Path of the C core, built the way the package builds it."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    out = tmp_path_factory.mktemp("core_c")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
         "--build-temp", str(out / "tmp")], cwd=ROOT, capture_output=True, text=True)
    lib = out / "hcflow" / os.path.basename(core.LIBRARY)
    if not lib.exists():
        pytest.fail(f"the C core did not build:\n{proc.stdout}\n{proc.stderr}")
    return str(lib)


@pytest.fixture(scope="session")
def c_run(c_library):
    """The C core's ``run_closed_flow``, bound as ``hcflow.core`` binds it."""
    return core.bind(c_library)
