"""The C loop's build: ``import hcflow`` compiles it once per source digest,
and falls back to the Python lane, silently and leaving no partial library,
wherever it cannot.  A compiler that ran and failed leaves a ``.failed``
file, so that later imports of the same sources do not start it again.

Each case copies the package into ``tmp_path`` and imports it in a fresh
interpreter, with a ``PATH`` that holds the real ``cc``, a fake one or none.
"""
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hcflow import cli, core

ROOT = Path(__file__).resolve().parent.parent

# imports hcflow.core and prints its lane, its library and how many processes the import started;
# given "unprivileged" and run as root, it first drops its own CAP_DAC_OVERRIDE, so that file
# modes bind it as they bind any other user
PROBE = r"""
import ctypes, json, os, subprocess, sys
if sys.argv[1] == "unprivileged" and os.geteuid() == 0:
    class Header(ctypes.Structure):
        _fields_ = [("version", ctypes.c_uint32), ("pid", ctypes.c_int)]
    class Sets(ctypes.Structure):
        _fields_ = [("effective", ctypes.c_uint32), ("permitted", ctypes.c_uint32),
                    ("inheritable", ctypes.c_uint32)]
    libc = ctypes.CDLL(None, use_errno=True)
    header, sets = Header(0x20080522, 0), (Sets * 2)()
    if libc.capget(ctypes.byref(header), sets) != 0:
        sys.exit("capget failed")
    sets[0].effective &= ~(1 << 1)  # CAP_DAC_OVERRIDE
    if libc.capset(ctypes.byref(header), sets) != 0:
        sys.exit("capset failed")
started = []
class Spy(subprocess.Popen):
    def __init__(self, args, *rest, **kwargs):
        started.append(args)
        super().__init__(args, *rest, **kwargs)
subprocess.Popen = Spy
from hcflow import core
print(json.dumps({"compiled": core.COMPILED, "library": core.LIBRARY, "started": len(started)}))
"""

# runs one Hopf flow (lambda = 0.7, from x = 2, y = 0.7, z = 0 to t = 5) in the lane that
# import hcflow chose and in the Python lane, and prints each lane's steps and rows
FLOW = r"""
import hashlib, json
from hcflow import _core_py, core
from hcflow.catalog import GEOMETRY_IDS
from hcflow.geometry import Geometry
args = (GEOMETRY_IDS[Geometry.HOPF], 0.7, 0.0, (2.0, 0.7, 0.0, 0.0), 5.0,
        1e-9, 1e-12, 0.005, 1e-10)
runs = [core.run_closed_flow(*args), _core_py.run_closed_flow(*args)]
print(json.dumps([{"status": run[0], "t_est": run[1], "steps": run[3:5],
                   "rows": hashlib.sha256(run[2].tobytes()).hexdigest()} for run in runs]))
"""


def _package(tmp_path: Path) -> Path:
    """A copy of the package without its ``__pycache__``; returns the directory to import from."""
    root = tmp_path / "site"
    shutil.copytree(Path(core.__file__).parent, root / "hcflow",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _fake_cc(directory: Path, body: str) -> Path:
    directory.mkdir()
    cc = directory / "cc"
    cc.write_text("#!/bin/sh\n" + body)
    cc.chmod(0o755)
    return directory


def _python(root: Path, path: list[Path], *argv: str):
    env = dict(os.environ, PYTHONPATH=str(root), PATH=os.pathsep.join(map(str, path)))
    return subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True,
                          text=True, timeout=120)


def _import(root: Path, path: list[Path], mode: str = "as-is") -> dict:
    proc = _python(root, path, "-c", PROBE, mode)
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


def _leftovers(root: Path) -> list[str]:
    """Every file of the copy's ``__pycache__`` except bytecode."""
    cache = root / "hcflow" / "__pycache__"
    return sorted(p.name for p in cache.iterdir() if p.suffix != ".pyc") if cache.exists() else []


def test_without_cc_the_python_lane_runs_silently(tmp_path, capsys):
    root, empty = _package(tmp_path), tmp_path / "bin"
    empty.mkdir()
    proc = _python(root, [empty], "-m", "hcflow.cli", "list")
    assert cli.main(["list"]) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")
    assert _import(root, [empty]) == {"compiled": False, "library": None, "started": 0}
    assert _leftovers(root) == []


def test_a_failing_compiler_leaves_no_file(tmp_path):
    # the fake cc writes the start of a library where -o points, then fails: no part of it is
    # left, only the file of its status, which stops later imports from starting it again
    fake = _fake_cc(tmp_path / "fake", 'while [ $# -gt 0 ]; do\n'
                    '  if [ "$1" = -o ]; then printf "\\177ELF half" > "$2"; fi\n'
                    '  shift\ndone\nexit 1\n')
    root = _package(tmp_path)
    python_lane = {"compiled": False, "library": None, "started": 1}
    assert _import(root, [fake]) == python_lane
    [failed] = _leftovers(root)
    assert failed == f"_core_c-{core._digest()}.failed"
    assert (root / "hcflow" / "__pycache__" / failed).read_text().endswith(" failed: 1\n")
    assert _import(root, [fake]) == dict(python_lane, started=0)
    (root / "hcflow" / "__pycache__" / failed).unlink()  # deleting it tries the build again
    assert _import(root, [fake]) == python_lane
    assert _leftovers(root) == [failed]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_a_changed_source_byte_builds_a_new_library(tmp_path):
    root, path = _package(tmp_path), os.environ["PATH"].split(os.pathsep)
    first = _import(root, path)
    assert first["compiled"] and first["started"] == 1
    assert _import(root, path) == dict(first, started=0)  # later imports start no compiler
    source = root / "hcflow" / "_core_c.c"
    text = source.read_bytes()
    assert text.startswith(b"/* Compiled")
    source.write_bytes(b"/* compiled" + text[len(b"/* Compiled"):])
    second = _import(root, path)
    assert second["compiled"] and second["started"] == 1
    assert second["library"] != first["library"]
    names = [Path(second["library"]).name, Path(first["library"]).name]
    assert _leftovers(root) == sorted(names)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_an_edit_to_core_py_builds_a_library_that_follows_it(tmp_path):
    # each build renders the C kernels and constants from _core_py, whose bytes the digest
    # covers: a changed step-control constant builds a new library that takes the new steps
    root, path = _package(tmp_path), os.environ["PATH"].split(os.pathsep)
    first = _import(root, path)
    flows = [json.loads(_python(root, path, "-c", FLOW).stdout)]
    module = root / "hcflow" / "_core_py.py"
    text = module.read_text()
    assert text.count("\n_SAFETY = 0.9\n") == 1
    module.write_text(text.replace("\n_SAFETY = 0.9\n", "\n_SAFETY = 0.8\n"))
    # the edit keeps the file's size and maybe its mtime second, by which bytecode is checked
    for stale in (root / "hcflow" / "__pycache__").glob("_core_py.*.pyc"):
        stale.unlink()
    second = _import(root, path)
    assert second["compiled"] and second["started"] == 1
    assert second["library"] != first["library"]
    flows.append(json.loads(_python(root, path, "-c", FLOW).stdout))
    for c_lane, python_lane in flows:
        assert c_lane == python_lane
    assert flows[0][0]["steps"] != flows[1][0]["steps"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_a_stray_header_beside_the_source_is_not_compiled(tmp_path):
    # the digest does not cover a file beside _core_c.c, so the build must not read one
    root = _package(tmp_path)
    (root / "hcflow" / "_core_kernels.h").write_text("#error stray header\n")
    probe = _import(root, os.environ["PATH"].split(os.pathsep))
    assert probe["compiled"] and probe["started"] == 1


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_the_generated_c_compiles_without_warnings(tmp_path):
    # the loop and the kernels that _core_gen renders, built as core.build builds them
    core.write_kernels(str(tmp_path))
    cmd = ["cc", *core.CFLAGS, "-Wall", "-Wextra", "-Werror", "-I", str(tmp_path),
           "-o", str(tmp_path / "_core_c.so"), core.SOURCE, *core.SHARED]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="drops a Linux capability")
def test_a_read_only_pycache_starts_no_compiler(tmp_path):
    root = _package(tmp_path)
    cache = root / "hcflow" / "__pycache__"
    cache.mkdir(mode=0o555)
    try:
        probe = _import(root, os.environ["PATH"].split(os.pathsep), "unprivileged")
    finally:
        cache.chmod(0o755)
    assert probe == {"compiled": False, "library": None, "started": 0}
    assert _leftovers(root) == []


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
def test_a_compiler_that_outlasts_the_timeout_is_killed_with_its_children(tmp_path, monkeypatch):
    # the fake cc starts a child that sleeps, records both process ids and waits for the child
    pids = tmp_path / "pids"
    fake = _fake_cc(tmp_path / "fake", f'"{sys.executable}" -c "import time; time.sleep(60)" &\n'
                                       f'echo $$ $! > "{pids}"\nwait\n')
    monkeypatch.setenv("PATH", str(fake))
    monkeypatch.setattr(core, "BUILD_TIMEOUT_S", 1.0)
    out = tmp_path / "out"
    t0 = time.monotonic()
    with pytest.raises(OSError, match="still running after 1.0 s"):
        core.build(str(out / "_core_c.so"))
    assert time.monotonic() - t0 < 30
    assert list(out.iterdir()) == []
    started = [int(pid) for pid in pids.read_text().split()]
    deadline = time.monotonic() + 10
    while any(map(_running, started)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert len(started) == 2 and not any(map(_running, started))


def test_pyproject_ships_the_c_sources_and_reads_the_version(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" in doc["project"]["dynamic"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "hcflow.__version__"}
    # the package ships what core.build compiles: its source, which includes the one header
    # that build writes
    source = Path(core.SOURCE)
    assert doc["tool"]["setuptools"]["package-data"]["hcflow"] == [source.name]
    includes = [line.split()[1].strip('<>"') for line in source.read_text().splitlines()
                if line.startswith("#include")]
    core.write_kernels(str(tmp_path))
    [header] = [p.name for p in tmp_path.iterdir()]
    assert header in includes and not (source.parent / header).exists()
