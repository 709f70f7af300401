"""The C loop's build: ``import hcflow`` compiles it once per source digest,
and falls back to the Python lane, silently and leaving no file, wherever it
cannot.

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
    # the fake cc writes the start of a library where -o points, then fails
    fake = _fake_cc(tmp_path / "fake", 'while [ $# -gt 0 ]; do\n'
                    '  if [ "$1" = -o ]; then printf "\\177ELF half" > "$2"; fi\n'
                    '  shift\ndone\nexit 1\n')
    root = _package(tmp_path)
    assert _import(root, [fake]) == {"compiled": False, "library": None, "started": 1}
    assert _leftovers(root) == []


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


def test_pyproject_ships_the_c_sources_and_reads_the_version():
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" in doc["project"]["dynamic"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "hcflow.__version__"}
    # the package ships what core.build compiles: its source and every header that includes
    source = Path(core.SOURCE)
    includes = [line.split('"')[1] for line in source.read_text().splitlines()
                if line.startswith('#include "')]
    assert sorted(doc["tool"]["setuptools"]["package-data"]["hcflow"]) == sorted(
        [source.name, *includes])
    assert all((source.parent / name).is_file() for name in includes)
