"""Smoke test of the benchmark at a tiny size.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once with --trace 1 (which also measures and prints the
end-to-end metrics).  Every metric named in BENCHMARK.json must be printed
with its unit, and every per-layer metric must be in the result line or
reported missing.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = "0.5"


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", TINY_SECONDS,
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1

    printed = {}
    missing = set()
    for line in lines[:-1]:
        if line.startswith("missing per-layer metrics"):
            missing.update(n.strip() for n in line.split(":", 1)[1].split(","))
        fields = line.split()
        if len(fields) == 3:  # the metric table: name, value, unit
            printed[fields[0]] = fields[2]
    for metric in SPEC["end_to_end"]:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name in missing:
            assert name not in result["metrics"]
            continue
        assert printed.get(name) == metric["unit"], name
        assert result["metrics"][name]["unit"] == metric["unit"], name


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                 "--seconds", TINY_SECONDS, "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
