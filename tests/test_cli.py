import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hcflow import cli, core
from hcflow.cli import ConfigError, _sweep_worker, main, parse_config
from hcflow.geometry import PARAMETERS, Geometry, param_names
from hcflow.integrate import MAX_SAMPLES


def run_cli(*argv):
    return main(list(argv))


def write_config(path: Path, **overrides) -> Path:
    doc = {
        "schema_version": 1,
        "geometry": "hopf",
        "params": {"lambda": 0.0},
        "g0": {"x": 1.0, "y": 1.5, "z_re": 0.0, "z_im": 0.0},
        "t_max": 10.0,
        "sample_stride": 0.05,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def test_list_table(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 10  # header + 9 rows


def test_list_json_single_geometry(capsys):
    assert run_cli("list", "--json", "--geometry", "hopf") == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 1
    assert doc[0]["expected_outcome"] == "extinct"


def test_run_hopf_from_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    code = run_cli("run", "--config", str(cfg), "--out", str(out))
    assert code == 0
    outcome = json.loads((out / "outcome.json").read_text())
    assert outcome["class"] == "extinct"
    assert outcome["t_est"] == pytest.approx(2.25, abs=1e-3)
    header = (out / "trajectory.csv").read_text().split("\n", 1)[0]
    assert header == "t,x,y,z_re,z_im,D,u,xdot,ydot"
    analysis = json.loads((out / "analysis.json").read_text())
    assert analysis["classification"]["kind"] == "finite-time-collapse"


def test_run_outputs_are_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run_cli("run", "--config", str(cfg), "--out", str(out),
                       "--emit", "trajectory-csv,outcome-json,analysis-json,plot-data") == 0
        payloads.append(tuple((out / name).read_bytes() for name in
                              ("trajectory.csv", "outcome.json", "analysis.json",
                               "plot_data.csv")))
    assert payloads[0] == payloads[1]


def test_run_inline_flags_torus(tmp_path, capsys):
    out = tmp_path / "out"
    # immortal run much shorter than the classification window: exit code 2
    code = run_cli("run", "--geometry", "torus", "--x0", "1", "--y0", "1",
                   "--t-max", "5", "--sample-stride", "1", "--out", str(out))
    assert code == 2
    traj = (out / "trajectory.csv").read_text().strip().split("\n")
    first = traj[1].split(",")
    last = traj[-1].split(",")
    assert first[1:] == last[1:]   # stationary flow


def test_run_inoue_circle_classification(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("run", "--geometry", "inoue-s0", "--a", "1", "--b", "2",
                   "--x0", "1", "--y0", "1", "--z0-re", "0.3", "--z0-im", "0.2",
                   "--t-max", "1000", "--sample-stride", "1", "--out", str(out))
    assert code == 0
    analysis = json.loads((out / "analysis.json").read_text())
    cls = analysis["classification"]
    assert cls["kind"] == "circle"
    assert cls["circle_length"] == pytest.approx(2 * 2 ** 0.5, rel=0.02)
    assert analysis["monotonicity"]["passed"]
    assert analysis["udot_consistency"]["passed"]


def test_run_rejects_unknown_config_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    doc = json.loads(cfg.read_text())
    doc["t_maximum"] = 4
    cfg.write_text(json.dumps(doc))
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "t_maximum" in capsys.readouterr().err


def test_run_rejects_bad_param_value(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", geometry="inoue-s0",
                       params={"a": 0.0, "b": 1.0})
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "params" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, field", [
    ({"t_max": float("nan")}, "$.t_max"),
    ({"params": {"lambda": float("nan")}}, "$.params.lambda"),
    ({"g0": {"x": float("nan"), "y": 1.5}}, "$.g0.x"),
    ({"sample_stride": float("inf")}, "$.sample_stride"),
    ({"t_max": 10**400}, "$.t_max"),  # an integer beyond the float range
])
def test_run_rejects_non_finite_numbers(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    assert f"config error at {field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_flag_rejects_non_finite_t_max(tmp_path, capsys):
    code = run_cli("run", "--geometry", "torus", "--t-max", "nan",
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert "t_max" in capsys.readouterr().err


@pytest.mark.parametrize("flags, name", [
    (("--geometry", "hopf", "--lambda", "nan"), "lambda"),
    (("--geometry", "torus", "--x0", "nan"), "x0"),
])
def test_run_flag_rejects_non_finite_values(tmp_path, capsys, flags, name):
    code = run_cli("run", *flags, "--out", str(tmp_path / "o"))
    assert code == 1
    assert f"error: {name} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_rejects_oversized_sample_count(tmp_path, capsys):
    code = run_cli("run", "--geometry", "torus", "--t-max", "1e6", "--sample-stride", "1e-3",
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert f"cap of {MAX_SAMPLES} samples" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [
    ("--geometry", "torus", "--t-max", "abc"),
    ("--geometry", "torus", "--theta", "0.1"),   # the threshold option is gone
])
def test_run_usage_error_exits_1(tmp_path, capsys, flags):
    # argparse's own exit code 2 would read as "unclassified"
    assert run_cli("run", *flags, "--out", str(tmp_path / "o")) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert run_cli("run", "--help") == 0


def test_run_overflow_is_integrator_failure(tmp_path, capsys):
    # x**4 in the Hopf closed form overflows; that is a failed run, not a crash
    out = tmp_path / "o"
    code = run_cli("run", "--geometry", "hopf", "--lambda", "0.5", "--x0", "1e100",
                   "--out", str(out))
    assert code == 3
    outcome = json.loads((out / "outcome.json").read_text())
    assert outcome["class"] == "integrator-failure"
    assert "OverflowError" in outcome["diagnostics"]
    assert json.loads((out / "analysis.json").read_text())["clean"] is False
    assert "Traceback" not in capsys.readouterr().err


def test_run_division_by_zero_is_integrator_failure(tmp_path, capsys):
    # under a tiny threshold the collapse bisection lands on D = 0 exactly, where
    # the tail row's closed form divides by D**2: a failed run, not a crash
    out = tmp_path / "o"
    code = run_cli("run", "--geometry", "hopf", "--lambda", "0.7", "--x0", "2", "--y0", "0.7",
                   "--t-max", "50", "--degeneracy-threshold", "1e-60", "--out", str(out))
    assert code == 3
    outcome = json.loads((out / "outcome.json").read_text())
    assert outcome["class"] == "integrator-failure"
    assert outcome["diagnostics"] == "ZeroDivisionError: float division by zero"
    assert "Traceback" not in capsys.readouterr().err


def test_run_huge_metric_fails_its_bound_without_a_traceback(tmp_path):
    # D0**2 overflows; the bound is inf, so its check fails and reads null in analysis.json
    proc = subprocess.run(
        [sys.executable, "-m", "hcflow.cli", "run", "--geometry", "kodaira-primary",
         "--x0", "1e300", "--y0", "1", "--z0-re", "0.5", "--z0-im", "0", "--t-max", "10",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 2 and proc.stderr == ""
    text = (tmp_path / "o" / "analysis.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    monotonicity = json.loads(text)["monotonicity"]
    bound = next(c for c in monotonicity["checks"] if c["condition"].startswith("D(t) <="))
    assert bound == {"condition": bound["condition"], "passed": False,
                     "worst": None, "allowed": None}
    assert monotonicity["passed"] is False


def test_frozen_huge_metric_run_is_not_clean(tmp_path):
    # d*d overflows, so every K component is 0 and the flow never moves; the
    # frozen run is classified a point but fails its explicit bounds
    cfg = write_config(tmp_path / "base.json", geometry="kodaira-primary", params={},
                       g0={"x": 1e300, "y": 1.0, "z_re": 0.5, "z_im": 0.0}, t_max=1000.0)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    report = json.loads((tmp_path / "o" / "analysis.json").read_text())
    assert report["classification"]["kind"] == "point"
    assert report["monotonicity"]["passed"] is False
    assert report["clean"] is False
    (tmp_path / "grid.json").write_text(json.dumps({"points": [{}]}))
    assert run_cli("sweep", "--config", str(cfg), "--grid", str(tmp_path / "grid.json"),
                   "--out", str(tmp_path / "sweep"), "--workers", "1",
                   "--emit", "outcome-json") == 0
    with open(tmp_path / "sweep" / "summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["classification"], row["exit_code"], row["status"]) == ("point", "2", "ok")


# SHA-256 (first 16 hex digits) of trajectory.csv and plot_data.csv, equal to
# those of per-cell %.17g formatting: zero cells (torus), u from O(1) through
# 3-digit exponents with per-cell fallback below 1e-275 down to 3.5e-308, then
# z = u = 0 once u leaves float64's normal range (hyperelliptic to t = 1000),
# the extinct tail row (Hopf) and 3-digit exponents with per-cell fallback
# (the frozen 1e300 Kodaira metric)
PINNED_CSV = {
    "torus": (["--geometry", "torus", "--x0", "1", "--y0", "2", "--z0-re", "0.1",
               "--z0-im", "0", "--t-max", "1000"], "326741acdedae4ef", "ac978c0130b2326d"),
    "hyperelliptic-t1000": (["--geometry", "hyperelliptic", "--x0", "1", "--y0", "2",
                             "--z0-re", "0.3", "--z0-im", "0.2", "--t-max", "1000"],
                            "3ca0963437069b89", "ccb7a3523425cce9"),
    "hopf-collapse": (["--geometry", "hopf", "--lambda", "0.7", "--x0", "2", "--y0", "0.7",
                       "--z0-re", "0.5", "--z0-im", "-0.3", "--t-max", "50"],
                      "a3012d27f3c95a47", "0db63e84c109072f"),
    "kodaira-frozen-1e300": (["--geometry", "kodaira-primary", "--x0", "1e300", "--y0", "1",
                              "--z0-re", "0.5", "--z0-im", "0", "--t-max", "1000"],
                             "2dd81397a6b029fc", "d9ad92f1c95f88ae"),
}


@pytest.mark.parametrize("argv, trajectory, plot_data", PINNED_CSV.values(),
                         ids=PINNED_CSV.keys())
def test_csv_bytes_pinned(tmp_path, argv, trajectory, plot_data):
    run_cli("run", *argv, "--out", str(tmp_path), "--emit", "trajectory-csv,plot-data")
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
               for name in ("trajectory.csv", "plot_data.csv")]
    assert digests == [trajectory, plot_data]


_G0_T1000 = ["--x0", "1", "--y0", "2", "--z0-re", "0.3", "--z0-im", "0.2", "--t-max", "1000"]
# SHA-256 (first 16 hex digits) of outcome.json and analysis.json for one run of
# each catalog entry: the immortal ones to t = 1000, Hopf to its collapse; each
# analysis.json holds the entry's monotonicity checks and explicit bounds, and
# the circle, Kaehler-Einstein and hyperelliptic ones their references
PINNED_JSON = {
    "torus": (["--geometry", "torus", *_G0_T1000], "6c99e71b2f1c3f5d", "961f59973cee1799"),
    "hyperelliptic": (["--geometry", "hyperelliptic", *_G0_T1000],
                      "3321970e560a45bd", "de9c5b50037310b9"),
    "hopf": (PINNED_CSV["hopf-collapse"][0], "ba4cc0f5a38c229b", "cacdbc6d3f9046be"),
    "properly-elliptic": (["--geometry", "properly-elliptic", "--lambda", "0.5", *_G0_T1000],
                          "01b2c693e9e1a8e8", "4591bbc1463cc8e5"),
    "kodaira-primary": (["--geometry", "kodaira-primary", *_G0_T1000],
                        "53b69b38c0a8fdfa", "380d8cfc03744500"),
    "kodaira-secondary": (["--geometry", "kodaira-secondary", "--epsilon", "-1", *_G0_T1000],
                          "a1dfa7d02108d5e1", "1685138046b6e858"),
    "inoue-s0": (["--geometry", "inoue-s0", "--a", "-0.8", "--b", "0.5", *_G0_T1000],
                 "9fb1f42d8dc0d200", "449db2f2b58a5ccd"),
    "inoue-spm-j1": (["--geometry", "inoue-spm-j1", *_G0_T1000],
                     "c914b34d1b84531c", "b4ebdbc16ec792bf"),
    "inoue-sp-j2": (["--geometry", "inoue-sp-j2", *_G0_T1000],
                    "e1f3d3f652ac8a54", "2d2f1cb09c2f08e6"),
}


@pytest.mark.parametrize("argv, outcome, analysis", PINNED_JSON.values(),
                         ids=PINNED_JSON.keys())
def test_json_bytes_pinned(tmp_path, monkeypatch, argv, outcome, analysis):
    # stats.compiled_core names the lane, whose bits are otherwise the same
    monkeypatch.setattr(core, "COMPILED", False)
    assert run_cli("run", *argv, "--out", str(tmp_path),
                   "--emit", "outcome-json,analysis-json") == 0
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
               for name in ("outcome.json", "analysis.json")]
    assert digests == [outcome, analysis]


@pytest.mark.parametrize("argv, digest", [(["list"], "e85f2e381f856a2d"),
                                          (["list", "--json"], "2eb4772009b52e53")],
                         ids=["table", "json"])
def test_list_output_pinned(capsys, argv, digest):
    assert run_cli(*argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_unusable_out_exits_1_with_one_error_line(tmp_path, capsys, under):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub" if under else blocker)
    assert run_cli("run", "--geometry", "torus", "--t-max", "1", "--out", out) == 1
    cfg = write_config(tmp_path / "base.json")
    (tmp_path / "grid.json").write_text(json.dumps({"points": [{}]}))
    assert run_cli("sweep", "--config", str(cfg), "--grid", str(tmp_path / "grid.json"),
                   "--out", out, "--workers", "1") == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()  # one line from run, one from sweep
    assert len(lines) == 2
    assert all(line.startswith(f"error: cannot write --out {out}: ") for line in lines)
    assert captured.out == ""


def test_atomic_write_removes_its_temporary_file_on_failure(tmp_path):
    with pytest.raises(UnicodeEncodeError):  # the write itself fails
        cli._atomic_write(tmp_path / "a.csv", "\ud800")
    (tmp_path / "b.csv").mkdir()  # os.replace onto a directory fails
    with pytest.raises(OSError):
        cli._atomic_write(tmp_path / "b.csv", "text")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv"]


@pytest.mark.parametrize("argv, named", [
    (("--geometry", "hopf"), "hopf requires parameter --lambda"),
    (("--geometry", "torus", "--lambda", "1"), "torus does not take parameter --lambda"),
    (("--geometry", "inoue-s0", "--a", "1"), "inoue-s0 requires parameter --b"),
    (("--geometry", "inoue-s0", "--a", "0", "--b", "1"),
     "inoue-s0 parameter a must be real, nonzero, got 0.0"),
    (("--geometry", "kodaira-secondary", "--epsilon", "2"),
     "kodaira-secondary parameter epsilon must be +1 or -1, got 2"),
])
def test_run_flag_names_missing_parameter_as_typed(tmp_path, capsys, argv, named):
    assert run_cli("run", *argv, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"error: {named}\n"


def test_config_names_missing_parameter_as_written(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", params={})
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == (
        "error: config error at $.params: hopf requires parameter 'lambda'\n")


@pytest.mark.parametrize("argv", [
    ("verify", "--all", "--samples", "-3"),
    ("verify", "--all", "--samples", "1", "--seed", "-1"),
    ("verify", "--geometry", "nope"),
    ("verify", "--all", "--geometry", "hopf"),
    ("list", "--geometry", "nope"),
])
def test_bad_verify_and_list_input_exits_1_with_one_error_line(capsys, argv):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_parse_config_error_paths():
    with pytest.raises(ConfigError, match=r"\$\.schema_version"):
        parse_config({"schema_version": 99})
    with pytest.raises(ConfigError, match=r"\$\.geometry"):
        parse_config({"schema_version": 1, "geometry": "klein-bottle",
                      "g0": {"x": 1, "y": 1}, "t_max": 1})
    with pytest.raises(ConfigError, match=r"\$\.g0\.w"):
        parse_config({"schema_version": 1, "geometry": "torus",
                      "g0": {"x": 1, "y": 1, "w": 0}, "t_max": 1})
    with pytest.raises(ConfigError, match=r"\$\.params\.q"):
        parse_config({"schema_version": 1, "geometry": "hopf",
                      "params": {"q": 1}, "g0": {"x": 1, "y": 1}, "t_max": 1})


def test_parse_config_rejects_wrong_types():
    with pytest.raises(ConfigError, match=r"\$\.t_max"):
        parse_config({"schema_version": 1, "geometry": "torus",
                      "g0": {"x": 1, "y": 1}, "t_max": "soon"})
    with pytest.raises(ConfigError, match=r"\$\.params\.epsilon"):
        parse_config({"schema_version": 1, "geometry": "kodaira-secondary",
                      "params": {"epsilon": 1.5}, "g0": {"x": 1, "y": 1},
                      "t_max": 1})


def test_verify_cli_single_geometry(capsys):
    assert run_cli("verify", "--geometry", "torus", "--samples", "10",
                   "--seed", "7") == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_cli_appendix_reports_but_passes(capsys):
    assert run_cli("verify", "--geometry", "hopf", "--samples", "10",
                   "--seed", "7", "--appendix") == 0
    out = capsys.readouterr().out
    assert "Q1" in out and "differs" in out


def test_verify_cli_json_deterministic(capsys):
    assert run_cli("verify", "--all", "--samples", "5", "--seed", "3", "--json") == 0
    first = capsys.readouterr().out
    assert run_cli("verify", "--all", "--samples", "5", "--seed", "3", "--json") == 0
    second = capsys.readouterr().out
    assert first == second
    assert "elapsed_seconds" not in json.loads(first)


def test_sweep_hopf_grid(tmp_path, capsys):
    cfg = write_config(tmp_path / "base.json", t_max=30.0, sample_stride=0.5)
    # extinction on the invariant ray: t_est = (9/4) c x0 with y0 = (3/2) c x0
    grid = {"points": [
        {"params.lambda": 0.0, "g0.y": 1.5},
        {"params.lambda": 0.5, "g0.y": 1.875},
        {"params.lambda": 1.0, "g0.y": 3.0},
    ]}
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--config", str(cfg), "--grid",
                   str(tmp_path / "grid.json"), "--out", str(out), "--workers", "1")
    assert code == 0
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert len(lines) == 4
    header = lines[0].split(",")
    t_col = header.index("t_est")
    t_values = [float(line.split(",")[t_col]) for line in lines[1:]]
    expected = [2.25, 2.8125, 4.5]
    for got, want in zip(t_values, expected):
        assert got == pytest.approx(want, abs=2e-3)
    for i in range(3):
        assert (out / f"run_{i:04d}" / "outcome.json").exists()


def test_sweep_inoue_growth_column(tmp_path):
    cfg = write_config(tmp_path / "base.json", geometry="inoue-s0",
                       params={"a": 1.0, "b": 2.0},
                       g0={"x": 1.0, "y": 1.0, "z_re": 0.3, "z_im": 0.2},
                       t_max=500.0, sample_stride=0.5)
    grid = {"points": [{"params.a": a} for a in (0.5, 1.0, 2.0)]}
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", str(cfg), "--grid",
                   str(tmp_path / "grid.json"), "--out", str(out),
                   "--workers", "1", "--emit", "outcome-json") == 0
    lines = (out / "summary.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    s_col = header.index("slope_y")
    slopes = [float(line.split(",")[s_col]) for line in lines[1:]]
    for got, want in zip(slopes, (2.0, 8.0, 32.0)):
        assert got == pytest.approx(want, rel=0.02)


def test_sweep_empty_grid(tmp_path):
    cfg = write_config(tmp_path / "base.json")
    (tmp_path / "grid.json").write_text(json.dumps({"points": []}))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", str(cfg), "--grid",
                   str(tmp_path / "grid.json"), "--out", str(out)) == 0
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert len(lines) == 1  # header only


def test_sweep_product_grid(tmp_path):
    cfg = write_config(tmp_path / "base.json", geometry="torus", params={},
                       t_max=1.0, sample_stride=0.5)
    (tmp_path / "grid.json").write_text(json.dumps(
        {"product": {"g0.x": [1.0, 2.0], "g0.y": [1.0, 3.0]}}))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", str(cfg), "--grid",
                   str(tmp_path / "grid.json"), "--out", str(out),
                   "--workers", "2") == 0
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert len(lines) == 5


def test_sweep_rejects_oversized_integer(tmp_path, capsys):
    # json.loads raises a plain ValueError for integers beyond 4300 digits
    cfg = tmp_path / "base.json"
    cfg.write_text(write_config(tmp_path / "ok.json").read_text().replace(
        '"t_max": 10.0', '"t_max": 1' + "0" * 5000))
    (tmp_path / "grid.json").write_text(json.dumps({"points": [{}]}))
    code = run_cli("sweep", "--config", str(cfg), "--grid", str(tmp_path / "grid.json"),
                   "--out", str(tmp_path / "sweep"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_run_rejects_oversized_integer(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(write_config(tmp_path / "ok.json").read_text().replace(
        '"t_max": 10.0', '"t_max": 1' + "0" * 5000))
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config error at $: ")
    assert not (tmp_path / "o").exists()


def test_run_missing_config_exits_1(tmp_path, capsys):
    code = run_cli("run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config error at $: cannot read the config: ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def _worker_dies_on_point_1(item):
    if item[0] == 1:
        os._exit(1)
    return _sweep_worker(item)


def test_sweep_survives_a_dead_worker(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_sweep_worker", _worker_dies_on_point_1)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a real pool even on one CPU
    cfg = write_config(tmp_path / "base.json", geometry="torus", params={},
                       t_max=1.0, sample_stride=0.5)
    (tmp_path / "grid.json").write_text(json.dumps({"points": [{"g0.x": x} for x in (1, 2, 3)]}))
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--config", str(cfg), "--grid", str(tmp_path / "grid.json"),
                   "--out", str(out), "--workers", "2")
    assert code == cli.EXIT_WORKER_DIED
    err = capsys.readouterr().err
    assert err.startswith("error: a sweep worker process died; ") and "Traceback" not in err
    lines = (out / "summary.csv").read_text().strip().split("\n")
    status = [line.split(",")[-1] for line in lines[1:]]
    assert len(status) == 3 and status[1] == cli.SWEEP_WORKER_DIED
    assert set(status) <= {"ok", cli.SWEEP_WORKER_DIED}


def test_sweep_summary_is_quoted_csv(tmp_path):
    cfg = write_config(tmp_path / "base.json", geometry="torus", params={},
                       t_max=1.0, sample_stride=0.5)
    (tmp_path / "grid.json").write_text(json.dumps({"points": [{"g0.x": "abc"}, {"g0.x": 2.0}]}))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", str(cfg), "--grid", str(tmp_path / "grid.json"),
                   "--out", str(out), "--workers", "1") == 0
    with open(out / "summary.csv", newline="") as f:
        header, *rows = list(csv.reader(f))
    assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
    first, second = (dict(zip(header, row)) for row in rows)
    assert first["g0.x"] == "abc"
    assert first["status"] == "error: config error at $.g0.x: expected a number, got 'abc'"
    assert second["g0.x"] == "2" and second["status"] == "ok"


def test_sweep_writes_one_column_per_name(tmp_path):
    # an override named like a result column fills it only where the run gave no value
    cfg = write_config(tmp_path / "base.json", t_max=1.0, sample_stride=0.5)
    grid = {"points": [{"geometry": "torus", "params": {}}, {}, {"geometry": "nowhere"}]}
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", str(cfg), "--grid", str(tmp_path / "grid.json"),
                   "--out", str(out), "--workers", "1") == 0
    with open(out / "summary.csv", newline="") as f:
        header, *rows = list(csv.reader(f))
    assert len(header) == len(set(header)) and header[-1] == "status"
    torus, hopf, unknown = (dict(zip(header, row)) for row in rows)
    assert torus["geometry"] == "torus" and torus["params"] == "{}" and torus["status"] == "ok"
    assert hopf["geometry"] == "hopf" and hopf["params"] == "" and hopf["status"] == "ok"
    assert unknown["geometry"] == "nowhere" and unknown["status"].startswith("error: ")


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs each submit inline."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = cli.concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("workers, points, size", [
    (64, 2, 2), (64, 5, 3), (2, 5, 2), (1, 5, None), (8, 1, None)])
def test_sweep_pool_is_bounded_by_points_and_cpus(tmp_path, monkeypatch, workers, points, size):
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    cfg = write_config(tmp_path / "base.json", geometry="torus", params={},
                       t_max=1.0, sample_stride=0.5)
    (tmp_path / "grid.json").write_text(json.dumps(
        {"points": [{"g0.x": 1.0 + i} for i in range(points)]}))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", str(cfg), "--grid", str(tmp_path / "grid.json"),
                   "--out", str(out), "--workers", str(workers),
                   "--emit", "outcome-json") == 0
    assert _InlinePool.sizes == ([] if size is None else [size])
    with open(out / "summary.csv", newline="") as f:
        header, *rows = list(csv.reader(f))
    assert [row[-1] for row in rows] == ["ok"] * points


@pytest.mark.parametrize("base, grid, extra, named", [
    ([1, 2], {"points": [{}]}, (), "$: the base config must be a JSON object"),
    (None, ["points"], (), "$: the grid must be a JSON object"),
    ({"g0": 5}, {"points": [{"g0.x": 2}]}, (), "$.g0: the override 'g0.x' needs an object"),
    (None, {"points": [{}]}, ("--emit", "trajectory"), "unknown --emit target 'trajectory'"),
    (None, {"points": [{}]}, ("--workers", "0"), "--workers must be >= 1, got 0"),
    (None, {"points": [{}]}, ("--workers", "-3"), "--workers must be >= 1, got -3"),
    (None, {"points": {"g0.x": 2}}, (), "$.points: expected a list of override objects"),
    (None, {"product": [1]}, (), "$.product: expected an object of path -> values"),
    (None, {"product": {"g0.x": 2}}, (), "$.product.g0.x: expected a list of values"),
    (None, {"pts": []}, (), "$: grid needs a 'points' list or a 'product' object"),
], ids=["array-config", "array-grid", "override-through-number", "emit", "workers-0",
        "workers-negative", "points-not-list", "product-not-object", "product-value-not-list",
        "no-points-or-product"])
def test_sweep_rejects_malformed_input(tmp_path, capsys, base, grid, extra, named):
    cfg = write_config(tmp_path / "base.json")
    if base is not None:
        doc = json.loads(cfg.read_text())
        cfg.write_text(json.dumps(dict(doc, **base) if isinstance(base, dict) else base))
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", str(cfg), "--grid", str(tmp_path / "grid.json"),
                   "--out", str(out), *extra) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0], captured.err
    assert captured.out == "" and not out.exists()


def test_run_rejects_unknown_emit_target_naming_the_flag(tmp_path, capsys):
    assert run_cli("run", "--geometry", "torus", "--t-max", "1", "--emit", "trajectory",
                   "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == "error: unknown --emit target 'trajectory'\n"
    assert not (tmp_path / "o").exists()


def test_run_non_finite_trajectory_writes_nothing_to_stderr(tmp_path):
    # x0 = 1e200 overflows the closed form to NaN rows; the outcome says so, numpy must not
    proc = subprocess.run(
        [sys.executable, "-m", "hcflow.cli", "run", "--geometry", "hyperelliptic",
         "--x0", "1e200", "--y0", "1", "--z0-re", "0.5", "--z0-im", "0", "--t-max", "10",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 3 and proc.stderr == ""
    outcome = json.loads((tmp_path / "o" / "outcome.json").read_text())
    assert outcome["class"] == "integrator-failure"


@pytest.mark.parametrize("argv", [
    ("--geometry", "hopf", "--lambda", "1e200"),
    ("--geometry", "properly-elliptic", "--lambda", "1e160"),
    ("--geometry", "inoue-s0", "--a", "1e200", "--b", "0"),
    ("--geometry", "inoue-s0", "--a", "1", "--b", "1e200"),
    ("--geometry", "hopf", "--lambda", "1e200", "--engine", "general-contraction"),
], ids=["hopf", "properly-elliptic", "inoue-s0-a", "inoue-s0-b", "hopf-general-contraction"])
def test_run_huge_parameter_is_integrator_failure(tmp_path, argv):
    # lam**2 or a**2 overflows; the u-law takes the kernels' inf rather than raising,
    # and the contraction engine's overflow to NaN fails its steps without a warning
    proc = subprocess.run(
        [sys.executable, "-m", "hcflow.cli", "run", *argv, "--t-max", "10",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 3 and proc.stderr == ""
    outcome = json.loads((tmp_path / "o" / "outcome.json").read_text())
    assert outcome["class"] == "integrator-failure"


def test_run_rejects_a_default_stride_that_underflows(tmp_path, capsys):
    # t_max / 1000 is 0.0 here, so the sample count would divide by zero
    assert run_cli("run", "--geometry", "torus", "--t-max", "1e-321",
                   "--out", str(tmp_path / "o")) == 1
    cfg = write_config(tmp_path / "cfg.json", t_max=5e-324, sample_stride=None)
    cfg.write_text(cfg.read_text().replace(', "sample_stride": null', ""))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    captured = capsys.readouterr()
    flag, config = captured.err.splitlines()
    assert flag.startswith("error: the default sample_stride t_max / 1000 underflows to 0")
    assert config.startswith("error: config error at $: the default sample_stride")
    assert captured.out == "" and not (tmp_path / "o").exists()


def test_every_listed_parameter_name_is_accepted(capsys):
    assert run_cli("list", "--json") == 0
    for listed in json.loads(capsys.readouterr().out):
        names = [p["name"] for p in listed["params"]]
        config = parse_config({"schema_version": 1, "geometry": listed["id"],
                               "params": dict.fromkeys(names, 1), "g0": {"x": 1, "y": 1},
                               "t_max": 1})
        assert config.params.geometry.value == listed["id"]
        flags = [f"--{name}=1" for name in names]
        args = cli.build_parser().parse_args(
            ["run", "--geometry", listed["id"], *flags, "--out", "unused"])
        assert cli._config_from_args(args).params == config.params


_VALID = {"schema_version": 1, "geometry": "torus", "g0": {"x": 1, "y": 1}, "t_max": 1}


@pytest.mark.parametrize("doc, path", [
    ([_VALID], "$"),
    ({k: v for k, v in _VALID.items() if k != "geometry"}, "$.geometry"),
    ({k: v for k, v in _VALID.items() if k != "g0"}, "$.g0"),
    ({k: v for k, v in _VALID.items() if k != "t_max"}, "$.t_max"),
    (dict(_VALID, params=[]), "$.params"),
    (dict(_VALID, g0=[1, 1]), "$.g0"),
    (dict(_VALID, g0={"y": 1}), "$.g0.x"),
    (dict(_VALID, engine="euler"), "$.engine"),
    (dict(_VALID, rel_tol=2), "$"),  # FlowConfig's own check
], ids=["not-an-object", "no-geometry", "no-g0", "no-t_max", "params-not-object",
        "g0-not-object", "no-g0-x", "bad-engine", "flow-config"])
def test_parse_config_rejection_names_the_field(doc, path):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value).startswith(f"config error at {path}: ")


def test_parse_config_reads_engine_and_integer_epsilon():
    assert parse_config(dict(_VALID, engine="general-contraction")).engine == "general-contraction"
    params = parse_config(dict(_VALID, geometry="kodaira-secondary",
                               params={"epsilon": -1.0})).params
    assert params.epsilon == -1 and type(params.epsilon) is int


def test_run_without_config_or_geometry_exits_1(tmp_path, capsys):
    assert run_cli("run", "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == (
        "error: config error at $: either --config or --geometry is required\n")


def test_run_degenerate_input_exits_1(tmp_path, capsys):
    assert run_cli("run", "--geometry", "torus", "--x0", "-1", "--t-max", "1",
                   "--out", str(tmp_path / "o")) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["outcome"] == "degenerate-input"
    assert captured.err == ("error: --x0, --y0, --z0-re, --z0-im: initial metric not "
                            "positive above the degeneracy threshold: x=-1.0 y=1.0 D=-1.0\n")
    outcome = json.loads((tmp_path / "o" / "outcome.json").read_text())
    assert outcome["class"] == "degenerate-input" and outcome["final_state"] is None
    cfg = write_config(tmp_path / "cfg.json", g0={"x": 1.0, "y": 1.0, "z_re": 1.0})
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "c")) == 1
    assert capsys.readouterr().err.startswith("error: config error at $.g0: initial metric ")



# ---------------------------------------------------------------------------
# fail-closed property: any input runs to an exit code or is rejected, never a traceback
# ---------------------------------------------------------------------------

_WILD = st.sampled_from([0, -0.0, -1, 1.5, 5e-324, 1e-321, 1e-300, 1e160, 1e200, -1e200,
                         float("nan"), float("inf"), 10**400, "1", True, None, [], {},
                         "klein-bottle"])
_PARAM = st.one_of(st.floats(-2, 2), st.sampled_from([1, -1]))
_SIDE = st.floats(0.5, 5)
_Z = st.one_of(st.floats(-0.3, 0.3), st.sampled_from([0.0, -0.0]))
_T_MAX = st.one_of(st.floats(0, 20), st.sampled_from([0, 5e-324, 1e-321, 5, 10]))
_OPTIONS = {
    "rel_tol": st.sampled_from([1e-9, 1e-6, 0.5]),
    "abs_tol": st.sampled_from([1e-12, 1e-30, 0.5]),
    "degeneracy_threshold": st.sampled_from([1e-10, 1e-60]),
    "engine": st.sampled_from(["closed-form", "general-contraction"]),
    "sample_stride": st.floats(0.01, 5),
}
#: config fields a document may have spoiled (set to a _WILD value)
_SPOILABLE = ["schema_version", "geometry", "params", "params.lambda", "params.a",
              "params.epsilon", "params.nu", "g0", "g0.x", "g0.z_im", "g0.w", "t_max",
              "rel_tol", "abs_tol", "degeneracy_threshold", "engine", "sample_stride",
              "nonsense"]
# one_of picks a branch uniformly: two in three documents stay well-formed
_SPOIL = st.one_of(st.none(), st.none(), st.tuples(st.sampled_from(_SPOILABLE), _WILD))


def _param_names(geometry) -> list[str]:
    return [PARAMETERS[name].user_name for name in param_names(geometry)]


@st.composite
def _config_docs(draw):
    """Mostly well-formed run configs, each with at most one field spoiled."""
    geometry = draw(st.sampled_from(list(Geometry)))
    doc = {"schema_version": 1, "geometry": geometry.value,
           "params": {name: draw(_PARAM) for name in _param_names(geometry)},
           "g0": {"x": draw(_SIDE), "y": draw(_SIDE), "z_re": draw(_Z), "z_im": draw(_Z)},
           "t_max": draw(_T_MAX), **draw(st.fixed_dictionaries({}, optional=_OPTIONS))}
    spoil = draw(_SPOIL)
    if spoil is not None:
        cli._apply_override(doc, *spoil)
    return doc


_FLAGS = {
    "--engine": st.sampled_from(["closed-form", "general-contraction"]),
    "--emit": st.sampled_from(["plot-data", "outcome-json,analysis-json"]),
    "--sample-stride": st.sampled_from(["0.5", "0.05"]),
    "--rel-tol": st.sampled_from(["1e-6", "0.5"]),
    "--degeneracy-threshold": st.sampled_from(["1e-10", "1e-60"]),
    "--x0": _SIDE.map(repr),
    "--y0": _SIDE.map(repr),
    "--z0-re": _Z.map(repr),
}
_FLAG_SPOIL = st.one_of(st.none(), st.none(), st.tuples(
    st.sampled_from([*_FLAGS, "--geometry", "--lambda", "--a", "--epsilon", "--t-max",
                     "--bogus"]),
    st.sampled_from(["0", "-1", "1.5", "1e200", "5e-324", "1e-321", "nan", "inf", "-inf",
                     "abc", "", "klein-bottle"])))


@st.composite
def _flag_vectors(draw):
    """`run` flags for a geometry, its parameters, a bounded t_max and some options,
    with at most one flag spoiled."""
    geometry = draw(st.sampled_from(list(Geometry)))
    flags = {"--geometry": geometry.value, "--t-max": repr(draw(_T_MAX)),
             **{f"--{name}": repr(draw(_PARAM)) for name in _param_names(geometry)},
             **draw(st.fixed_dictionaries({}, optional=_FLAGS))}
    spoil = draw(_FLAG_SPOIL)
    if spoil is not None:
        flag, value = spoil
        flags[flag] = value
    return [f"{flag}={value}" for flag, value in flags.items()]


def _main_captured(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_fails_closed(argv, exit_codes, error_start="") -> None:
    """``main(argv)`` exits with one of ``exit_codes``; an exception out of it fails
    the test as a traceback would.  Bad input (exit 1) prints one ``error:``
    line, starting with ``error_start``."""
    code, out, err = _main_captured(argv)
    assert code in exit_codes, (argv, code, err)
    assert "Traceback" not in err
    if code == 1:
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith(error_start), (argv, err)


def _assert_run_fails_closed(argv, error_start="") -> None:
    """`run` fails closed, and a trajectory it writes has at most MAX_SAMPLES
    stride rows besides row 0 and the end point."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        _assert_fails_closed(["run", *argv, "--out", str(out)], (0, 1, 2, 3), error_start)
        if (out / "trajectory.csv").exists():
            with open(out / "trajectory.csv") as f:
                assert sum(1 for _ in f) <= 1 + MAX_SAMPLES + 2, argv  # the header too


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_config_docs())
def test_property_any_config_fails_closed(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        _assert_run_fails_closed(["--config", str(cfg)], "error: config error at $")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_flag_vectors())
def test_property_any_flags_fail_closed(argv):
    _assert_run_fails_closed(argv)


_OVERRIDES = st.dictionaries(st.sampled_from(["t_max", "g0.y", "params.lambda", "g0.x.y"]),
                             st.one_of(st.floats(0.1, 5), _WILD), max_size=2)
_GRIDS = st.one_of(
    st.fixed_dictionaries({"points": st.lists(_OVERRIDES, max_size=3)}),
    st.fixed_dictionaries({"product": st.dictionaries(
        st.sampled_from(["g0.y", "params.lambda", "params"]),
        st.lists(st.one_of(st.floats(0.1, 5), _WILD), max_size=2), max_size=2)}),
    st.sampled_from([{"points": {}}, {"product": []}, {"product": {"t_max": 1}}, {}, []]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_GRIDS)
def test_property_any_sweep_grid_fails_closed(grid):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "base.json", t_max=5.0, sample_stride=0.5)
        (Path(tmp) / "grid.json").write_text(json.dumps(grid))
        _assert_fails_closed(["sweep", "--config", str(cfg), "--grid", str(Path(tmp) / "grid.json"),
                              "--out", str(Path(tmp) / "sweep"), "--workers", "1"], (0, 1))
