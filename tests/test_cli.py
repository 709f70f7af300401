import json
import os
from pathlib import Path

import pytest

from hcflow import cli
from hcflow.cli import ConfigError, _sweep_worker, main, parse_config
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
