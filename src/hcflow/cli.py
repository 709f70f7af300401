"""Command-line interface: run flows, verify tensor identities, sweep grids.

Commands
--------
list    catalog of geometries, parameter schemas and expected labels
run     integrate one flow and write trajectory/outcome/analysis files
verify  engine-vs-closed-form agreement suite (plus report-only table diffs)
sweep   run a grid of configs in parallel and summarize one row per run

Exit codes: run returns 0 on a clean classification, 1 on bad input, 2 when
the run is unclassified or fails a monotonicity check, 3 on integrator
failure; verify returns 0 iff all K agreements pass, else 1, and 1 on bad
input; sweep returns 0 when every point has a row (a point's own failure is
its status cell), 1 on bad input or an unusable --out, and 4 when a worker
process died; list returns 1 on an unknown geometry.  Log verbosity comes
from the HCF_LOG environment variable (debug, info, warning, error).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import io
import json
import logging
import math
import os
import sys
from pathlib import Path

from .catalog import catalog_json
from .geometry import (PARAMETERS, Geometry, GeometryParams, InadmissibleParamsError,
                       param_names)
from .integrate import (ENGINE_CLOSED_FORM, ENGINE_GENERAL, FlowConfig, FlowOutcome,
                        OUTCOME_DEGENERATE_INPUT, OUTCOME_FAILURE, Trajectory,
                        columns_csv, integrate)
from .metric import HermitianMetric
from .report import analysis_report
from .verify import run_verification

log = logging.getLogger("hcflow")

SCHEMA_VERSION = 1
EMIT_CHOICES = ("trajectory-csv", "outcome-json", "analysis-json", "plot-data")
DEFAULT_EMIT = ("trajectory-csv", "outcome-json", "analysis-json")
#: `sweep` status of a point that has no result because a worker process died
SWEEP_WORKER_DIED = "error: worker process died"
EXIT_WORKER_DIED = 4

_OPTIONAL_NUMBERS = ("rel_tol", "abs_tol", "sample_stride", "degeneracy_threshold")
#: JSON config fields (fail-closed: anything else is rejected).
_CONFIG_FIELDS = {"schema_version", "geometry", "params", "g0", "t_max", "engine",
                  *_OPTIONAL_NUMBERS}
_G0_FIELDS = {"x", "y", "z_re", "z_im"}
_PARAM_JSON_NAMES = {p.user_name: name for name, p in PARAMETERS.items()}


class ConfigError(ValueError):
    """Malformed run configuration; carries a pointer to the offending field."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"config error at {path}: {message}")


def parse_config(doc: dict) -> FlowConfig:
    """Validate and convert a config JSON document (fail-closed)."""
    if not isinstance(doc, dict):
        raise ConfigError("$", "expected a JSON object")
    unknown = set(doc) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"$.{sorted(unknown)[0]}", "unknown field")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError("$.schema_version", f"must be {SCHEMA_VERSION}")
    for required in ("geometry", "g0", "t_max"):
        if required not in doc:
            raise ConfigError(f"$.{required}", "missing required field")

    try:
        geometry = Geometry.from_name(str(doc["geometry"]))
    except InadmissibleParamsError as exc:
        raise ConfigError("$.geometry", str(exc)) from None

    raw_params = doc.get("params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("$.params", "expected an object")
    kwargs = {}
    for key, value in raw_params.items():
        if key not in _PARAM_JSON_NAMES:
            raise ConfigError(f"$.params.{key}", "unknown parameter")
        name = _PARAM_JSON_NAMES[key]
        num = _number(f"$.params.{key}", value)
        if PARAMETERS[name].type is int:
            if num != int(num):
                raise ConfigError(f"$.params.{key}", "must be an integer")
            num = int(num)
        kwargs[name] = num
    try:
        params = _geometry_params(geometry, kwargs, "'{}'")
    except InadmissibleParamsError as exc:
        raise ConfigError("$.params", str(exc)) from None

    g0doc = doc["g0"]
    if not isinstance(g0doc, dict):
        raise ConfigError("$.g0", "expected an object")
    unknown = set(g0doc) - _G0_FIELDS
    if unknown:
        raise ConfigError(f"$.g0.{sorted(unknown)[0]}", "unknown field")
    for required in ("x", "y"):
        if required not in g0doc:
            raise ConfigError(f"$.g0.{required}", "missing required field")
    g0 = HermitianMetric(
        _number("$.g0.x", g0doc["x"]), _number("$.g0.y", g0doc["y"]),
        complex(_number("$.g0.z_re", g0doc.get("z_re", 0.0)),
                _number("$.g0.z_im", g0doc.get("z_im", 0.0))))

    t_max = _number("$.t_max", doc["t_max"])
    # only the fields given are passed, so FlowConfig's defaults apply to the rest
    fields = {name: _number(f"$.{name}", doc[name]) for name in _OPTIONAL_NUMBERS
              if name in doc}
    if "engine" in doc:
        fields["engine"] = str(doc["engine"])
        if fields["engine"] not in (ENGINE_CLOSED_FORM, ENGINE_GENERAL):
            raise ConfigError("$.engine",
                              f"must be {ENGINE_CLOSED_FORM!r} or {ENGINE_GENERAL!r}")
    try:
        return FlowConfig(params=params, g0=g0, t_max=t_max, **fields)
    except ValueError as exc:
        raise ConfigError("$", str(exc)) from None


def _geometry_params(geometry: Geometry, kwargs: dict, spelling: str) -> GeometryParams:
    """``GeometryParams(geometry, **kwargs)``; a missing or unused parameter is
    named as the user writes it, ``spelling`` formatted with its user name."""
    used = param_names(geometry)
    for name in (*used, *kwargs):
        if (name in used) != (name in kwargs):
            verb = "requires" if name in used else "does not take"
            raise InadmissibleParamsError(
                f"{geometry.value} {verb} parameter {spelling.format(PARAMETERS[name].user_name)}")
    return GeometryParams(geometry, **kwargs)


def _number(path: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        num = float(value)
    except OverflowError:  # an integer beyond the float range
        num = math.inf
    if not math.isfinite(num):
        raise ConfigError(path, f"expected a finite number, got {num}")
    return num


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _cannot_write(out: str, exc: OSError) -> int:
    print(f"error: cannot write --out {out}: {exc}", file=sys.stderr)
    return 1


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _plot_data_csv(traj: Trajectory) -> str:
    return columns_csv("t,n_x,n_y,n_z_abs", (traj.t, *traj.normalized))


def _parse_emit(text: str | None) -> tuple[str, ...]:
    """The targets of a comma list given to --emit, or the default ones."""
    if not text:
        return DEFAULT_EMIT
    emit = tuple(text.split(","))
    bad = set(emit) - set(EMIT_CHOICES)
    if bad:
        raise ValueError(f"unknown --emit target {sorted(bad)[0]!r}")
    return emit


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_list(args) -> int:
    entries = catalog_json()
    if args.geometry:
        try:
            wanted = Geometry.from_name(args.geometry).value
        except InadmissibleParamsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        entries = [e for e in entries if e["id"] == wanted]
    if args.json:
        print(_dump_json(entries), end="")
        return 0
    widths = (22, 16, 10, 24)
    print(f"{'id':<{widths[0]}} {'group':<{widths[1]}} {'outcome':<{widths[2]}} "
          f"{'limit':<{widths[3]}} params")
    for e in entries:
        pnames = ",".join(p["name"] for p in e["params"]) or "-"
        print(f"{e['id']:<{widths[0]}} {e['group']:<{widths[1]}} "
              f"{e['expected_outcome']:<{widths[2]}} {e['expected_limit']:<{widths[3]}} {pnames}")
    return 0


def _config_from_args(args) -> FlowConfig:
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except OSError as exc:  # a missing or unreadable file
            raise ConfigError("$", f"cannot read the config: {exc}") from None
        except ValueError as exc:  # bad JSON or an integer beyond 4300 digits
            raise ConfigError("$", f"invalid JSON: {exc}") from None
        return parse_config(doc)
    if not args.geometry:
        raise ConfigError("$", "either --config or --geometry is required")
    geometry = Geometry.from_name(args.geometry)
    kwargs = {name: getattr(args, name) for name in PARAMETERS if getattr(args, name) is not None}
    params = _geometry_params(geometry, kwargs, "--{}")
    g0 = HermitianMetric(args.x0, args.y0, complex(args.z0_re, args.z0_im))
    fields = {name: getattr(args, name) for name in (*_OPTIONAL_NUMBERS, "engine")
              if getattr(args, name) is not None}
    return FlowConfig(params=params, g0=g0, t_max=args.t_max, **fields)


def _execute_run(config: FlowConfig, out_dir: Path,
                 emit: tuple[str, ...]) -> tuple[int, dict, FlowOutcome]:
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the flow runs
    traj, outcome = integrate(config)
    report = analysis_report(config, traj, outcome)
    if "trajectory-csv" in emit:
        _atomic_write(out_dir / "trajectory.csv", traj.to_csv())
    if "outcome-json" in emit:
        _atomic_write(out_dir / "outcome.json", _dump_json(outcome.to_json_dict()))
    if "analysis-json" in emit:
        _atomic_write(out_dir / "analysis.json", _dump_json(report))
    if "plot-data" in emit:
        _atomic_write(out_dir / "plot_data.csv", _plot_data_csv(traj))

    if outcome.outcome_class == OUTCOME_DEGENERATE_INPUT:
        return 1, report, outcome
    if outcome.outcome_class == OUTCOME_FAILURE:
        return 3, report, outcome
    if not report["clean"]:
        return 2, report, outcome
    return 0, report, outcome


def cmd_run(args) -> int:
    try:
        config = _config_from_args(args)
        emit = _parse_emit(args.emit)
    except ValueError as exc:  # also ConfigError and InadmissibleParamsError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        code, report, outcome = _execute_run(config, Path(args.out), emit)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    if outcome.outcome_class == OUTCOME_DEGENERATE_INPUT:
        where = "config error at $.g0" if args.config else "--x0, --y0, --z0-re, --z0-im"
        print(f"error: {where}: {outcome.diagnostics}", file=sys.stderr)
    cls = report["classification"]
    summary = {"outcome": report["outcome_class"], "classification": cls["kind"]}
    if "circle_length" in cls:
        summary["circle_length"] = cls["circle_length"]
    if report["outcome_class"] == "extinct":
        summary["t_est"] = report["classification"].get("collapse_time")
    print(_dump_json(summary), end="")
    return code


def cmd_verify(args) -> int:
    geometries = None
    try:
        if args.samples < 0:
            raise ValueError(f"--samples must be >= 0, got {args.samples}")
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        if args.all and args.geometry:
            raise ValueError("--all and --geometry exclude each other")
        if args.geometry:
            geometries = [Geometry.from_name(args.geometry)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = run_verification(geometries=geometries, samples=args.samples,
                              seed=args.seed, include_appendix=args.appendix)
    if args.json:
        # wall-clock timing would break the byte-identical-output contract
        emitted = {k: v for k, v in report.items() if k != "elapsed_seconds"}
        print(_dump_json(emitted), end="")
    else:
        for item in report["geometries"]:
            status = "PASS" if item["passed"] else "FAIL"
            error = item["max_rel_error"]
            error = "non-finite" if error is None else f"{error:.3e}"
            jacobi = item["structure_constants"]["violations"]["jacobi"]
            jacobi = "non-finite" if jacobi is None else f"{jacobi:.2e}"
            print(f"{item['geometry']:<22} max_rel_error={error} jacobi={jacobi} {status}")
            if args.appendix and item.get("appendix_diff", {}).get("tables"):
                for name, tab in item["appendix_diff"]["tables"].items():
                    flag = "" if tab["max_rel_diff"] < 1e-9 else "  (differs: published table)"
                    print(f"    {name}: max_rel_diff={tab['max_rel_diff']:.3e}{flag}")
        print(f"total: {report['elapsed_seconds']:.2f}s "
              f"{'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def _apply_override(doc: dict, path: str, value) -> None:
    keys = path.split(".")
    node = doc
    for depth, key in enumerate(keys[:-1], 1):
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError("$." + ".".join(keys[:depth]),
                              f"the override {path!r} needs an object here")
    node[keys[-1]] = value


def _sweep_worker(item: tuple[int, dict, str, tuple[str, ...]]) -> tuple[int, dict]:
    index, doc, out_root, emit = item
    run_dir = Path(out_root) / f"run_{index:04d}"
    row: dict = {"run_id": index, "status": "ok"}
    try:
        config = parse_config(doc)
        code, report, _ = _execute_run(config, run_dir, emit)
        cls = report["classification"]
        row.update({
            "geometry": report["geometry"],
            "outcome_class": report["outcome_class"],
            "t_est": cls.get("collapse_time"),
            "classification": cls["kind"],
            "circle_length": cls.get("circle_length"),
            "slope_x": report["growth_rates"].get("x", {}).get("slope"),
            "slope_y": report["growth_rates"].get("y", {}).get("slope"),
            "exit_code": code,
        })
    except Exception as exc:  # per-row failure must not kill the sweep
        row["status"] = f"error: {exc}"
    return index, row


def _grid_points(grid_doc) -> list[dict]:
    if not isinstance(grid_doc, dict):
        raise ConfigError("$", "the grid must be a JSON object")
    if "points" in grid_doc:
        points = grid_doc["points"]
        if not isinstance(points, list) or not all(isinstance(p, dict) for p in points):
            raise ConfigError("$.points", "expected a list of override objects")
        return points
    if "product" in grid_doc:
        product = grid_doc["product"]
        if not isinstance(product, dict):
            raise ConfigError("$.product", "expected an object of path -> values")
        paths = sorted(product)
        points: list[dict] = [{}]
        for path in paths:
            values = product[path]
            if not isinstance(values, list):
                raise ConfigError(f"$.product.{path}", "expected a list of values")
            points = [dict(p, **{path: v}) for p in points for v in values]
        return points
    raise ConfigError("$", "grid needs a 'points' list or a 'product' object")


def cmd_sweep(args) -> int:
    out_root = Path(args.out)
    items = []
    try:
        if args.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        emit = _parse_emit(args.emit)
        base = json.loads(Path(args.config).read_text())
        if not isinstance(base, dict):
            raise ConfigError("$", "the base config must be a JSON object")
        grid = json.loads(Path(args.grid).read_text())
        points = _grid_points(grid)
        for i, overrides in enumerate(points):
            doc = json.loads(json.dumps(base))
            for path, value in overrides.items():
                _apply_override(doc, path, value)
            items.append((i, doc, str(out_root), emit))
    except (ValueError, OSError) as exc:  # ConfigError, bad JSON, oversized integers
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        out_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _cannot_write(args.out, exc)

    rows: dict[int, dict] = {}
    # a forked pool starts all its workers at the first submit, so never ask
    # for more than there are points or CPUs
    workers = min(args.workers, len(items), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_worker, item) for item in items]
        for i, future in enumerate(futures):
            try:
                rows[i] = future.result()[1]
            except concurrent.futures.BrokenExecutor:  # a worker died; so did all unfinished points
                rows[i] = {"run_id": i, "status": SWEEP_WORKER_DIED}
    else:
        for item in items:
            index, row = _sweep_worker(item)
            rows[index] = row

    results = ["geometry", "outcome_class", "t_est", "slope_x", "slope_y",
               "classification", "circle_length", "exit_code"]
    # one column per name, `status` last; an override named like a result
    # column fills it only where the run produced no value
    override_keys = sorted({k for p in points for k in p} - {"run_id", "status", *results})
    columns = ["run_id", *override_keys, *results, "status"]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")  # writes None as an empty cell
    writer.writerow(columns)
    for i, overrides in enumerate(points):
        values = [rows[i][col] if col in rows[i] else overrides.get(col) for col in columns]
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in values])
    _atomic_write(out_root / "summary.csv", text.getvalue())
    print(f"{len(points)} runs -> {out_root / 'summary.csv'}")
    lost = sum(row["status"] == SWEEP_WORKER_DIED for row in rows.values())
    if lost:
        print(f"error: a sweep worker process died; {lost} of {len(points)} points "
              f"have no result", file=sys.stderr)
        return EXIT_WORKER_DIED
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcflow",
        description="Hermitian curvature flow on complex surface model geometries")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="catalog of geometries and expected labels")
    p_list.add_argument("--json", action="store_true")
    p_list.add_argument("--geometry")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="integrate one flow")
    p_run.add_argument("--config", help="flow config JSON file")
    p_run.add_argument("--geometry")
    for name, param in PARAMETERS.items():
        p_run.add_argument(f"--{param.user_name}", dest=name, type=param.type)
    p_run.add_argument("--x0", type=float, default=1.0)
    p_run.add_argument("--y0", type=float, default=1.0)
    p_run.add_argument("--z0-re", type=float, default=0.0)
    p_run.add_argument("--z0-im", type=float, default=0.0)
    p_run.add_argument("--t-max", type=float, default=100.0)
    p_run.add_argument("--rel-tol", type=float)
    p_run.add_argument("--abs-tol", type=float)
    p_run.add_argument("--engine", choices=[ENGINE_CLOSED_FORM, ENGINE_GENERAL])
    p_run.add_argument("--sample-stride", type=float)
    p_run.add_argument("--degeneracy-threshold", type=float)
    p_run.add_argument("--emit", help="comma list of: " + ",".join(EMIT_CHOICES))
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="engine vs closed-form agreement suite")
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--geometry")
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--appendix", action="store_true",
                          help="include report-only published-table diffs")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a grid of configs")
    p_sweep.add_argument("--config", required=True, help="base config JSON")
    p_sweep.add_argument("--grid", required=True, help="grid JSON (points or product)")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--emit", help="comma list of: " + ",".join(EMIT_CHOICES))
    p_sweep.add_argument("--workers", type=int, default=min(8, os.cpu_count() or 1))
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("HCF_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means "unclassified"
        return 1 if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
