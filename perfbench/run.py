"""End-to-end and per-layer benchmark of the hcflow CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload limits-t1000 --seed 1 --seconds 45 --trace 0

Runs one workload (see perfbench/workloads.py) through `hcflow.cli.main` in a
closed loop from this single process: `hcflow run` on each of the
workload's configs, one flow at a time after warm-up; `hcflow sweep` over the
same configs with min(2, nproc) workers; and the workload's
`hcflow verify --all` calls.  The work is cut into slices that run in turn,
round after round until --seconds is used up, and every measured unit
reports its slowest repetition (see _run for why).  Every artefact is
checked and hashed; repeated inputs must give byte-identical artefacts.

--trace 0 reports the end-to-end metrics.  --trace 1 additionally runs each
flow and verify call once more with span recorders (perfbench/spans.py)
installed and reports the per-layer metrics.  All metrics are printed with their units;
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A full record (environment stamp, digests, failures,
every repetition's time, span totals) is written to .perfbench/results/.
The lane that hcflow.core selected is part of the stamp; numbers from
different lanes or core counts are not comparable.

Exit status is non-zero only when the benchmark cannot run (for example no
hcflow source next to it) or when repeated inputs gave different artefacts.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SLICES = 4
MIN_ROUNDS = 3
IMPORTTIME_REPEATS = 3
KERNEL_REPEATS = 20000
K_AGREEMENT_TOL = 1e-9  # the certification tolerance the closed forms must meet
TRAJECTORY_HEADER = "t,x,y,z_re,z_im,D,u,xdot,ydot"
PLOT_HEADER = "t,n_x,n_y,n_z_abs"
ARTEFACTS = {"trajectory-csv": "trajectory.csv", "outcome-json": "outcome.json",
             "analysis-json": "analysis.json", "plot-data": "plot_data.csv"}


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "hcflow" / "__init__.py").is_file():
    _fail_setup(f"no hcflow source at {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import hcflow  # noqa: E402
from hcflow import cli, core  # noqa: E402
from hcflow.catalog import entry  # noqa: E402
from hcflow.geometry import Geometry  # noqa: E402

from spans import CORE_FLOW, UNTRACED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if Path(hcflow.__file__).resolve().parent != SRC / "hcflow":
    _fail_setup(f"imported hcflow from {hcflow.__file__}, not from {SRC}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Gate:
    """Counts attempted and failed operations.

    Every failure counts in `failed`.  Outputs that are wrong, not merely
    unclassified (missing or malformed artefacts, a wrong terminal outcome, a
    closed form outside the certification tolerance), also make the run
    incorrect; artefacts that differ between repetitions make it exit 1.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.incorrect: list[str] = []
        self.mismatches: list[str] = []

    def attempt(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def same(self, label: str, first, second) -> None:
        """Repetitions must agree; a missing side is already counted as incorrect."""
        if first and second and first != second:
            self.mismatches.append(f"{label}: artefacts differ between repetitions")

    @property
    def correct(self) -> bool:
        return not self.incorrect and not self.mismatches


def call_cli(argv: list[str]) -> tuple[int | None, str, float, str | None]:
    """One in-process `hcflow ...` call: (exit code, stdout, seconds, error)."""
    out = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashing run is a counted failure, not the end
        where = traceback.extract_tb(exc.__traceback__)[-1]
        code, error = None, f"{type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"
    return code, out.getvalue(), time.perf_counter() - t0, error


# ---------------------------------------------------------------------------
# artefact checks
# ---------------------------------------------------------------------------

def check_flow_dir(run_dir: Path, doc: dict, emit: tuple[str, ...],
                   gate: Gate, label: str) -> tuple[dict[str, str], int, list[str]]:
    """Validate one flow's artefacts; returns (digests, bytes, failure reasons)."""
    desc = entry(Geometry.from_name(doc["geometry"]))
    digests, size, problems = {}, 0, []
    texts = {}
    for target in emit:
        path = run_dir / ARTEFACTS[target]
        if not path.is_file():
            gate.incorrect.append(f"{label}: {path.name} missing")
            problems.append(f"{path.name} missing")
            continue
        data = path.read_bytes()
        digests[path.name] = sha256(data)
        size += len(data)
        texts[path.name] = data.decode()
    try:
        if "outcome.json" in texts:
            outcome = json.loads(texts["outcome.json"])
            if outcome["class"] != desc.expected_outcome:
                gate.incorrect.append(f"{label}: outcome {outcome['class']}")
                problems.append(f"outcome {outcome['class']} != {desc.expected_outcome}")
        if "analysis.json" in texts:
            kind = json.loads(texts["analysis.json"])["classification"]["kind"]
            if kind != desc.expected_limit:
                problems.append(f"classification {kind} != {desc.expected_limit}")
        rows = None
        if "trajectory.csv" in texts:
            lines = texts["trajectory.csv"].splitlines()
            if lines[0] != TRAJECTORY_HEADER or len(lines) < 3:
                raise ValueError("trajectory.csv header or length")
            t = np.array([float(line.split(",", 1)[0]) for line in lines[1:]])
            if np.any(np.diff(t) < 0) or t[0] != 0.0 or t[-1] > doc["t_max"]:
                raise ValueError("trajectory.csv times")
            rows = len(lines)
        if "plot_data.csv" in texts:
            lines = texts["plot_data.csv"].splitlines()
            if lines[0] != PLOT_HEADER or (rows is not None and len(lines) != rows):
                raise ValueError("plot_data.csv header or length")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        gate.incorrect.append(f"{label}: {exc}")
        problems.append(f"malformed artefact ({exc})")
    return digests, size, problems


def read_summary(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    columns = lines[0].split(",")
    # `status` is the last column and the only one that may contain commas
    return [dict(zip(columns, line.split(",", len(columns) - 1))) for line in lines[1:]]


def check_verify_output(text: str) -> tuple[int, int, list[str]]:
    """(comparisons, geometries, failure reasons) of one `verify --json` output."""
    items = json.loads(text)["geometries"]
    problems = [f"{item['geometry']} max_rel_error {item['max_rel_error']:.3e}"
                for item in items
                if not item["passed"] or not item["max_rel_error"] <= K_AGREEMENT_TOL]
    return sum(item["samples"] for item in items), len(items), problems


# ---------------------------------------------------------------------------
# measured units: one flow, one sweep over a slice, one verify call, one import
# ---------------------------------------------------------------------------

def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_import() -> float:
    """Wall seconds for a fresh interpreter to `import hcflow.cli`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hcflow.cli"], cwd=ROOT,
                   env=child_env(), check=True)
    return time.perf_counter() - t0


def measure_import_breakdown() -> dict[str, float]:
    """Interpreter start, numpy import and hcflow's own import time, in ms."""
    interp, numpy_ms, own_ms = [], [], []
    for _ in range(IMPORTTIME_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True)
        interp.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hcflow.cli"],
                              cwd=ROOT, env=child_env(), check=True,
                              capture_output=True, text=True)
        numpy_us = own_us = 0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            try:
                self_us, cumulative_us = int(fields[0]), int(fields[1])
            except (ValueError, IndexError):  # the header, or another line
                continue
            module = fields[2].strip()
            if module == "numpy":
                numpy_us = cumulative_us
            if module == "hcflow" or module.startswith("hcflow."):
                own_us += self_us
        numpy_ms.append(numpy_us / 1e3)
        own_ms.append(own_us / 1e3)
    return {"setup.interpreter_ms": statistics.median(interp),
            "setup.numpy_import_ms": statistics.median(numpy_ms),
            "setup.hcflow_self_import_ms": statistics.median(own_ms)}


def run_flow(cfg: Path, doc: dict, run_dir: Path, emit: tuple[str, ...], gate: Gate,
             label: str, tracer: Tracer | None = None) -> tuple[float, dict, int]:
    """One `hcflow run`; (seconds, artefact digests, bytes).  Removes its output."""
    argv = ["run", "--config", str(cfg), "--out", str(run_dir), "--emit", ",".join(emit)]
    with tracer.root("flow") if tracer else contextlib.nullcontext():
        code, _, seconds, error = call_cli(argv)
    digest, size, problems = check_flow_dir(run_dir, doc, emit, gate, label)
    if error or code != 0:
        problems.insert(0, error or f"exit code {code}")
    gate.attempt(label, problems)
    shutil.rmtree(run_dir, ignore_errors=True)
    return seconds, digest, size


def write_grid(docs: list[dict], out: Path) -> tuple[Path, Path]:
    """Base config and grid of one sweep; each point overrides scalar paths only."""
    out.mkdir(parents=True)
    base, grid = out / "base.json", out / "grid.json"
    base.write_text(json.dumps(dict(docs[0], params={})))
    grid.write_text(json.dumps({"points": [
        {"geometry": d["geometry"], "t_max": d["t_max"],
         **{f"g0.{k}": v for k, v in d["g0"].items()},
         **{f"params.{k}": v for k, v in d["params"].items()},
         **{k: d[k] for k in ("engine", "rel_tol", "degeneracy_threshold") if k in d}}
        for d in docs]}))
    return base, grid


def run_sweep(base: Path, grid: Path, docs: list[dict], sweep_dir: Path,
              emit: tuple[str, ...], workers: int, gate: Gate,
              label: str) -> tuple[float, list[dict], str]:
    """One `hcflow sweep`; (seconds, per-row artefact digests, summary digest)."""
    code, _, seconds, error = call_cli(
        ["sweep", "--config", str(base), "--grid", str(grid), "--out", str(sweep_dir),
         "--workers", str(workers), "--emit", ",".join(emit)])
    summary_path = sweep_dir / "summary.csv"
    if error or code != 0 or not summary_path.is_file():
        reason = error or f"exit code {code}"
        gate.incorrect.append(f"{label}: {reason}")
        gate.attempt(label, [reason])
        return seconds, [{} for _ in docs], ""
    rows = {int(r["run_id"]): r for r in read_summary(summary_path)}
    digests = []
    for i, doc in enumerate(docs):
        row_label = f"{label} row {i} ({doc['geometry']})"
        row = rows.get(i, {})
        digest, _, problems = check_flow_dir(sweep_dir / f"run_{i:04d}", doc, emit, gate,
                                             row_label)
        if row.get("status") != "ok" or row.get("exit_code") != "0":
            problems.insert(0, f"status {row.get('status')!r} exit {row.get('exit_code')!r}")
        gate.attempt(row_label, problems)
        digests.append(digest)
    summary = sha256(summary_path.read_bytes())
    shutil.rmtree(sweep_dir, ignore_errors=True)
    return seconds, digests, summary


def run_verify(argv: list[str], gate: Gate, label: str,
               tracer: Tracer | None = None) -> tuple[float, int, int, str]:
    """One `hcflow verify --json`; (seconds, comparisons, geometries, output digest)."""
    with tracer.root("verify") if tracer else contextlib.nullcontext():
        code, text, seconds, error = call_cli(argv)
    problems = [error or f"exit code {code}"] if error or code != 0 else []
    samples = geometries = 0
    try:
        samples, geometries, bad = check_verify_output(text)
        gate.incorrect += [f"{label}: {b}" for b in bad]
        problems += bad
    except (ValueError, KeyError, TypeError) as exc:
        gate.incorrect.append(f"{label}: {exc}")
        problems.append(f"malformed output ({exc})")
    gate.attempt(label, problems)
    return seconds, samples, geometries, sha256(text.encode())


# ---------------------------------------------------------------------------
# per-layer metrics from the traced pass
# ---------------------------------------------------------------------------

#: self-time accounting of a flow: the layers a flow runs through; the model
#: modules (algebra, geometry, metric) and verify go to "other"
ACCOUNTING = ("core", "integrate", "analysis", "catalog", "report", "cli",
              "curvature", "other", UNTRACED)


def per_layer_metrics(tracer: Tracer, sizes: list[int],
                      verify_geometries: int) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics of the traced pass; None where a hook target is missing."""
    flows = tracer.roots("flow")
    ms = 1e-6

    def per_flow(names, column=1, scale=ms):
        value = tracer.total("flow", names, column)
        return None if value is None or not flows else value * scale / flows

    def per_call(kind, name):
        calls, incl = tracer.total(kind, name, 0), tracer.total(kind, name, 1)
        return None if not calls else incl * 1e-3 / calls  # us

    def per_geometry(names, column):
        value = tracer.total("verify", names, column)
        return None if value is None or not verify_geometries else value * ms / verify_geometries

    c = tracer.flow_counters
    steps = c["accepted"] + c["rejected"]
    core_self = tracer.total("flow", list(CORE_FLOW), 2)
    root_ns = tracer.totals.get("flow", {}).get("root_ns", 0)
    m = {
        "core.flow_ms": (per_flow(list(CORE_FLOW)), "ms"),
        "core.steps_per_flow": (steps / c["calls"] if c["calls"] else None, "count"),
        "core.accept_ratio": (c["accepted"] / steps if steps else None, "ratio"),
        "core.us_per_step": (core_self * 1e-3 / steps if steps and core_self is not None
                             else None, "us"),
        "integrate.self_ms": (per_flow("integrate.integrate", 2), "ms"),
        "integrate.samples_per_flow": (c["samples"] / c["calls"] if c["calls"] else None,
                                       "count"),
        "integrate.to_csv_ms": (per_flow("integrate.Trajectory.to_csv"), "ms"),
        "analysis.udot_consistency_ms": (per_flow("analysis.udot_consistency"), "ms"),
        "analysis.monotonicity_ms": (per_flow("analysis.monotonicity_report"), "ms"),
        "analysis.classify_ms": (per_flow("analysis.classify_gh_limit"), "ms"),
        "analysis.growth_rate_ms": (per_flow("analysis.linear_growth_rate"), "ms"),
        "catalog.udot_calls_per_flow": (per_flow("catalog.GeometryDescriptor.udot", 0, 1),
                                        "count"),
        "catalog.udot_us": (per_call("flow", "catalog.GeometryDescriptor.udot"), "us"),
        "catalog.closed_form_K_us": (per_call("verify", "catalog.GeometryDescriptor.closed_form_K"),
                                     "us"),
        "report.self_ms": (per_flow("report.analysis_report", 2), "ms"),
        "cli.parse_config_ms": (per_flow("cli.parse_config"), "ms"),
        "cli.plot_csv_ms": (per_flow("cli._plot_data_csv"), "ms"),
        "cli.json_ms": (per_flow("cli._dump_json"), "ms"),
        "cli.write_ms": (per_flow("cli._atomic_write"), "ms"),
        "cli.bytes_written": (statistics.mean(sizes) if sizes else None, "bytes"),
        "cli.execute_run_self_ms": (per_flow("cli._execute_run", 2), "ms"),
        "curvature.bundle_us": (per_call("verify", "curvature.curvature_bundle"), "us"),
        "verify.structure_constants_ms": (per_geometry("verify.verify_structure_constants", 1),
                                          "ms"),
        "verify.self_ms": (tracer.layer_self_ns("verify")["verify"] * ms / verify_geometries
                           if verify_geometries else None, "ms"),
        "trace.flow_ms": (root_ns * ms / flows if flows else None, "ms"),
    }
    # self-time accounting: these sum to trace.flow_ms
    groups = dict.fromkeys(ACCOUNTING, 0)
    for layer, ns in tracer.layer_self_ns("flow").items():
        groups[layer if layer in groups else "other"] += ns
    for group, ns in groups.items():
        m[f"flow_self_ms.{group}"] = (ns * ms / flows if flows else None, "ms")
    return m


# ---------------------------------------------------------------------------

def environment_stamp(args, workers: int) -> dict:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        head = "unknown"
    return {"lane": "compiled" if core.COMPILED else "python",
            "compiled": bool(core.COMPILED), "hcflow_version": hcflow.__version__,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_head": head,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workers": workers}


def peak_rss_mb(who: int) -> float:
    """High-water resident memory in MiB of this process (RUSAGE_SELF) or of
    the largest of its ended children (RUSAGE_CHILDREN), not of their sum."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workers = min(2, len(os.sched_getaffinity(0)))
    stamp = environment_stamp(args, workers)
    work = WORKLOADS[args.workload](args.seed, args.seconds)
    gate = Gate()
    tmp = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    try:
        return _run(args, stamp, work, gate, tmp, workers)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _split(n: int, parts: int) -> list[range]:
    return [range(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


def _interleave(flows: range, calls: range) -> list[tuple[str, int]]:
    """A slice's flows and verify calls, the calls spread evenly between the flows."""
    items = [((f + 0.5) / len(flows), "flow", i) for f, i in enumerate(flows)]
    items += [((c + 0.5) / len(calls), "verify", j) for c, j in enumerate(calls)]
    return [(kind, index) for _, kind, index in sorted(items)]


def _slowest(samples: list[list[float]]) -> list[float]:
    """The slowest repetition of each measured unit."""
    return [max(s) for s in samples if s]


def _run(args, stamp, work, gate: Gate, tmp: Path, workers: int) -> int:
    print("stamp " + json.dumps(stamp, sort_keys=True), flush=True)
    docs, calls, emit = work.configs, work.verify_calls, work.emit
    n, m = len(docs), len(calls)
    cfg_dir = tmp / "configs"
    cfg_dir.mkdir(parents=True)
    cfgs = []
    for i, doc in enumerate(docs):
        cfgs.append(cfg_dir / f"cfg_{i:04d}.json")
        cfgs[-1].write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    configs_digest = sha256(b"".join(p.read_bytes() for p in cfgs) + json.dumps(calls).encode())
    flow_slices, call_slices = _split(n, SLICES), _split(m, SLICES)
    grids = [write_grid([docs[i] for i in sl], tmp / f"grid_{k}") if sl else None
             for k, sl in enumerate(flow_slices)]

    def flow_label(tag, i):
        return f"{tag} flow {i} ({docs[i]['geometry']})"

    # warm-up: the first call of each kind pays lazy imports and cold caches
    time_import()
    run_flow(cfgs[0], docs[0], tmp / "warmup", emit, Gate(), "warmup")
    run_verify(calls[0], Gate(), "warmup")

    # The work is cut into SLICES slices that run in turn, round after round,
    # until --seconds is used up (at least MIN_ROUNDS rounds), and every unit
    # (a flow, a sweep over a slice, a verify call, an import) reports its
    # slowest repetition.  Other tenants of a shared machine slow a core
    # down by 1.4-1.75x, for a fraction of a second to tens of seconds at a
    # time, and how much of a run falls into such periods varies from run
    # to run.  Nearly every unit meets one in its repetitions, so the slowest
    # repetition is the steadiest figure: on a shared 2-core machine its
    # quartile spread over seeds was about half that of the median or the
    # fastest repetition.  Within a slice the flows and verify calls
    # interleave.  Every repetition must reproduce the artefacts of round 0
    # byte for byte, and every sweep the `run` files.  With --trace 1,
    # round 0 also runs each flow traced, right next to its untraced run and
    # in alternating order, so that trace.overhead_frac compares two runs
    # made in the same state of the machine.
    tracer = Tracer() if args.trace else None
    lat: list[list[float]] = [[] for _ in range(n)]
    sizes, run_dig = [0] * n, [{}] * n
    traced_s, traced_dig = [0.0] * n, [{}] * n
    sweep_s: list[list[float]] = [[] for _ in range(SLICES)]
    setup: list[list[float]] = [[] for _ in range(SLICES)]
    summaries = [""] * SLICES
    ver_s: list[list[float]] = [[] for _ in range(m)]
    ver_samples, ver_dig = [0] * m, [""] * m

    def traced_flow(i: int) -> None:
        tracer.install()
        try:
            traced_s[i], traced_dig[i], _ = run_flow(cfgs[i], docs[i], tmp / "traced", emit,
                                                     gate, flow_label("traced", i), tracer)
        finally:
            tracer.uninstall()

    def one_slice(p: int, k: int) -> None:
        setup[k].append(time_import())
        for kind, i in _interleave(flow_slices[k], call_slices[k]):
            if kind == "verify":
                seconds, ver_samples[i], _, digest = run_verify(
                    calls[i], gate, f"round {p} verify {i} ({' '.join(calls[i][1:3])})")
                ver_s[i].append(seconds)
                if p:
                    gate.same(f"verify call {i}: round {p} vs round 0", ver_dig[i], digest)
                else:
                    ver_dig[i] = digest
                continue
            if tracer and not p and i % 2:
                traced_flow(i)
            seconds, digest, size = run_flow(cfgs[i], docs[i], tmp / "run", emit, gate,
                                             flow_label(f"round {p} run", i))
            lat[i].append(seconds)
            if p:
                gate.same(f"flow {i}: round {p} vs round 0", run_dig[i], digest)
            else:
                run_dig[i], sizes[i] = digest, size
            if tracer and not p and not i % 2:
                traced_flow(i)
        if not grids[k]:
            return
        seconds, digs, summary = run_sweep(
            *grids[k], [docs[i] for i in flow_slices[k]], tmp / "sweep", emit,
            workers, gate, f"round {p} sweep {k}")
        sweep_s[k].append(seconds)
        if p:
            gate.same(f"sweep {k}: round {p} vs round 0 summary", summaries[k], summary)
        else:
            summaries[k] = summary
        for i, digest in zip(flow_slices[k], digs):
            gate.same(f"flow {i}: round {p} sweep vs run", run_dig[i], digest)

    # stop at the end of a slice once the next one would overrun --seconds
    start, visits, last = time.perf_counter(), 0, 0.0
    while visits < MIN_ROUNDS * SLICES or time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        one_slice(*divmod(visits, SLICES))
        last, visits = time.perf_counter() - t0, visits + 1
    rounds = [len(s) for s in setup]
    if tracer:
        for i in range(n):
            gate.same(f"flow {i}: traced vs untraced", run_dig[i], traced_dig[i])

    slow_s = _slowest(lat)
    lat_ms = np.array(slow_s) * 1e3
    metrics: dict[str, tuple[float | None, str]] = {
        "setup_s": (statistics.median(_slowest(setup)), "s"),
        "run_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
        "run_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
        "sweep_runs_per_s": (n / sum(_slowest(sweep_s)), "1/s"),
        "verify_samples_per_s": (sum(ver_samples) / sum(_slowest(ver_s)), "1/s"),
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_SELF), "MB"),
    }
    layer: dict[str, tuple[float | None, str]] = {}
    spans: dict = {}
    if tracer:
        traced_geoms = 0
        tracer.install()
        try:
            for j in range(m):
                _, _, geoms, digest = run_verify(calls[j], gate, f"traced verify {j}", tracer)
                traced_geoms += geoms
                gate.same(f"verify call {j}: traced vs untraced", ver_dig[j], digest)
        finally:
            tracer.uninstall()
        layer = per_layer_metrics(tracer, sizes, traced_geoms)
        paired_s = sum(s[0] for s in lat)  # round 0, next to the traced runs
        layer["trace.overhead_frac"] = (sum(traced_s) / paired_s - 1.0, "ratio")
        spans = tracer.totals
        layer.update({k: (v, "ms") for k, v in measure_import_breakdown().items()})
        layer["core.closed_k_ns"] = (kernel_ns(), "ns")
        layer["cli.sweep_efficiency"] = (sum(slow_s) / workers / sum(_slowest(sweep_s)), "ratio")
    layer["children.peak_rss_mb"] = (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    layer["failed_frac"] = (len(gate.failures) / max(gate.attempted, 1), "ratio")

    digests = {"seed": args.seed, "configs": configs_digest, "runs": run_dig,
               "summaries": summaries, "verify": ver_dig}
    digests["workload"] = sha256(json.dumps(digests, sort_keys=True).encode())
    missing = sorted(k for k, (v, _) in layer.items() if v is None)

    print(f"digest {digests['workload']} (configs {configs_digest})")
    print(f"samples run={n} beyond_p90="
          f"{int(np.sum(lat_ms > metrics['run_ms_p90'][0]))} sweep={n} in {SLICES} slices, "
          f"verify_calls={m}, verify_samples={sum(ver_samples)}, setup={SLICES}; "
          f"each the slowest of its {min(rounds)}-{max(rounds)} repetitions")
    print(f"seconds measured={time.perf_counter() - start:.2f}, slowest round: run={sum(slow_s):.2f} "
          f"sweep={sum(_slowest(sweep_s)):.2f} verify={sum(_slowest(ver_s)):.2f}")
    for name, (value, unit) in {**metrics, **layer}.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<32} {shown:>14} {unit}")
    if missing:
        print("missing per-layer metrics (hook target not found): " + ", ".join(missing))
    for line in gate.failures + gate.incorrect + gate.mismatches:
        print(f"  FAIL {line}")

    STATE.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {"stamp": stamp, "workload": work.name, "rounds": rounds,
              "correct": gate.correct, "attempted": gate.attempted,
              "failed": len(gate.failures), "failures": gate.failures,
              "incorrect": gate.incorrect, "mismatches": gate.mismatches,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **layer}.items()},
              "missing": missing, "run_ms_by_round": [[x * 1e3 for x in s] for s in lat],
              "sweep_s_by_slice": sweep_s, "setup_s_by_slice": setup,
              "verify_s_by_call": ver_s, "digests": digests, "spans": spans}
    result_path = STATE / "results" / f"{work.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    chosen = layer if args.trace else metrics
    print(json.dumps({
        "correct": gate.correct, "attempted": gate.attempted, "failed": len(gate.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items() if v is not None},
    }))
    return 1 if gate.mismatches else 0


def kernel_ns() -> float | None:
    """closed_k ns/eval in the selected lane, on bench_kernels.KERNEL_POINTS."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import bench_kernels
    except ImportError:
        return None
    finally:
        sys.path.pop(0)
    return bench_kernels.time_kernel(core, KERNEL_REPEATS) * 1e9


if __name__ == "__main__":
    sys.exit(main())
