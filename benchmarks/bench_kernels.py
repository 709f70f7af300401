"""Benchmark: the compiled integrator loop vs the pure-Python lane.

Usage: python benchmarks/bench_kernels.py [--repeat N]

Times (a) raw closed-form tensor evaluations, which always run in Python,
and, per ``KERNEL_POINTS`` entry, the phi kernel that the loop's rhs
calls: the Python one of ``_core_py._PHI``, and the C core's ``hcf_closed_phi`` in
a C loop compiled from the package's source (needs ``cc``), so a C kernel
that recomputes ``sin`` or ``cos`` shows, (b) the general contraction engine
(``curvature_bundle``) per metric, called on one metric, on one geometry's
100 metric rows with its one algebra, and on a CHUNK of 256 rows of all nine
geometries with one algebra per row (as ``hcflow verify`` calls it), and the
catalog's closed form (``closed_form_K``) per metric on one metric and on 100
rows, together with the cost of drawing the metrics (``sample_metric`` one
at a time, ``sample_metrics`` 100 per call) and of the engine's stacked
matrix build (positivity check, the matrices A and their inverses, 100 per
call), (c) the four structure-constant hygiene checks per parameter draw,
one draw per call and, as ``verify_structure_constants`` calls them, one
stack of the distinct draws of 20 per geometry, all nine geometries
together, (d) the CSV text of the two
1001-row tables of a t = 1000 run (``trajectory.csv``, 9 columns, and
``plot_data.csv``, 4), per cell, written by each lane's formatter (the C
library's ``hcf_csv``, where it is built, and ``_g17.csv_text``) and by a
per-cell ``%.17g`` reference, and (e) full flow runs, for two short collapsing runs
(one from z0 = 0) and five long immortal runs, in each lane that is
available.  Each flow line also gives the time per integrator step (accepted
plus rejected; both lanes take the same steps) and per emitted sample (output
row), which separate the loop's overhead from its step count and from its
emission of stride samples.  The torus run takes 10 steps for 1001 samples,
so its time is nearly all emission.  On the kodaira-secondary and
hyperelliptic runs z decays exponentially; the log-polar state takes 163 and
41 steps there, where a Cartesian z took 23,027 and 485.  The compiled lane
runs wherever ``import hcflow`` could build the C core (``hcflow.core``; it
needs ``cc`` and a writable ``__pycache__`` beside the package).
"""
import argparse
import math
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from hcflow import _core_py, _g17, algebra, core, curvature
from hcflow.algebra import StructureConstants
from hcflow.catalog import entry, sample_metric, sample_metrics, sample_params
from hcflow.curvature import curvature_bundle
from hcflow.geometry import Geometry
from hcflow.integrate import Trajectory
from hcflow.metric import POSITIVITY_MARGIN
from hcflow.verify import CHUNK

KERNEL_POINTS = [
    (2, 0.7, 0.0, 1.0, 1.5, 0.3, -0.2),
    (3, 1.0, 0.0, 2.0, 1.0, 0.1, 0.4),
    (6, 1.0, 2.0, 1.0, 1.0, 0.3, 0.2),
    (8, 0.0, 0.0, 1.0, 1.0, 0.3, 0.4),
]

FLOW_RUNS = [
    ("hopf collapse (t ~ 2.8)", (2, 0.7, 0.0, (2.0, 0.7, 0.5, -0.3), 50.0)),
    # z0 = 0: the log-polar state starts at L = -inf, and z stays 0
    ("hopf z0 = 0 collapse", (2, 0.7, 0.0, (2.0, 0.7, 0.0, 0.0), 50.0)),
    ("torus t = 1000", (0, 0.0, 0.0, (1.0, 2.0, 0.1, 0.0), 1000.0)),
    ("properly-elliptic t = 1000", (3, 1.0, 0.0, (1.0, 1.0, 0.3, 0.2), 1000.0)),
    ("inoue-s0 t = 1000", (6, 1.0, 2.0, (1.0, 1.0, 0.3, 0.2), 1000.0)),
    # z decays exponentially: the stiff tails of the (x, y, Re z, Im z) state
    ("kodaira-secondary t = 1e4", (5, 1.0, 0.0, (1.0, 1.0, 0.3, 0.2), 1e4)),
    ("hyperelliptic t = 1000", (1, 0.0, 0.0, (1.0, 1.0, 0.5, 0.0), 1000.0)),
]


def time_kernel(mod, n):
    t0 = time.perf_counter()
    for _ in range(n):
        for args in KERNEL_POINTS:
            mod.closed_k(*args)
    return (time.perf_counter() - t0) / (n * len(KERNEL_POINTS))


def phi_args(geom, p1, p2, x, y, zre, zim):
    """The arguments of a phi kernel after the geometry id at a ``KERNEL_POINTS`` entry."""
    return p1, p2, x, y, zre * zre + zim * zim, math.atan2(zim, zre)


# hcf_closed_phi timed in a C loop: each input line is a geometry id and six hex floats;
# volatile inputs and the printed sum keep the compiler from hoisting or dropping the kernel
PHI_HARNESS = r"""
#include <stdio.h>
#include <time.h>
#include "SOURCE"
int main(void) {
    int geom;
    double a[6], k[4], sum = 0.0;
    while (scanf("%d %la %la %la %la %la %la", &geom, a, a + 1, a + 2, a + 3, a + 4, a + 5) == 7) {
        volatile double v[6] = {a[0], a[1], a[2], a[3], a[4], a[5]};
        double best = 1e300;
        for (int round = 0; round < 20; round++) {
            clock_t t0 = clock();
            for (int i = 0; i < 100000; i++) {
                hcf_closed_phi(geom, v[0], v[1], v[2], v[3], v[4], v[5], k);
                sum += k[0] + k[1] + k[2] + k[3];
            }
            double ns = (double)(clock() - t0) / CLOCKS_PER_SEC * 1e4;
            best = ns < best ? ns : best;
        }
        printf("%.2f\n", best);
    }
    fprintf(stderr, "%g\n", sum);
    return 0;
}
"""


def c_phi_ns(points):
    """ns per ``hcf_closed_phi`` call at each of ``points`` (geometry id and its six
    arguments), the best of 20 rounds of 1e5 calls in ``PHI_HARNESS``, which includes the
    package's ``_core_c.c`` and is compiled, as ``core.build`` compiles it, with
    ``core.CFLAGS`` and the header of ``core.write_kernels``; None without ``cc``."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    with tempfile.TemporaryDirectory() as tmp:
        source, exe = Path(tmp, "phi.c"), Path(tmp, "phi")
        source.write_text(PHI_HARNESS.replace("SOURCE", core.SOURCE))
        core.write_kernels(tmp)
        subprocess.run([cc, *core.CFLAGS, "-I", tmp, "-o", exe, source, "-lm"], check=True)
        lines = "".join(f"{geom} {' '.join(map(float.hex, args))}\n" for geom, args in points)
        out = subprocess.run([exe], input=lines, capture_output=True, text=True).stdout
    return [float(v) for v in out.split()]


def best_per_item(call, items, repeat):
    """Seconds per item of ``call()``, which handles ``items`` items, best of
    ``repeat`` rounds of about 2000 items each."""
    calls = max(1, 2000 // items)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, time.perf_counter() - t0)
    return best / (calls * items)


def inoue_case(stack):
    """Inoue S0 descriptor, parameters, structure constants and ``stack`` metrics
    (one metric for a stack of 1, else their rows)."""
    rng = np.random.default_rng(0)
    desc = entry(Geometry.INOUE_S0)
    params = sample_params(Geometry.INOUE_S0, rng)
    g = sample_metric(rng) if stack == 1 else sample_metrics(rng, stack)
    return desc, params, desc.structure_constants(params), g


def mixed_chunk():
    """A CHUNK of metric rows in verify's order, CHUNK // 9 per geometry and the rest
    of the last, with the stack of one algebra per row."""
    rng = np.random.default_rng(0)
    counts = [CHUNK // 9] * 8 + [CHUNK - 8 * (CHUNK // 9)]
    mus = [entry(g).structure_constants(sample_params(g, rng)).mu for g in Geometry]
    return (StructureConstants(np.repeat(np.array(mus), counts, axis=0)),
            sample_metrics(rng, CHUNK))


def hygiene_stack(draws):
    """The structure constants of ``draws`` parameter draws per geometry, repeats
    dropped, all nine geometries in one stack (as verify builds it)."""
    rng = np.random.default_rng(0)
    return np.concatenate([
        entry(g).structure_constants(list(dict.fromkeys(
            sample_params(g, rng) for _ in range(draws)))).mu for g in Geometry])


def csv_tables():
    """(name, columns) of the two CSVs of the Inoue S0 t = 1000 run."""
    geom, p1, p2, s0, t_max = dict(FLOW_RUNS)["inoue-s0 t = 1000"]
    rows = _core_py.run_closed_flow(geom, p1, p2, s0, t_max, 1e-9, 1e-12, t_max / 1000, 1e-10)[2]
    tr = Trajectory.from_rows(rows, "", None, math.nan)
    return [("trajectory.csv", (tr.t, tr.x, tr.y, tr.z_re, tr.z_im, tr.d, tr.u, tr.xdot, tr.ydot)),
            ("plot_data.csv", (tr.t, *tr.normalized))]


def per_cell_csv(columns):
    """The reference: one ``%.17g`` conversion per cell."""
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return (line * len(table)) % tuple(table.ravel().tolist())


def time_flow(run_closed_flow, spec, repeat):
    """Seconds per run, integrator steps per run and rows emitted per run."""
    geom, p1, p2, s0, t_max = spec
    t0 = time.perf_counter()
    for _ in range(repeat):
        result = run_closed_flow(geom, p1, p2, s0, t_max, 1e-9, 1e-12, t_max / 1000, 1e-10)
    return (time.perf_counter() - t0) / repeat, result[3] + result[4], len(result[2])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"python: closed_k {time_kernel(_core_py, 20000) * 1e9:8.0f} ns/eval")
    phis = [(geom, phi_args(geom, *point)) for geom, *point in KERNEL_POINTS]
    c_ns = c_phi_ns(phis)
    for i, (geom, kernel_args) in enumerate(phis):
        kernel = _core_py._kernel(geom, _core_py._PHI)
        line = (f"python: {kernel.__name__.strip('_'):<20} "
                f"{best_per_item(lambda: kernel(*kernel_args), 1, args.repeat) * 1e9:6.0f} ns/eval")
        print(line + ("   (no cc: C kernel not timed)" if c_ns is None
                      else f"   C: hcf_closed_phi {c_ns[i]:6.1f} ns/eval"))
    for stack in (1, 100):
        desc, params, mu, g = inoue_case(stack)
        engine = best_per_item(lambda: curvature_bundle(mu, g), stack, args.repeat)
        closed = best_per_item(lambda: desc.closed_form_K(params, g), stack, args.repeat)
        print(f"engine: curvature_bundle, {stack:>3} per call, one algebra "
              f"{engine * 1e6:8.2f} us/metric")
        print(f"catalog: closed_form_K, {stack:>3} per call {closed * 1e6:9.2f} us/metric")
    mus, rows = mixed_chunk()
    engine = best_per_item(lambda: curvature_bundle(mus, rows), CHUNK, args.repeat)
    print(f"engine: curvature_bundle, {CHUNK} per call, nine geometries, one algebra per row "
          f"{engine * 1e6:6.2f} us/metric")
    rng = np.random.default_rng(0)
    one = best_per_item(lambda: [sample_metric(rng) for _ in range(100)], 100, args.repeat)
    stacked = best_per_item(lambda: sample_metrics(rng, 100), 100, args.repeat)
    rows = sample_metrics(rng, 100)
    build = best_per_item(lambda: curvature._matrices(rows, POSITIVITY_MARGIN), 100, args.repeat)
    print(f"catalog: sample_metric,   1 per call {one * 1e6:9.2f} us/metric")
    print(f"catalog: sample_metrics, 100 per call {stacked * 1e6:8.2f} us/metric")
    print(f"curvature: check, A and A^-1, 100 per call {build * 1e6:6.2f} us/metric")
    checks = [getattr(algebra, name) for name in (
        "antisymmetry_violation", "reality_violation", "integrability_violation",
        "jacobi_violation")]
    stack = hygiene_stack(20)
    one = best_per_item(lambda: [check(mu) for mu in stack for check in checks],
                        len(stack), args.repeat)
    stacked = best_per_item(lambda: [check(stack) for check in checks], len(stack), args.repeat)
    print(f"algebra: four hygiene checks, one draw per call {one * 1e6:8.2f} us/draw")
    print(f"algebra: four hygiene checks, {len(stack)} draws of nine geometries per call "
          f"{stacked * 1e6:8.2f} us/draw")
    for name, columns in csv_tables():
        table = np.column_stack(columns)
        formatters = [("_g17.csv_text", lambda: _g17.csv_text("", table)),
                      ("per-cell %.17g", lambda: per_cell_csv(columns))]
        if core.COMPILED:
            formatters.insert(0, ("C hcf_csv", lambda: core.csv_text("", table)))
        times = [f"{label} {best_per_item(call, table.size, args.repeat) * 1e9:5.0f} ns/cell"
                 for label, call in formatters]
        print(f"serialization: {name:<14} {len(table)}x{table.shape[1]} {', '.join(times)}"
              + ("" if core.COMPILED else "   (no C library: hcf_csv not timed)"))
    lanes = [("python", _core_py.run_closed_flow)]
    if core.COMPILED:
        lanes.append(("C", core.run_closed_flow))
    else:
        print("compiled core not built; benchmarking the python lane only")
    for label, spec in FLOW_RUNS:
        per_run = {}
        for name, run_closed_flow in lanes:
            per_run[name], steps, samples = time_flow(run_closed_flow, spec, args.repeat)
            print(f"{name:>7}: {label:<28} {per_run[name] * 1e3:9.2f} ms/run "
                  f"{per_run[name] / steps * 1e6:7.2f} us/step ({steps} steps) "
                  f"{per_run[name] / samples * 1e6:7.2f} us/sample ({samples} samples)")
        if len(per_run) == 2:
            print(f"{'':>7}  -> speedup {per_run['python'] / per_run['C']:.1f}x")


if __name__ == "__main__":
    main()
