"""Benchmark: the compiled integrator loop vs the pure-Python lane.

Usage: python benchmarks/bench_kernels.py [--repeat N]

Times (a) raw closed-form tensor evaluations, which always run in Python,
and (b) full flow runs, for a short collapsing run and two long immortal runs,
in each lane that is available.  Each flow line also gives the time per
integrator step (accepted plus rejected; both lanes take the same steps), which
separates the loop's overhead from its step count.  The compiled lane needs the
C core built next to the package (``python setup.py build_ext --inplace``).
"""
import argparse
import time

from hcflow import _core_py, core

KERNEL_POINTS = [
    (2, 0.7, 0.0, 1.0, 1.5, 0.3, -0.2),
    (3, 1.0, 0.0, 2.0, 1.0, 0.1, 0.4),
    (6, 1.0, 2.0, 1.0, 1.0, 0.3, 0.2),
    (8, 0.0, 0.0, 1.0, 1.0, 0.3, 0.4),
]

FLOW_RUNS = [
    ("hopf collapse (t ~ 2.8)", (2, 0.7, 0.0, (2.0, 0.7, 0.5, -0.3), 50.0)),
    ("properly-elliptic t = 1000", (3, 1.0, 0.0, (1.0, 1.0, 0.3, 0.2), 1000.0)),
    ("inoue-s0 t = 1000", (6, 1.0, 2.0, (1.0, 1.0, 0.3, 0.2), 1000.0)),
]


def time_kernel(mod, n):
    t0 = time.perf_counter()
    for _ in range(n):
        for args in KERNEL_POINTS:
            mod.closed_k(*args)
    return (time.perf_counter() - t0) / (n * len(KERNEL_POINTS))


def time_flow(run_closed_flow, spec, repeat):
    """Seconds per run, and integrator steps per run."""
    geom, p1, p2, s0, t_max = spec
    t0 = time.perf_counter()
    for _ in range(repeat):
        result = run_closed_flow(geom, p1, p2, s0, t_max, 1e-9, 1e-12, t_max / 1000, 1e-10)
    return (time.perf_counter() - t0) / repeat, result[3] + result[4]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"python: closed_k {time_kernel(_core_py, 20000) * 1e9:8.0f} ns/eval")
    lanes = [("python", _core_py.run_closed_flow)]
    if core.COMPILED:
        lanes.append(("C", core.run_closed_flow))
    else:
        print("compiled core not built; benchmarking the python lane only")
    for label, spec in FLOW_RUNS:
        per_run = {}
        for name, run_closed_flow in lanes:
            per_run[name], steps = time_flow(run_closed_flow, spec, args.repeat)
            print(f"{name:>7}: {label:<28} {per_run[name] * 1e3:9.2f} ms/run "
                  f"{per_run[name] / steps * 1e6:7.2f} us/step ({steps} steps)")
        if len(per_run) == 2:
            print(f"{'':>7}  -> speedup {per_run['python'] / per_run['C']:.1f}x")


if __name__ == "__main__":
    main()
