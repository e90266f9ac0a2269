"""gibq benchmark: three seeded workloads, timed end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk_point --seed 1 --seconds 20 --trace 0

--trace 0 runs the workload back to back until --seconds of measured time
have passed (at least once) and prints the end-to-end metrics; wall_s is
the mean wall time of one iteration (cross_check: one batch).  --trace 1
runs it once untraced and once traced (cross_check: as many batches as a
measured run holds at least), checks that both give byte-identical
outputs, writes the spans to perfbench/out/ and prints the per-layer
metrics.  Earlier lines of standard output carry the diagnostics (the
environment, fail_frac, max_rel_dev, work counts, failed checks); the last
line is one JSON object with the keys correct, attempted, failed and
metrics.  Workload rationale: see workloads.py.
"""

import time

_T0 = time.perf_counter()  # process start, before numpy and gibq are imported

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# Fresh processes whose set-up time is taken, half before and half after
# the measured phase so that one slow spell of a shared machine does not
# set all of them; setup_s is their median.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 120


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "gibq", "__init__.py")):
        raise SystemExit("perfbench: no gibq package under src/ in this checkout")
    sys.path.insert(0, SRC)
    import workloads

    return workloads


def _blas_threads():
    """OpenBLAS thread count of the numpy wheel, or None when unknown."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              env={**os.environ,
                                   "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "seed": seed,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from process start until the workload's inputs exist."""
    wl = _import_program().WORKLOADS[workload]
    wl.setup(seed, 0)
    return time.perf_counter() - _T0


def _probe_setup_times(workload: str, seed: int, count: int) -> list:
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _percentile_ms(samples: list, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples) * 1e3, q))


def run_untraced(wl, seed: int, seconds: float, own_setup_s: float,
                 inputs, checks, reference):
    setup_samples = _probe_setup_times(wl.name, seed, SETUP_PROBES // 2)
    walls, cases, diags = [], [], []
    cpu = 0.0
    iteration = 0
    while True:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        outputs, case_s = wl.run(inputs)
        walls.append(time.perf_counter() - t0)
        cpu += time.process_time() - cpu0
        cases.extend(case_s if case_s is not None else [walls[-1]])
        diags.append(wl.check(outputs, inputs, checks, reference))
        iteration += 1
        if sum(walls) >= seconds and len(cases) >= wl.min_cases:
            break
        inputs = wl.setup(seed, iteration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples += _probe_setup_times(wl.name, seed,
                                        SETUP_PROBES - SETUP_PROBES // 2)
    metrics = {
        # The mean, not the median, of the iterations: on a shared machine
        # whose speed switches between levels for seconds at a time, a
        # median snaps to whichever level held most of the run, while the
        # mean weighs the levels by the time spent in each.
        "wall_s": (statistics.fmean(walls), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "case_p50_ms": (_percentile_ms(cases, 50), "ms"),
        "case_p90_ms": (_percentile_ms(cases, 90), "ms"),
    }
    diagnostics = {
        "iterations": iteration,
        "walls_s": walls,
        "case_samples": len(cases),
        "setup_samples_s": setup_samples,
        "own_setup_s": own_setup_s,
        "cpu_s": cpu,
        "per_iteration": diags,
    }
    return metrics, diagnostics


def _one_pass(wl, seed: int, inputs):
    """The iterations a measured run needs to hold wl.min_cases cases, run
    once; returns [(inputs, outputs)] and the wall time of the runs."""
    done, wall, cases = [], 0.0, 0
    while cases < wl.min_cases:
        if done:
            inputs = wl.setup(seed, len(done))
        t0 = time.perf_counter()
        outputs, case_s = wl.run(inputs)
        wall += time.perf_counter() - t0
        done.append((inputs, outputs))
        cases += len(case_s) if case_s is not None else 1
    return done, wall


def run_traced(wl, seed: int, inputs, checks, reference):
    import tracer
    import workloads

    cpu0 = time.process_time()
    plain, untraced_wall = _one_pass(wl, seed, inputs)
    cpu = time.process_time() - cpu0
    with tracer.Tracer() as spans:
        # fresh inputs, so that the set-up calls are traced too
        traced, traced_wall = _one_pass(wl, seed, wl.setup(seed, 0))
    for run_inputs, outputs in plain + traced:
        wl.check(outputs, run_inputs, checks, reference)
    identical = (workloads.canonical([out for _, out in plain])
                 == workloads.canonical([out for _, out in traced]))
    checks.add("traced_outputs_identical", None, identical)

    layer = tracer.per_layer_metrics(spans.layer_stats())
    layer["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": wl.name, "seed": seed, **spans.dump()}, handle)
    diagnostics = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
                   "cpu_s": cpu, "spans": len(spans.spans),
                   "spans_file": os.path.relpath(path, ROOT)}
    return layer, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk_point", "big_N_series", "cross_check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    workloads = _import_program()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, 0)
    own_setup_s = time.perf_counter() - _T0
    reference = workloads.load_reference()
    checks = workloads.Checks()

    if args.trace:
        import tracer

        values, diagnostics = run_traced(wl, args.seed, inputs, checks, reference)
        units = tracer.per_layer_units()
        metrics = {name: {"value": v, "unit": units[name]}
                   for name, v in values.items()}
    else:
        values, diagnostics = run_untraced(wl, args.seed, args.seconds,
                                           own_setup_s, inputs, checks, reference)
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in values.items()}

    diagnostics.update(
        workload=wl.name,
        trace=args.trace,
        environment=environment(args.seed),
        fail_frac=checks.failed / checks.attempted,
        failures=[[n, v] for n, v in checks.failures()],
    )
    print(json.dumps({"diagnostics": diagnostics}, default=repr))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
