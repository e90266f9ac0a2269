"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from gibq import construction, flow, harness, norms, oracle  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


def _small_batch():
    return workloads.cross_setup(seed=3, batch=0, n_cases=len(workloads.KINDS))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, section):
    diagnostics, result = _run("--workload", "cross_check", "--seed", "4",
                               "--seconds", "0", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workloads.MIN_CASES
    assert trace or diagnostics["case_samples"] >= workloads.MIN_CASES
    want = {m["name"]: m["unit"] for m in _spec()[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert diagnostics["fail_frac"] == 0.0
    env = diagnostics["environment"]
    assert {"python", "numpy", "nproc", "blas_threads", "git_sha", "seed"} <= set(env)


def test_reference_agreement_and_corruption():
    reference = workloads.load_reference()
    values = dict(reference["big_N_series"])

    checks = workloads.Checks()
    assert workloads.check_reference(values, reference, "big_N_series", checks) == 0.0
    assert checks.failed == 0

    key = "solution_norms.sobolev"
    corrupted = {**reference, "big_N_series": {**values, key: values[key] * 1.001}}
    assert workloads.check_reference(values, corrupted, "big_N_series", checks) > 1e-4
    assert checks.failed == 1

    missing = {**reference, "big_N_series": {k: v for k, v in values.items() if k != key}}
    workloads.check_reference(values, missing, "big_N_series", checks)
    workloads.check_reference(values, None, "big_N_series", checks)
    assert checks.failed == 3
    assert checks.failed / checks.attempted == 0.75


def test_unreadable_reference_counts_as_failure(tmp_path):
    path = tmp_path / "reference.json"
    path.write_text("{not json")
    checks = workloads.Checks()
    workloads.check_reference({"x": 1.0}, workloads.load_reference(str(path)),
                              "desk_point", checks)
    assert checks.failed == 1


def test_tightened_gate_raises_fail_frac(monkeypatch):
    cases = _small_batch()
    values, seconds = workloads.cross_run(cases)
    assert len(seconds) == len(cases)
    checks = workloads.Checks()
    workloads.cross_check_gates(values, cases, checks)
    assert checks.attempted > 0 and checks.failed == 0

    monkeypatch.setitem(workloads.GATES, "closed_form", 0.0)
    monkeypatch.setitem(workloads.GATES, "modulation_algebra", 0.0)
    tight = workloads.Checks()
    workloads.cross_check_gates(values, cases, tight)
    assert tight.failed == 2
    assert tight.failed / tight.attempted > 0


def test_traced_and_untraced_outputs_identical():
    cases = _small_batch()
    plain, _ = workloads.cross_run(cases)
    original = norms.norm
    with tracer.Tracer() as spans:
        assert harness.norm is not original and norms.norm is not original
        traced, _ = workloads.cross_run(_small_batch())
    assert norms.norm is original and harness.norm is original
    assert workloads.canonical(plain) == workloads.canonical(traced)

    stats = spans.layer_stats()
    assert stats["flow.duhamel"]["calls"] > 0
    assert stats["oracle.rk4_solve"]["block"] == 2 * 448 + 1
    assert all(t >= -1e-9 for t in spans.self_times())
    metrics = tracer.per_layer_metrics(stats)
    assert set(metrics) | {"trace_overhead_frac"} == set(tracer.per_layer_units())


@pytest.mark.parametrize("amplitude,closure,tail_tol,calls", [
    (0.25, 64, math.inf, 1),     # plain run
    (2000.0, 64, math.inf, 1),   # blow-up
    (0.25, 8, 0.01, 2),          # tail breach: the closure doubles and it restarts
])
def test_rk4_step_count_matches_rhs_evaluations(monkeypatch, amplitude, closure,
                                                tail_tol, calls):
    """The traced step counts agree with the right-hand sides the solver
    evaluates, with and without blow-up, and across a retry."""
    evaluations = []
    power = oracle._dense_conv_power

    def counting(u, k):
        evaluations.append(1)
        return power(u, k)

    monkeypatch.setattr(oracle, "_dense_conv_power", counting)
    params = construction.schedule(1, 2, -0.75, delta_hint=0.25)
    pair = construction.sample_base_data(5, 0.25, amplitude, params.lattice(),
                                         max_freq=8)
    dt = params.T / 150
    with tracer.Tracer() as spans, np.errstate(all="ignore"):
        _, diag = oracle.rk4_solve(pair, params.T, dt, closure, k=2,
                                   tail_tol=tail_tol)
    assert (diag.blowup_time is not None) == (amplitude > 1)
    assert diag.enlarged == (calls == 2)
    stats = spans.layer_stats()["oracle.rk4_solve"]
    assert stats["calls"] == calls
    assert 4 * stats["steps"] == stats["rhs_calls"] == len(evaluations)
    assert all(c["steps"] > 0 for c in spans.counts)
    if calls == 1:
        assert stats["steps"] == tracer.rk4_step_count(
            flow.chebyshev_nodes(16, params.T), dt, diag.blowup_time)


def test_exits_nonzero_without_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py", "reference.json"):
        (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cross_check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
