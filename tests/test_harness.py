import json
import math
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from gibq import harness, oracle
from gibq.construction import make_bump, sample_base_data, schedule_from_N
from gibq.errors import ConfigError, SeriesDivergenceError
from gibq.flow import InitialPair, Trajectory, duhamel, linear_flow
from gibq.harness import (
    _mixed_first_term,
    check_conditions,
    config_hash,
    f_weight,
    g_weight,
    resonant_split,
    run_inflation,
    sweep,
    validate_config,
)
from gibq.norms import NormSpec, norm

from conftest import BIG_N, DELTA, K, S


@pytest.fixture(scope="module")
def params():
    return schedule_from_N(256, 2, -0.75, delta_hint=0.25)


@pytest.fixture(scope="module")
def bump(params):
    return make_bump(params)


# ----------------------------------------------------------------------
# scalar ledgers
# ----------------------------------------------------------------------

def test_g_weight_branches():
    assert g_weight(-0.75, 10) == 1.0
    assert g_weight(-0.5, 10) == pytest.approx(math.sqrt(math.log(10)))
    assert g_weight(-0.25, 10) == pytest.approx(10**0.25)


def test_f_weight_values():
    # l^q of <xi>^s over the 11 integers of the A=10 cube
    xs = np.arange(-5, 6)
    w = (1 + xs.astype(float) ** 2) ** (-0.375)
    assert f_weight(-0.75, 1.0, 10) == pytest.approx(w.sum())
    assert f_weight(-0.75, math.inf, 10) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# resonant split
# ----------------------------------------------------------------------

def test_split_tuple_counts_k2(params, bump):
    split = resonant_split(bump, params.T)
    assert len(split.sigma1) == 4
    assert len(split.sigma2) == 12
    assert set(split.sigma1) == {(1, -1), (-1, 1), (2, -2), (-2, 2)}


def test_split_tuple_membership_k3():
    params3 = schedule_from_N(256, 3, -0.75, delta_hint=0.2)
    bump3 = make_bump(params3)
    split = resonant_split(bump3, params3.T)
    assert (1, 1, -2) in split.sigma1
    assert (1, -2, 1) in split.sigma1
    assert (-2, 1, 1) in split.sigma1
    assert len(split.sigma1) + len(split.sigma2) == 64


def test_split_reconstructs_first_term(params, bump):
    split = resonant_split(bump, params.T)
    flow = linear_flow(bump.phi, params.T, 16)
    direct = duhamel([flow, flow], params.T, 16)
    recon = split.reconstruction(params.R**2)
    assert (recon - direct).sup() / direct.sup() < 1e-10


def test_split_supports(params, bump):
    split = resonant_split(bump, params.T)
    # low piece inside the k*A cube around zero
    assert max(abs(int(x)) for x in split.i1.xi) <= params.k * params.A
    # high piece inside cubes around nonzero multiples of N
    for x in split.i2.xi:
        m = round(int(x) / params.N)
        assert m != 0
        assert abs(int(x) - m * params.N) <= params.k * params.A


def test_split_high_piece_smaller_in_hs(params, bump):
    split = resonant_split(bump, params.T)
    hs = NormSpec("sobolev", params.s)
    assert norm(split.i2, hs) < norm(split.i1, hs)


# ----------------------------------------------------------------------
# conditions
# ----------------------------------------------------------------------

def test_conditions_all_named(params):
    ledger = check_conditions(params, None)
    names = [c.name.split(":")[0] for c in ledger.conditions]
    assert names == ["i", "ii", "iii-a", "iii-b", "iv", "v", "vi"]


def test_condition_iii_fails_for_huge_base(params):
    lattice = params.lattice()
    base = sample_base_data(1, 0.25, 500.0, lattice)
    ledger = check_conditions(params, base)
    assert not ledger.condition("iii-b: base Wiener small").holds


def test_condition_vi_margin(params):
    ledger = check_conditions(params, None)
    rec = ledger.condition("vi: cube separation")
    assert rec.margin == pytest.approx(640 / 256)
    assert not rec.holds  # forced N=256 sits below the 64A separation floor


def test_condition_ii_measured_companion(params):
    ledger = check_conditions(params, None)
    rec = ledger.condition("ii: contraction quantity")
    measured = 0.5 * params.T**2 * (44 * params.R)
    assert rec.measured == pytest.approx(measured)


# ----------------------------------------------------------------------
# inflation runs
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def report(params):
    return run_inflation(params, base_seed=3, base_amplitude=0.4,
                         families=[{"family": "fourier_lebesgue", "q": 1}],
                         max_gen=2, method="none")


def test_report_perturbation_matches_bump(report, params, bump):
    expected = norm(bump.phi, NormSpec("sobolev_pair", params.s))
    assert report.perturbation["sobolev_pair"] == pytest.approx(expected)


def test_report_lower_ratio_positive(report):
    assert report.ledger["xi1_lower_ratio"] > 0


def test_report_series_ledger_recorded(report):
    assert len(report.series_ledger) == 3
    assert len(report.series_ratios) == 2
    assert not report.series_converged  # desk scale sits outside contraction


def test_report_serializes(report):
    doc = json.dumps(report.as_dict(), sort_keys=True)
    back = json.loads(doc)
    assert back["schema_version"] == 1
    assert back["solution_norms"] is None


def test_report_keeps_resolved_degrees_out_of_the_default_dict(report):
    # the default document is the deterministic artifact: its keys do not
    # change; the runtime record adds the series' resolved degrees
    runtime = report.as_dict(include_runtime=True)
    assert set(runtime) - set(report.as_dict()) == {
        "runtime_seconds", "series_resolved_degrees", "series_unresolved"}
    degrees = runtime["series_resolved_degrees"]
    assert len(degrees) == 3 and all(0 < d <= 16 for d in degrees)
    assert runtime["series_unresolved"] == [j for j, d in enumerate(degrees) if d == 16]
    json.dumps(runtime)


def test_amplitude_without_a_seed_samples_no_base(params):
    # no base: no mixed first-term line, and the report of the bump alone
    kwargs = dict(max_gen=2, degree=8, method="none")
    alone = run_inflation(params, **kwargs).as_dict()
    unseeded = run_inflation(params, base_amplitude=0.4, **kwargs).as_dict()
    assert unseeded == alone
    names = [line["name"] for line in unseeded["ledger"]["lemma_lines"]]
    assert "mixed first-term remainder" not in names


def test_no_series_stage_trajectory_is_alive_during_the_rk4_solve(monkeypatch, params):
    # the series terms, their partial sum and the first-term flows are
    # freed before the solve allocates its block
    made, alive = [], []
    init = Trajectory.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    def spy(*args, **kwargs):
        alive.extend(ref for ref in made if ref() is not None)
        return oracle.rk4_solve(*args, **kwargs)

    monkeypatch.setattr(Trajectory, "__init__", tracked)
    monkeypatch.setattr(harness, "rk4_solve", spy)
    report = run_inflation(params, base_seed=3, base_amplitude=0.01, max_gen=2,
                           degree=12, method="rk4", rk4_depth=2, rk4_steps=100,
                           rk4_tail_tol=1e9)
    assert report.solution_norms is not None
    assert len(made) > 5  # terms, partial sums, flows and first terms
    assert alive == []


def test_fixed_point_method_agrees_with_the_series_at_a_contracting_point():
    # N = 2^48 lies past the contraction threshold: the fixed point and the
    # series partial sum to J = 4 differ by the series tail, which the last
    # ledger entry and ratio bound geometrically
    params = schedule_from_N(1 << 48, K, S, delta_hint=DELTA)
    kwargs = dict(max_gen=4, degree=12,
                  families=[{"family": "fourier_lebesgue", "q": 1}])
    series = run_inflation(params, method="series", **kwargs).as_dict()
    fixed = run_inflation(params, method="fixed-point", **kwargs).as_dict()
    assert series["series_converged"]
    assert fixed["solution_method"] == "fixed-point"
    differ = {key for key in series if series[key] != fixed[key]}
    assert differ == {"solution_method", "solution_norms"}
    ratio = series["series_ratios"][-1]
    tail = series["series_ledger"][-1] * ratio / (1.0 - ratio)
    for key, value in series["solution_norms"].items():
        assert 0 < abs(fixed["solution_norms"][key] - value) <= tail


def test_series_method_refuses_divergent(params):
    with pytest.raises(SeriesDivergenceError):
        run_inflation(params, max_gen=2, method="series")


def test_mixed_first_term_identity(params):
    lattice = params.lattice()
    bump_l = make_bump(params, lattice)
    base = sample_base_data(5, 0.25, 0.4, lattice)
    data = InitialPair(base.u0 + bump_l.phi.u0, base.u1 + bump_l.phi.u1)
    flow_data = linear_flow(data, params.T, 16)
    flow_bump = linear_flow(bump_l.phi, params.T, 16)
    flow_base = linear_flow(base, params.T, 16)
    direct = (duhamel([flow_data, flow_data], params.T, 16)
              - duhamel([flow_bump, flow_bump], params.T, 16))
    mixed = _mixed_first_term(flow_base, flow_bump, 2, params.T, 16)
    assert (direct - mixed).sup() / max(direct.sup(), 1e-300) < 1e-10


def test_cubic_nonlinearity_pipeline():
    params3 = schedule_from_N(256, 3, -0.75, delta_hint=0.2)
    rep = run_inflation(params3, max_gen=2, method="none",
                        families=[{"family": "fourier_lebesgue", "q": 1}])
    assert rep.params["k"] == 3
    assert rep.xi1_bump["sobolev"] > 0
    assert rep.i2_over_i1 < 1
    assert rep.split_reconstruction_error < 1e-10
    assert len(rep.xi_terms_at_T) == 3


def test_lemma_line_fits_stable_over_sweep():
    fits = []
    for N in (256, 1024, 4096):
        p = schedule_from_N(N, 2, -0.75, delta_hint=0.25)
        rep = run_inflation(p, max_gen=2, method="none")
        line = [l for l in rep.ledger["lemma_lines"]
                if l["name"] == "term j=2 vs tail bound"][0]
        fits.append(line["ratio"] ** 0.5)  # fitted constant for j = 2
    assert max(fits) / min(fits) < 1.5  # no drift with N


# ----------------------------------------------------------------------
# sweep plumbing
# ----------------------------------------------------------------------

BASE_CONFIG = {
    "k": 2, "s": -0.75, "delta": 0.25, "N_list": [256, 1024],
    "families": [{"family": "fourier_lebesgue", "q": 1}],
    "seed": 1, "J": 2, "p": 12, "method": "none",
}


def test_validate_config_rejects_unknown_keys():
    cfg = dict(BASE_CONFIG)
    cfg["bogus"] = 1
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_config_requires_one_index_list():
    cfg = dict(BASE_CONFIG)
    cfg["n_list"] = [1]
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg.pop("n_list")
    cfg.pop("N_list")
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_beyond_threshold_config_is_the_large_scale_point():
    path = Path(__file__).resolve().parents[1] / "configs" / "beyond_threshold.json"
    config = validate_config(json.loads(path.read_text()))
    assert config["N_list"] == [BIG_N]
    assert (config["k"], config["s"], config["delta"]) == (K, S, DELTA)
    assert (config["J"], config["p"], config["method"]) == (4, 16, "series")
    assert config["families"] == [{"family": "fourier_lebesgue", "q": 1}]


def test_sweep_rows_and_determinism():
    reports, csv1, man1 = sweep(dict(BASE_CONFIG))
    _, csv2, man2 = sweep(dict(BASE_CONFIG))
    assert csv1 == csv2
    assert man1["config_hash"] == man2["config_hash"]
    lines = csv1.strip().splitlines()
    assert len(lines) == 3
    assert all(r is not None for r in reports)


def test_sweep_isolates_failures():
    cfg = dict(BASE_CONFIG)
    cfg["N_list"] = [256, 4]  # second N is below the cube-separation bound
    reports, csv_text, _ = sweep(cfg)
    assert reports[0] is not None
    assert reports[1] is None
    assert "ValueError" in csv_text


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_sweep_rows_package_errors_and_raises_bugs(monkeypatch, cpus):
    def diverging(params, **kwargs):
        raise SeriesDivergenceError("ledger not decaying", [1.5])

    monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(harness, "run_inflation", diverging)
    reports, csv_text, _ = sweep(dict(BASE_CONFIG))
    assert reports == [None, None]
    assert csv_text.count("SeriesDivergenceError: ledger not decaying") == 2

    def buggy(params, **kwargs):
        if params.N == 1024:
            raise TypeError("a bug")
        return diverging(params)

    monkeypatch.setattr(harness, "run_inflation", buggy)
    with pytest.raises(TypeError, match="a bug"):
        sweep(dict(BASE_CONFIG))


@pytest.mark.parametrize("cpus", [2, 4])
def test_sweep_threads_and_rk4_workers_give_the_same_bytes(monkeypatch, cpus):
    # one CPU: both points and their RK4 stages on the calling thread;
    # more: sweep threads, each with its own RK4 partner worker, and on two
    # CPUs a solve leaves its worker idle while the other point also solves
    monkeypatch.setattr(oracle, "_PAIR_MIN_MODES", 0)
    cfg = dict(BASE_CONFIG, method="rk4", rk4_depth=2, rk4_steps=100,
               rk4_tail_tol=1e9)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
    reports, serial, _ = sweep(dict(cfg))
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
    # four threads on at most two cores, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _, pooled, _ = sweep(dict(cfg))
    finally:
        sys.setswitchinterval(interval)
    assert all(r is not None for r in reports)
    assert pooled == serial


def test_sweep_runs_one_thread_per_point_up_to_the_usable_cpus(monkeypatch):
    callers = []

    def record(params, **kwargs):
        callers.append(threading.get_ident())
        meeting.wait()
        raise SeriesDivergenceError("recorded", [1.5])

    monkeypatch.setattr(harness, "run_inflation", record)
    # both points must be in run_inflation at once, so each has a thread
    meeting = threading.Barrier(2, timeout=30)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    sweep(dict(BASE_CONFIG))
    assert len(set(callers)) == 2
    assert threading.get_ident() not in callers

    callers.clear()
    meeting = threading.Barrier(1)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
    sweep(dict(BASE_CONFIG))
    assert callers == [threading.get_ident()] * 2


def test_config_hash_stable():
    h1 = config_hash(dict(BASE_CONFIG))
    h2 = config_hash(dict(sorted(BASE_CONFIG.items())))
    assert h1 == h2
