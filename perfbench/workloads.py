"""The three gibq benchmark workloads: inputs, the measured call, the gates.

Each workload loads a layer that another one barely touches, so that a
change to one layer shows its gain on one workload and a predicted "no
change" on another:

desk_point
    One acceptance-style ``run_inflation`` point (N = 2^11, k = 2, s = -3/4,
    delta = 1/4, sigma = -15/4, J = 4, p = 16, RK4 depth 13 with 200 steps
    and the tail monitor off, the four acceptance families, base data drawn
    from the seed at amplitude 0.01).  This is the dense-FFT regime: the RK4
    block is 2*57414 + 1 wide, so every right-hand side is a length-2^18
    complex FFT pair (about 55-60 % of the wall time); the series takes the
    batched dense Duhamel fold (about 40 %); norms take under 1 %.  It sits
    between the pinned acceptance scales: the N = 2^12 point alone takes
    about 62 s on a 2-core machine, too long to repeat for every run.  The
    work does not depend on the seed: measured with seeds 3 and 12345, the
    blow-up time (0.06913121487928363, also reached with zero base data),
    the 155 RK4 steps, the 106 Duhamel calls and their total dense span
    (3 240 408 entries) are the same, and the Duhamel outputs differ by
    0.07 % in stored modes.

big_N_series
    The series half of tests/test_large_scale.py at N = 2^40:
    ``run_inflation(method="series", J=4)`` with FL q = 1, then
    ``partial_sum`` J = 4 and ``tail_residual`` on the bump plus seeded
    base data with |xi| <= 2 at amplitude 1e-3.  This is the sparse regime:
    all of the time goes to the sparse Duhamel fold and the chunked
    ``np.unique`` merge in ``_convolve_arrays`` (``tail_residual`` with its
    Duhamel calls is 70-80 %); there is no RK4 and no dense box.  The
    seeded base leaves the term supports at 188/402/696/1070 for j >= 1
    whatever the seed.  The base data of ``run_inflation`` itself is not
    used: its 129 modes (|xi| <= 64) widen every term support and make the
    workload several times heavier.

cross_check
    Seeded batches of small independent differential cases, taken in
    round-robin order: closed form against quadrature (k = 2 and 3, N drawn
    per case so no two cases repeat and a result cache cannot fake a gain;
    the draws cycle through five strata of the range, so that the mix of
    case costs, which grow with N, is the same for every seed),
    the tree-sum identity, three-way agreement of series, fixed point and
    small-block RK4 (block 2*448 + 1, 200 steps), the embedding chain and
    the algebra checks on a line-surrogate field, and the sandwich with the
    Young, Hermitian, Parseval and tree-count checks of ``verify_all``.
    The same layers are used here through many small calls, where the fixed
    cost per call dominates: a kernel that wins on big boxes but adds set-up
    cost per call shows up here as a loss.  ``verify-all --quick`` alone
    (0.3 s) is too short to time steadily, so its checks are folded in.

Left out on purpose: the Tier-1 suite (it is the correctness bar, not a
user-facing run, and its 128 s would dominate every run) and the N = 2^12
acceptance point (62 s, see above).

Gates use the frozen acceptance tolerances; rounding-level values such as
a 4e-16 closed-form error are gates, never metrics.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from gibq import construction, flow, harness, lattice, norms, oracle, series, trees

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Frozen tolerances of the acceptance suite (criteria 2, 3, 4, 5, 8, 9).
GATES = {
    "closed_form": 1e-10,        # closed form against quadrature, relative
    "tree_sum": 1e-10,           # xi_terms against the sum of tree terms
    "three_way": 1e-6,           # series, fixed point and RK4, pairwise
    "young": 1e-12,              # l1(f*g) <= (1 + tol) l1(f) l1(g)
    "hermitian": 1e-12,
    "parseval": 1e-10,
    "modulation_algebra": 8.0,   # measured M(2,1) algebra constant
    "perturbation_unchanged": 1e-12,
    "xi1_lower_window": (300.0, 5000.0),
    # Agreement with reference.json: far above rounding (max_rel_dev, the
    # diagnostic, is ~1e-15 when only the summation order moves), so only
    # a change of the computed numbers themselves trips it.
    "reference": 1e-6,
}

ACCEPT_FAMILIES = [
    {"family": "fourier_lebesgue", "q": 1},
    {"family": "fourier_lebesgue", "q": None},
    {"family": "modulation", "q": 1},
    {"family": "wiener_amalgam", "q": 2},
]

K, S, DELTA = 2, -0.75, 0.25


@dataclass
class Checks:
    """Correctness checks attempted and failed, with their values."""

    results: list = field(default_factory=list)   # (name, value, passed)

    def add(self, name: str, value, passed: bool):
        self.results.append((name, value, bool(passed)))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, ok in self.results if not ok)

    def failures(self) -> list:
        return [(n, v) for n, v, ok in self.results if not ok]


def base_seed(seed: int) -> int:
    """numpy generators take non-negative seeds."""
    return seed % (1 << 64)


# ----------------------------------------------------------------------
# reference numbers
# ----------------------------------------------------------------------

def flatten(doc, prefix: str = "") -> dict:
    """Numeric leaves of a JSON-like document keyed by their path."""
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(doc, (list, tuple)):
        for i, value in enumerate(doc):
            out.update(flatten(value, f"{prefix}{i}."))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out[prefix[:-1]] = float(doc)
    return out


def load_reference(path: str = REFERENCE_PATH):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def check_reference(values: dict, reference, section: str, checks: Checks):
    """Record max_rel_dev against the stored reference; a missing or
    unreadable reference, a missing number or a deviation above the
    reference gate counts as one failed check.  Returns max_rel_dev."""
    ref = (reference or {}).get(section) if isinstance(reference, dict) else None
    if not isinstance(ref, dict) or set(ref) != set(values):
        checks.add(f"{section}.reference", None, False)
        return None
    worst = 0.0
    for key, want in ref.items():
        got = values[key]
        if not isinstance(want, (int, float)) or not math.isfinite(got):
            worst = math.inf
            continue
        dev = abs(got - want) / abs(want) if want else abs(got)
        worst = max(worst, dev)
    checks.add(f"{section}.reference", worst, worst <= GATES["reference"])
    return worst


# ----------------------------------------------------------------------
# desk_point
# ----------------------------------------------------------------------

DESK_N = 1 << 11
DESK_SIGMA = -3.75
DESK_RK4 = {"depth": 13, "steps": 200, "tail_tol": math.inf}


def desk_setup(seed: int, iteration: int) -> dict:
    params = construction.schedule_from_N(DESK_N, K, S, sigma=DESK_SIGMA,
                                          delta_hint=DELTA)
    return {"params": params, "base_seed": base_seed(seed)}


def desk_run(inputs: dict):
    report = harness.run_inflation(
        inputs["params"], base_seed=inputs["base_seed"], base_amplitude=0.01,
        families=ACCEPT_FAMILIES, max_gen=4, degree=16, method="rk4",
        rk4_depth=DESK_RK4["depth"], rk4_steps=DESK_RK4["steps"],
        rk4_tail_tol=DESK_RK4["tail_tol"],
    )
    return report.as_dict(), None


def desk_reference_values(doc: dict) -> dict:
    """The report numbers that do not depend on the base-data seed: those
    of the bump alone and the seed-free parameter conditions.  The RK4
    blow-up time is left out: its definition is due to change."""
    ledger = doc["ledger"]
    picked = {
        "perturbation": doc["perturbation"],
        "xi1_bump": doc["xi1_bump"],
        "i1_hs": doc["i1_hs"],
        "i2_hs": doc["i2_hs"],
        "i2_over_i1": doc["i2_over_i1"],
        "g_s_of_A": ledger["g_s_of_A"],
        "f_sq_of_A": ledger["f_sq_of_A"],
        "xi1_lower_ratio": ledger["xi1_lower_ratio"],
        "conditions": {c["name"]: [c["lhs"], c["rhs"]]
                       for c in ledger["conditions"]
                       if not c["name"].startswith("iii")},
    }
    return flatten(picked)


def desk_check(doc: dict, inputs: dict, checks: Checks, reference) -> dict:
    err = doc["split_reconstruction_error"]
    checks.add("desk.closed_form", err, err < GATES["closed_form"])
    lo, hi = GATES["xi1_lower_window"]
    ratio = doc["ledger"]["xi1_lower_ratio"]
    checks.add("desk.xi1_lower_window", ratio, lo <= ratio <= hi)
    fresh_params = construction.schedule_from_N(DESK_N, K, S, delta_hint=DELTA)
    bump = construction.make_bump(fresh_params)
    fresh = norms.norm(bump.phi, norms.NormSpec("sobolev_pair", S))
    dev = abs(fresh - doc["perturbation"]["sobolev_pair"])
    checks.add("desk.perturbation_unchanged", dev,
               dev <= GATES["perturbation_unchanged"] * fresh)
    max_rel_dev = check_reference(desk_reference_values(doc), reference,
                                  "desk_point", checks)
    # recorded, not gated: the blow-up criterion is due to change
    blowup = (doc["solution_norms"] or {}).get("blowup_time")
    return {"max_rel_dev": max_rel_dev, "blowup_time": blowup,
            "series_ratios": doc["series_ratios"]}


# ----------------------------------------------------------------------
# big_N_series
# ----------------------------------------------------------------------

BIG_N = 1 << 40


def big_setup(seed: int, iteration: int) -> dict:
    params = construction.schedule_from_N(BIG_N, K, S, delta_hint=DELTA)
    lat = params.lattice()
    bump = construction.make_bump(params, lat)
    base = construction.sample_base_data(base_seed(seed), 0.25, 1e-3, lat,
                                         max_freq=2)
    return {"params": params, "data": construction.perturbed_data(base, bump)}


def big_run(inputs: dict):
    params, data = inputs["params"], inputs["data"]
    report = harness.run_inflation(
        params, max_gen=4, method="series",
        families=[{"family": "fourier_lebesgue", "q": 1}],
    )
    acc = series.partial_sum(data, K, 4, params.T, 16)
    residual = series.tail_residual(acc, data, K, 16)
    return {
        "report": report.as_dict(),
        "tail_residual": residual,
        "partial_sup_l1": acc.partial.sup_l1(),
        "term_nnz": [t.trajectory.fields[-1].nnz for t in acc.terms],
    }, None


def big_reference_values(doc: dict) -> dict:
    """Every number of the bump-only report (it has no base data, so none
    depends on the seed) except the rounding-level reconstruction error."""
    report = dict(doc["report"])
    report.pop("split_reconstruction_error")
    report.pop("seed")
    return flatten(report)


def big_check(doc: dict, inputs: dict, checks: Checks, reference) -> dict:
    """The assertions of tests/test_large_scale.py on this output."""
    params = inputs["params"]
    rep = doc["report"]
    checks.add("big.conditions_hold", None,
               all(c["holds"] for c in rep["ledger"]["conditions"]))
    checks.add("big.ledger_decays", max(rep["series_ratios"]),
               rep["series_converged"] and max(rep["series_ratios"]) < 0.7)
    xi1 = rep["xi1_bump"]["sobolev"]
    sol = (rep["solution_norms"] or {}).get("sobolev", math.nan)
    pert = rep["perturbation"]["sobolev_pair"]
    checks.add("big.tail_domination", rep["tail_sum_hs"] / xi1,
               rep["tail_sum_hs"] < 0.5 * xi1)
    checks.add("big.solution_window", sol / xi1, 0.5 <= sol / xi1 <= 2.0)
    checks.add("big.inflation_inequalities", sol / pert,
               pert < 1.0 / params.n and sol > params.n and sol > 1e7 * pert)
    checks.add("big.i2_over_i1", rep["i2_over_i1"], rep["i2_over_i1"] < 1e-8)
    rel = doc["tail_residual"] / doc["partial_sup_l1"]
    checks.add("big.tail_residual", rel, rel < 0.05)
    max_rel_dev = check_reference(big_reference_values(doc), reference,
                                  "big_N_series", checks)
    return {"max_rel_dev": max_rel_dev,
            "work": {"term_nnz": doc["term_nnz"]}}


# ----------------------------------------------------------------------
# cross_check
# ----------------------------------------------------------------------

# A run takes batches until --seconds have passed and it holds at least
# MIN_CASES cases, so that ten lie beyond p90; small batches let a run end
# close to --seconds.  Ten cases keep both values of k in every batch.
CASES_PER_BATCH = 10         # two of each kind
MIN_CASES = 100
KINDS = ("closed_form", "tree_sum", "three_way", "embedding", "verify")
CLOSED_FORM_N = {2: (256, 4096), 3: (256, 1536)}   # inclusive ranges
CLOSED_FORM_DELTA = {2: 0.25, 3: 0.2}
CLOSED_FORM_STRATA = 5


def _hermitian_field(lat, rng, max_freq: int, amplitude: float):
    xi = np.arange(1, max_freq + 1)
    z = rng.standard_normal(max_freq) + 1j * rng.standard_normal(max_freq)
    z *= amplitude * np.exp(-0.1 * xi)
    pairs = [(0, amplitude * rng.standard_normal())]
    pairs += [(int(x), v) for x, v in zip(xi, z)]
    pairs += [(-int(x), np.conj(v)) for x, v in zip(xi, z)]
    return lattice.SpectralField.from_pairs(lat, pairs)


def _line_field(lat, rng):
    """Band-limited field on the line surrogate (multi-point bands)."""
    n_modes = int(rng.integers(3, 40))
    xi = rng.choice(np.arange(1, 64), size=n_modes, replace=False)
    amps = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    pairs = [(int(x), a) for x, a in zip(xi, amps)]
    pairs += [(-int(x), np.conj(a)) for x, a in zip(xi, amps)]
    pairs += [(0, float(rng.standard_normal()))]
    return lattice.SpectralField.from_pairs(lat, pairs)


def _closed_form_Ns(seed: int, k: int, batch: int, count: int) -> list:
    """One N per case.  The range is cut into CLOSED_FORM_STRATA equal
    strata and the i-th closed-form case of a run draws from stratum
    i mod CLOSED_FORM_STRATA, so that every run holds the same mix of small
    and large N whatever the seed; within a stratum the draws follow a
    seeded permutation, so no N repeats within a run."""
    lo, hi = CLOSED_FORM_N[k]
    width = (hi - lo + 1) // CLOSED_FORM_STRATA
    Ns = []
    for i in range(batch * count, (batch + 1) * count):
        j = i % CLOSED_FORM_STRATA
        stratum = np.random.default_rng([base_seed(seed), k, j]).permutation(width)
        Ns.append(lo + j * width + int(stratum[(i // CLOSED_FORM_STRATA) % width]))
    return Ns


def cross_setup(seed: int, batch: int, n_cases: int = CASES_PER_BATCH) -> list:
    rng = np.random.default_rng([base_seed(seed), batch, 7])
    kinds = [KINDS[i % len(KINDS)] for i in range(n_cases)]
    n_closed = kinds.count("closed_form")
    Ns = {k: iter(_closed_form_Ns(seed, k, batch, (n_closed + 1) // 2))
          for k in (2, 3)}
    torus = lattice.FrequencyLattice(period=1.0, cutoff=1 << 24)
    small = lattice.FrequencyLattice(period=1.0, cutoff=1 << 22)
    line = lattice.FrequencyLattice(period=8.0, cutoff=1 << 20,
                                    kind="line_approx")
    three_params = construction.schedule(1, K, S, delta_hint=DELTA)
    three_lattice = three_params.lattice()
    cases = []
    for i, kind in enumerate(kinds):
        nth = i // len(KINDS)
        case = {"kind": kind}
        if kind == "closed_form":
            k = 2 if nth % 2 == 0 else 3
            params = construction.schedule_from_N(
                next(Ns[k]), k, S, delta_hint=CLOSED_FORM_DELTA[k])
            case.update(params=params, bump=construction.make_bump(params))
        elif kind == "tree_sum":
            case.update(k=2 if nth % 2 == 0 else 3, pair=flow.InitialPair(
                _hermitian_field(small, rng, 8, 0.4),
                _hermitian_field(small, rng, 8, 0.4)))
        elif kind == "three_way":
            case.update(params=three_params, pair=construction.sample_base_data(
                int(rng.integers(1 << 62)), 0.25, 0.25, three_lattice))
        elif kind == "embedding":
            case.update(f=_line_field(line, rng), g=_line_field(line, rng))
        else:
            A = (2, 10, 50)[nth % 3]
            case.update(A=A, a=int(rng.integers(-3 * A, 3 * A + 1)),
                        b=int(rng.integers(-3 * A, 3 * A + 1)),
                        k=2 if nth % 2 == 0 else 3,
                        f=_hermitian_field(torus, rng, 24, 1.0),
                        g=_hermitian_field(torus, rng, 24, 1.0))
        cases.append(case)
    return cases


def _closed_form_case(case):
    params, bump = case["params"], case["bump"]
    lin = flow.linear_flow(bump.phi, params.T, 16)
    quad = flow.duhamel([lin] * params.k, params.T, 16)
    closed = oracle.xi1_closed_form(bump, params.T)
    return {"closed_form": (quad - closed).sup() / closed.sup()}


def _tree_sum_case(case, horizon=0.4, degree=12, j=2):
    k, pair = case["k"], case["pair"]
    terms = series.xi_terms(pair, k, j, horizon, degree)
    total = None
    for tree in trees.enumerate_trees(k, j):
        piece = series.tree_term(pair, tree, horizon, degree)
        total = piece if total is None else total + piece
    return {"tree_sum": terms[j].sup_distance(total) / terms[j].sup_l1()}


def _three_way_case(case, max_gen=3, degree=12, steps=200):
    T, pair = case["params"].T, case["pair"]
    acc = series.partial_sum(pair, K, max_gen, T, degree)
    fixed = series.fixed_point(pair, K, T, 1e-9, degree)
    closure = oracle.closure_from_depth(pair, K, 6)
    rk4, _ = oracle.rk4_solve(pair, T, T / steps, closure, k=K,
                              node_degree=degree)
    return {"three_way": max(acc.partial.sup_distance(fixed),
                             acc.partial.sup_distance(rk4),
                             fixed.sup_distance(rk4))}


def _embedding_case(case):
    margins = norms.check_embeddings(case["f"], S)
    algebra = norms.check_algebra(case["f"], case["g"])
    return {
        "embeddings_hold": all(m.holds for m in margins[:-1]),
        "wiener_algebra_holds": algebra[0].holds,
        "modulation_algebra": algebra[1].ratio,
    }


def _verify_case(case):
    rep = oracle.convolution_sandwich(case["a"], case["b"], case["A"])
    f, g = case["f"], case["g"]
    fg = lattice.convolve(f, g, prune=0.0)
    grid = lattice.synthesize(f, oversample=4)
    table = trees.count_trees(case["k"], 8)
    return {
        "sandwich_holds": rep.holds,
        "young": fg.l1() / (f.l1() * g.l1()),
        "hermitian_holds": fg.is_hermitian(GATES["hermitian"]),
        "parseval": abs(grid.l2() - f.l2()) / f.l2(),
        "tree_counts_hold": all(table[j] == trees.fuss_catalan(case["k"], j)
                                for j in range(9)),
    }


_CASE_RUNNERS = {
    "closed_form": _closed_form_case,
    "tree_sum": _tree_sum_case,
    "three_way": _three_way_case,
    "embedding": _embedding_case,
    "verify": _verify_case,
}


def cross_run(cases: list):
    """Run every case; returns (per-case values, per-case seconds)."""
    values, seconds = [], []
    for case in cases:
        t0 = time.perf_counter()
        out = _CASE_RUNNERS[case["kind"]](case)
        seconds.append(time.perf_counter() - t0)
        values.append({"kind": case["kind"], **out})
    return values, seconds


def cross_check_gates(values: list, inputs, checks: Checks, reference=None) -> dict:
    for v in values:
        kind = v["kind"]
        if kind in ("closed_form", "tree_sum", "three_way"):
            checks.add(kind, v[kind], v[kind] < GATES[kind])
        elif kind == "embedding":
            checks.add("embeddings_hold", None, v["embeddings_hold"])
            checks.add("wiener_algebra_holds", None, v["wiener_algebra_holds"])
            checks.add("modulation_algebra", v["modulation_algebra"],
                       v["modulation_algebra"] <= GATES["modulation_algebra"])
        else:
            checks.add("sandwich_holds", None, v["sandwich_holds"])
            checks.add("young", v["young"], v["young"] <= 1.0 + GATES["young"])
            checks.add("hermitian_holds", None, v["hermitian_holds"])
            checks.add("parseval", v["parseval"], v["parseval"] <= GATES["parseval"])
            checks.add("tree_counts_hold", None, v["tree_counts_hold"])
    return {"cases": len(values)}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object     # (seed, iteration) -> inputs
    run: object       # inputs -> (outputs, per-case seconds or None)
    check: object     # (outputs, inputs, Checks, reference) -> diagnostics
    min_cases: int = 1   # case samples a measured run must hold


WORKLOADS = {
    "desk_point": Workload("desk_point", desk_setup, desk_run, desk_check),
    "big_N_series": Workload("big_N_series", big_setup, big_run, big_check),
    "cross_check": Workload("cross_check", cross_setup, cross_run,
                            cross_check_gates, MIN_CASES),
}


def canonical(outputs) -> str:
    """Byte-exact serialisation used to compare traced and untraced runs."""
    return json.dumps(outputs, sort_keys=True, default=repr)
