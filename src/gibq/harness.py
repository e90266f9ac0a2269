"""End-to-end norm-inflation experiments and estimate bookkeeping.

Every asymptotic comparison from the construction is turned into a logged
ratio: the six parameter conditions, the multilinear estimate lines, and
the lower bound on the first Picard term.  Nothing here asserts a
universal constant; pass windows live in the caller's configuration.

The measured solution norm can come from three methods: the truncated
power series (which refuses to report when its ledger is not decaying),
the fixed-point iteration, or the independent RK4 oracle.  At desk-scale
parameters the scheduled horizon sits outside the contraction regime, so
the RK4 route is the honest default for solution norms; the series ledger
is still recorded run by run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import oracle
from .construction import (
    CUBE_CENTERS,
    CUBE_SEPARATION,
    BumpData,
    InflationParams,
    initial_data,
    schedule,
    schedule_from_N,
)
from .errors import ConfigError, GibqError, SeriesDivergenceError
from .flow import DEFAULT_DEGREE, InitialPair, duhamel, linear_flow
from .lattice import SpectralField, bracket
from .norms import FAMILIES, PAIR_FAMILIES, NormSpec, norm
from .oracle import TAIL_TOL, closure_from_depth, rk4_solve, xi1_closed_form
from .series import FIXED_POINT_TOL, fixed_point, partial_sum

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# scalar ledgers
# ----------------------------------------------------------------------

def g_weight(s: float, A: int) -> float:
    """Low-frequency bracket mass: 1, (log A)^(1/2) or A^(1/2+s) by the
    position of s relative to -1/2."""
    if s < -0.5:
        return 1.0
    if s == -0.5:
        return math.sqrt(math.log(A))
    return float(A) ** (0.5 + s)


def f_weight(s: float, q: float, A: int) -> float:
    """lq norm of the bracket weight over the integer cube [-A/2, A/2]."""
    xs = np.arange(-(A // 2), A // 2 + 1)
    vals = bracket(xs) ** s
    if math.isinf(q):
        return float(np.max(vals))
    return float(np.sum(vals**q) ** (1.0 / q))


@dataclass
class ConditionRecord:
    name: str
    lhs: float
    rhs: float
    measured: float | None = None

    @property
    def margin(self) -> float:
        return self.lhs / self.rhs if self.rhs else math.inf

    @property
    def holds(self) -> bool:
        return self.margin < 1.0

    def as_dict(self) -> dict:
        return {
            "name": self.name, "lhs": self.lhs, "rhs": self.rhs,
            "margin": self.margin, "holds": self.holds,
            "measured": self.measured,
        }


@dataclass
class LemmaLine:
    name: str
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs else math.inf

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "ratio": self.ratio}


@dataclass
class EstimateLedger:
    g_s_of_A: float
    f_sq_of_A: dict
    conditions: list = field(default_factory=list)
    lemma_lines: list = field(default_factory=list)
    xi1_lower_ratio: float | None = None

    def condition(self, name: str) -> ConditionRecord:
        for rec in self.conditions:
            if rec.name == name:
                return rec
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "g_s_of_A": self.g_s_of_A,
            "f_sq_of_A": self.f_sq_of_A,
            "conditions": [c.as_dict() for c in self.conditions],
            "lemma_lines": [l.as_dict() for l in self.lemma_lines],
            "xi1_lower_ratio": self.xi1_lower_ratio,
        }


def check_conditions(params: InflationParams,
                     base: InitialPair | None) -> EstimateLedger:
    """Evaluate parameter conditions (i)-(vi) with measured companions.

    Failures are recorded, never raised.  When sigma < s the powers of A
    in (iii), (iv) and (v) switch to the sigma variant.
    """
    n, k, s, A, N, R, T = (params.n, params.k, params.s, params.A,
                           params.N, params.R, params.T)
    sig = min(params.sigma, s)
    gs = g_weight(s, A)
    fs = {q: f_weight(s, qv, A)
          for q, qv in (("1", 1.0), ("2", 2.0), ("inf", math.inf))}

    base_h0 = norm(base, NormSpec("sobolev_pair", 0.0)) if base else 0.0
    base_fl1 = norm(base, NormSpec("wiener_pair")) if base else 0.0

    conds = [
        ConditionRecord("i: perturbation below 1/n",
                        n * R * math.sqrt(A) * N**s, 1.0),
        ConditionRecord("ii: contraction quantity",
                        T**2 * R ** (k - 1) * A ** (k - 1), 1.0,
                        measured=0.5 * T**2 * (4.0 * (A + 1) * R) ** (k - 1)),
        ConditionRecord("iii-a: base H0 small",
                        base_h0, R * A ** (0.5 + sig)),
        ConditionRecord("iii-b: base Wiener small", base_fl1, R * A),
        ConditionRecord("iv: tail below main term",
                        T**4 * (R * A) ** (2 * (k - 1)) * R * gs,
                        T**2 * R**k * A ** (k - 0.5 + sig)),
        ConditionRecord("v: main term above n",
                        float(n), T**2 * R**k * A ** (k - 0.5 + sig)),
        ConditionRecord("vi: cube separation", float(CUBE_SEPARATION * A), float(N)),
    ]
    return EstimateLedger(g_s_of_A=gs, f_sq_of_A=fs, conditions=conds)


# ----------------------------------------------------------------------
# resonant split
# ----------------------------------------------------------------------

@dataclass
class ResonantSplit:
    sigma1: list      # k-tuples of cube centres (multiples of N) summing to 0
    sigma2: list
    i1: SpectralField
    i2: SpectralField

    def reconstruction(self, scale: float) -> SpectralField:
        return (self.i1 + self.i2).scale(scale)


def resonant_split(bump: BumpData, horizon: float) -> ResonantSplit:
    """Partition the first Picard term by whether the contributing cube
    centres sum to zero.  Supports: i1 inside the k*A cube around zero, i2
    inside cubes around the nonzero multiples of N."""
    k = bump.params.k
    tuples = list(itertools.product(CUBE_CENTERS, repeat=k))
    sigma1 = [t for t in tuples if sum(t) == 0]
    sigma2 = [t for t in tuples if sum(t) != 0]
    if not sigma1 or not sigma2:
        raise ValueError(
            f"degenerate resonant split for k={k}: "
            f"|Sigma1|={len(sigma1)}, |Sigma2|={len(sigma2)}"
        )
    i1 = xi1_closed_form(bump, horizon, unit_amplitude=True,
                         centre_filter=lambda c: sum(c) == 0)
    i2 = xi1_closed_form(bump, horizon, unit_amplitude=True,
                         centre_filter=lambda c: sum(c) != 0)
    return ResonantSplit(sigma1=sigma1, sigma2=sigma2, i1=i1, i2=i2)


# ----------------------------------------------------------------------
# inflation runs
# ----------------------------------------------------------------------

def family_label(spec_dict: dict) -> str:
    fam = spec_dict["family"]
    q = spec_dict.get("q", math.inf)
    if fam in ("sobolev", "w_s2inf"):
        return fam
    qtxt = "inf" if (q is None or math.isinf(float(q))) else f"{float(q):g}"
    return f"{fam}_q{qtxt}"


def _family_norms(obj, families: list, s: float) -> dict:
    """Norm of obj in each requested family at regularity s, by label."""
    out = {}
    for spec_dict in families:
        q = spec_dict.get("q", math.inf)
        q = math.inf if q in (None, "inf") else float(q)
        out[family_label(spec_dict)] = norm(obj, NormSpec(spec_dict["family"], s=s, q=q))
    return out


# InflationReport fields of the runtime record, out of the default as_dict
_RUNTIME_KEYS = ("runtime_seconds", "series_resolved_degrees", "series_unresolved")


@dataclass
class InflationReport:
    schema_version: int
    params: dict
    seed: int | None
    families: list
    perturbation: dict          # label -> norm of the perturbation pair
    xi_terms_at_T: list         # per j: dict of norms of the full-data term
    xi1_bump: dict              # norms of the bump's first Picard term
    i1_hs: float
    i2_hs: float
    i2_over_i1: float
    split_reconstruction_error: float
    tail_sum_hs: float          # sum_{j>=2} H^s norms of the full-data terms
    ledger: dict
    series_ledger: list
    series_ratios: list
    series_converged: bool
    solution_method: str
    solution_norms: dict | None
    runtime_seconds: float = 0.0
    series_resolved_degrees: list = field(default_factory=list)  # per generation
    series_unresolved: list = field(default_factory=list)  # generations without a plateau

    def as_dict(self, include_runtime: bool = False) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        if not include_runtime:
            for key in _RUNTIME_KEYS:
                del doc[key]
        return doc


def run_inflation(params: InflationParams,
                  base_seed: int | None = None,
                  base_amplitude: float = 0.0,
                  base_decay: float = 0.25,
                  families: list | None = None,
                  max_gen: int = 4,
                  degree: int = DEFAULT_DEGREE,
                  method: str = "rk4",
                  rk4_depth: int = 18,
                  rk4_steps: int = 400,
                  rk4_tail_tol: float = TAIL_TOL) -> InflationReport:
    """One full experiment at fixed parameters.

    Builds the perturbed data, computes series terms up to max_gen,
    evaluates every recorded quantity, and measures the solution norm by
    the requested method.  The series/fixed-point methods raise
    SeriesDivergenceError when the term ledger is not decaying; the rk4
    method never needs the series to converge.
    """
    t_start = time.perf_counter()
    if families is None:
        families = [{"family": "sobolev"}]
    if max_gen < 2:
        raise ValueError("max_gen must be >= 2")
    lattice = params.lattice(max_gen=max(max_gen, 8),
                             ode_depth=max(20, rk4_depth + 2))
    base, bump, data = initial_data(params, lattice, base_seed,
                                    base_amplitude, base_decay)

    hs_pair = NormSpec("sobolev_pair", params.s)
    hs = NormSpec("sobolev", params.s)
    hsig = NormSpec("sobolev", params.sigma)
    h0_pair = NormSpec("sobolev_pair", 0.0)

    ledger = check_conditions(params, base)

    # perturbation norms (the bump is the perturbation)
    perturbation = {
        "sobolev_pair": norm(bump.phi, hs_pair),
        "w_s2inf_pair": norm(bump.phi, NormSpec("w_s2inf", params.s)),
    }
    perturbation.update(_family_norms(bump.phi, families, params.s))

    # series terms of the full data
    acc = partial_sum(data, params.k, max_gen, params.T, degree)
    final = acc.partial.nodes.size - 1
    term_fields = [t.trajectory.field(final) for t in acc.terms]
    xi_rows = []
    for j, f in enumerate(term_fields):
        row = {"j": j, "sobolev": norm(f, hs), "fl1_sup": acc.ledger[j]}
        row.update(_family_norms(f, families, params.s))
        xi_rows.append(row)
    tail_sum_hs = float(sum(row["sobolev"] for row in xi_rows if row["j"] >= 2))

    # first Picard term of the bump alone, Duhamel path
    flow_bump = linear_flow(bump.phi, params.T, degree)
    xi1_bump_field = duhamel([flow_bump] * params.k, params.T, degree)
    xi1_bump = {
        "sobolev": norm(xi1_bump_field, hs),
        "sobolev_sigma": norm(xi1_bump_field, hsig),
    }
    xi1_bump.update(_family_norms(xi1_bump_field, families, params.s))

    # resonant split (closed-form path) and its reconstruction error
    split = resonant_split(bump, params.T)
    recon = split.reconstruction(params.R ** params.k)
    denom = max(xi1_bump_field.sup(), 1e-300)
    recon_err = (recon - xi1_bump_field).sup() / denom
    i1_hs = norm(split.i1, hs)
    i2_hs = norm(split.i2, hs)

    # lower-bound ratio for the first Picard term in the target regularity
    pred = (params.R ** params.k * params.T**2
            * params.A ** (params.k - 0.5 + params.sigma))
    ledger.xi1_lower_ratio = xi1_bump["sobolev_sigma"] / pred

    # multilinear estimate lines at t = T
    lines = [LemmaLine("perturbation vs R N^s A^(1/2)",
                       perturbation["sobolev_pair"],
                       params.R * params.N**params.s * math.sqrt(params.A))]
    base_hs = norm(base, hs_pair) if base is not None else 0.0
    base_h0 = norm(base, h0_pair) if base is not None else 0.0
    lines.append(LemmaLine(
        "linear term vs base + R A^(1/2) N^s",
        xi_rows[0]["sobolev"],
        base_hs + params.R * math.sqrt(params.A) * params.N**params.s,
    ))
    if base is not None:
        # difference of first terms: all argument tuples with >= 1 base slot
        flow_base = linear_flow(base, params.T, degree)
        diff_field = _mixed_first_term(flow_base, flow_bump, params.k,
                                       params.T, degree)
        lines.append(LemmaLine(
            "mixed first-term remainder",
            norm(diff_field, hs),
            params.T**2 * params.R ** (params.k - 1)
            * params.A ** (params.k - 1) * base_h0,
        ))
    for j in range(2, max_gen + 1):
        rhs = (params.T ** (2 * j) * (params.R * params.A) ** ((params.k - 1) * j)
               * (base_h0 + params.R * ledger.g_s_of_A))
        lines.append(LemmaLine(f"term j={j} vs tail bound",
                               xi_rows[j]["sobolev"], rhs))
    ledger.lemma_lines = lines

    # solution norm by the requested method
    ratios = acc.ratios()
    converged = all(r < 1.0 for r in ratios)
    solution_norms = None
    solution_field = None
    if method == "series":
        if not converged:
            raise SeriesDivergenceError(
                "series ledger not decaying at these parameters; "
                "use method='rk4' for the solution norm",
                ratios,
            )
        solution_field = acc.partial.field(final)
    elif method == "fixed-point":
        traj = fixed_point(data, params.k, params.T, FIXED_POINT_TOL, degree)
        solution_field = traj.field(-1)
    elif method == "rk4":
        closure = closure_from_depth(data, params.k, depth=rk4_depth)
        traj, diag = rk4_solve(data, params.T, params.T / rk4_steps,
                               closure, k=params.k, tail_tol=rk4_tail_tol)
        if diag.blowup_time is not None:
            solution_norms = {
                "status": "blow-up before horizon",
                "blowup_time": diag.blowup_time,
                "max_tail_fraction": diag.max_tail_fraction,
            }
        else:
            solution_field = traj.field(-1)
    elif method == "none":
        pass
    else:
        raise ConfigError(f"unknown method {method!r}")
    if solution_field is not None:
        solution_norms = {"sobolev": norm(solution_field, hs),
                          "sobolev_sigma": norm(solution_field, hsig)}
        if method == "rk4":
            solution_norms["max_tail_fraction"] = diag.max_tail_fraction
        solution_norms.update(_family_norms(solution_field, families, params.s))

    return InflationReport(
        schema_version=SCHEMA_VERSION,
        params=params.as_dict(),
        seed=base_seed,
        families=[family_label(f) for f in families],
        perturbation=perturbation,
        xi_terms_at_T=xi_rows,
        xi1_bump=xi1_bump,
        i1_hs=i1_hs,
        i2_hs=i2_hs,
        i2_over_i1=i2_hs / i1_hs if i1_hs else math.inf,
        split_reconstruction_error=recon_err,
        tail_sum_hs=tail_sum_hs,
        ledger=ledger.as_dict(),
        series_ledger=[float(x) for x in acc.ledger],
        series_ratios=[float(r) for r in ratios],
        series_converged=converged,
        solution_method=method,
        solution_norms=solution_norms,
        runtime_seconds=time.perf_counter() - t_start,
        series_resolved_degrees=acc.resolved_degrees,
        series_unresolved=acc.unresolved,
    )


def _mixed_first_term(flow_base, flow_bump, k: int, horizon: float,
                      degree: int) -> SpectralField:
    """Sum of first-order Duhamel terms with at least one base argument."""
    pieces = [duhamel([flow_bump if p else flow_base for p in pattern], horizon, degree)
              for pattern in itertools.product((0, 1), repeat=k) if not all(pattern)]
    return sum(pieces[1:], pieces[0])


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

_CONFIG_KEYS = {
    "k", "s", "sigma", "delta", "n_list", "N_list", "families", "seed",
    "J", "p", "method", "base_amplitude", "base_decay", "rk4_depth",
    "rk4_steps", "rk4_tail_tol",
}

_REQUIRED_KEYS = {"k", "s", "families", "seed", "J", "p", "method"}

# The numeric keys of sweep and solve configs: integers (an integral float
# such as JSON's 1e6 counts), lists of them, and real numbers, of which
# sigma and delta may be null for their defaults.
_INTEGER_KEYS = {"k", "seed", "J", "p", "n", "N", "rk4_depth", "rk4_steps"}
_INTEGER_LIST_KEYS = {"n_list", "N_list"}
_REAL_KEYS = {"s", "sigma", "delta", "base_amplitude", "base_decay",
              "rk4_tail_tol"}
_BOOLEAN_KEYS = {"bump"}
# The least value of an integer key: a node degree p of 0 is the single
# node t = 0, numpy's generators take no negative seed, run_inflation
# needs the series generations 0..J for J >= 2, the schedule an arity k of
# at least 2, and rk4_solve a step T / rk4_steps of at most T / 100.
_MINIMUMS = {"p": 1, "seed": 0, "J": 2, "k": 2, "rk4_steps": 100}


def check_keys(config, known: set, required: set, index_keys: tuple):
    """ConfigError unless config is an object of known keys with all the
    required ones, exactly one of the two index_keys, numbers where
    numbers are read, booleans where booleans are, values at least the
    _MINIMUMS of their keys, no empty index list and s < 0."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = required - set(config)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    if sum(key in config for key in index_keys) != 1:
        raise ConfigError(f"exactly one of {index_keys[0]} or {index_keys[1]} is required")
    for key, value in config.items():
        if key in _INTEGER_KEYS and not _is_integer(value):
            raise ConfigError(f"{key} must be an integer, not {value!r}")
        if key in _INTEGER_LIST_KEYS and not (
                isinstance(value, list) and all(map(_is_integer, value))):
            raise ConfigError(f"{key} must be a list of integers")
        if key in _INTEGER_LIST_KEYS and not value:
            raise ConfigError(f"{key} must hold at least one point")
        if key in _REAL_KEYS and not (_is_real(value) or (
                value is None and key in ("sigma", "delta"))):
            raise ConfigError(f"{key} must be a number, not {value!r}")
        if key in _BOOLEAN_KEYS and not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, not {value!r}")
        if key in _MINIMUMS and value < _MINIMUMS[key]:
            raise ConfigError(f"{key} must be at least {_MINIMUMS[key]}, not {value!r}")
    if not config["s"] < 0:
        raise ConfigError("s must be negative")


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return _is_real(value) and (isinstance(value, int) or value.is_integer())


def validate_config(config: dict) -> dict:
    """Schema-check an inflation sweep configuration."""
    check_keys(config, _CONFIG_KEYS, _REQUIRED_KEYS, ("n_list", "N_list"))
    if config["method"] not in ("series", "fixed-point", "rk4", "none"):
        raise ConfigError(f"unknown method {config['method']!r}")
    if not isinstance(config["families"], list):
        raise ConfigError("families must be a list of {family, q} objects")
    for entry in config["families"]:
        _check_family(entry)
    return config


def _check_family(entry):
    """ConfigError unless entry is a {family, q} object of a field family
    (a pair family does not apply to the fields a run measures) whose q,
    if given, is a number >= 1, null or "inf"."""
    if not isinstance(entry, dict) or "family" not in entry:
        raise ConfigError("families must be a list of {family, q} objects")
    unknown = set(entry) - {"family", "q"}
    if unknown:
        raise ConfigError(f"unknown family keys: {sorted(unknown)}")
    family = entry["family"]
    if family not in FAMILIES or family in PAIR_FAMILIES:
        allowed = [f for f in FAMILIES if f not in PAIR_FAMILIES]
        raise ConfigError(f"family must be one of {allowed}, not {family!r}")
    q = entry.get("q")
    if not (q is None or q == "inf" or (_is_real(q) and q >= 1)):
        raise ConfigError(f'q must be a number >= 1, null or "inf", not {q!r}')


def config_args(config: dict, names: dict) -> dict:
    """Keyword arguments from a checked config: names maps config keys to
    parameter names.  A key the config holds is converted by its type, int
    or float; an absent key is left to the callee's default."""
    return {name: (int if key in _INTEGER_KEYS else float)(config[key])
            for key, name in names.items() if key in config}


def point_params(config: dict, kind: str, value) -> InflationParams:
    """Parameters of one point of a checked config: schedule for kind "n",
    schedule_from_N for "N", at the config's k, s, sigma and delta."""
    scheduler = schedule if kind == "n" else schedule_from_N
    return scheduler(int(value), int(config["k"]), float(config["s"]),
                     sigma=config.get("sigma"), delta_hint=config.get("delta"))


def config_hash(config: dict) -> str:
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


CSV_COLUMNS = [
    "index_kind", "index", "N", "R", "T", "A", "delta", "s", "sigma", "k",
    "seed", "J", "method", "perturbation_hs_pair", "perturbation_w_s2inf",
    "xi1_bump_hs", "xi1_bump_hsigma", "xi1_lower_ratio", "i1_hs", "i2_hs",
    "i2_over_i1", "tail_sum_hs", "solution_hs", "series_converged",
    "series_max_ratio", "cond_i", "cond_ii", "cond_iii_a", "cond_iii_b",
    "cond_iv", "cond_v", "cond_vi", "error",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def sweep(config: dict):
    """Run the configured sweep; returns (reports, csv_text, manifest).

    The points run on min(points, oracle._usable_cpus()) threads: in a
    pool when that is above one (the heavy work releases the GIL inside
    the FFTs), on the calling thread otherwise.  Outputs are assembled in
    config order either way, so their bytes do not depend on the CPUs.
    The RK4 partner worker of each point runs only while the solves in
    progress leave it a CPU (oracle._pair).
    """
    config = validate_config(config)
    kind = "n" if "n_list" in config else "N"
    indices = config[f"{kind}_list"]
    families = config["families"]
    labels = [family_label(f) for f in families]
    columns = list(CSV_COLUMNS)
    for lab in labels:
        columns += [f"pert_{lab}", f"xi1_{lab}", f"solution_{lab}"]

    options = config_args(config, {
        "base_amplitude": "base_amplitude", "base_decay": "base_decay",
        "p": "degree", "rk4_depth": "rk4_depth", "rk4_steps": "rk4_steps",
        "rk4_tail_tol": "rk4_tail_tol"})

    # A package error or a bad point (schedule_from_N raises ValueError)
    # becomes an error row; any other exception is a bug and propagates.
    def one_run(value):
        try:
            return run_inflation(
                point_params(config, kind, value), base_seed=int(config["seed"]),
                families=families, max_gen=int(config["J"]),
                method=config["method"], **options), None
        except (GibqError, ValueError) as exc:
            return None, exc

    threads = min(len(indices), oracle._usable_cpus())
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one_run, indices))
    else:
        outcomes = [one_run(value) for value in indices]

    lines = [",".join(columns)]
    for value, (report, exc) in zip(indices, outcomes):
        row = {c: None for c in columns}
        row["index_kind"] = kind
        row["index"] = value
        if report is not None:
            _fill_row(row, report, labels)
        else:
            row["error"] = f"{type(exc).__name__}: {exc}"
        lines.append(",".join(_fmt(row[c]) for c in columns))
    csv_text = "\n".join(lines) + "\n"
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "config_hash": config_hash(config),
        "rows": len(outcomes),
        "columns": columns,
    }
    return [report for report, _ in outcomes], csv_text, manifest


def _fill_row(row: dict, report: InflationReport, labels: list):
    p = report.params
    row.update({
        "N": p["N"], "R": p["R"], "T": p["T"], "A": p["A"],
        "delta": p["delta"], "s": p["s"], "sigma": p["sigma"], "k": p["k"],
        "seed": report.seed, "J": len(report.xi_terms_at_T) - 1,
        "method": report.solution_method,
        "perturbation_hs_pair": report.perturbation["sobolev_pair"],
        "perturbation_w_s2inf": report.perturbation["w_s2inf_pair"],
        "xi1_bump_hs": report.xi1_bump["sobolev"],
        "xi1_bump_hsigma": report.xi1_bump["sobolev_sigma"],
        "xi1_lower_ratio": report.ledger["xi1_lower_ratio"],
        "i1_hs": report.i1_hs, "i2_hs": report.i2_hs,
        "i2_over_i1": report.i2_over_i1,
        "tail_sum_hs": report.tail_sum_hs,
        "solution_hs": (report.solution_norms or {}).get("sobolev"),
        "series_converged": report.series_converged,
        "series_max_ratio": max(report.series_ratios, default=0.0),
        "error": "",
    })
    for rec in report.ledger["conditions"]:  # "iii-a: ..." -> cond_iii_a
        row["cond_" + rec["name"].split(":")[0].replace("-", "_")] = rec["margin"]
    for lab in labels:
        row[f"pert_{lab}"] = report.perturbation.get(lab)
        row[f"xi1_{lab}"] = report.xi1_bump.get(lab)
        row[f"solution_{lab}"] = (report.solution_norms or {}).get(lab)
