"""Unified command-line entry point.

Subcommands: trees, construct, solve, norms, oracle, inflate, verify-all.
Exit codes: 0 success, 1 computational failure, 2 configuration error.
Output files are written atomically (temp file + rename) and are
byte-identical across re-runs with the same configuration.  `inflate`
runs its points on one thread per point, up to the CPUs this process may
use (harness.sweep), which no setting changes and no output byte shows.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys

import numpy as np

from . import __version__
from .construction import initial_data, make_bump, schedule
from .errors import ConfigError, GibqError
from .flow import InitialPair
from .harness import (SCHEMA_VERSION, check_keys, config_args, csv_text, point_params,
                      sweep, validate_config)
from .lattice import FrequencyLattice, SpectralField, real_field
from .norms import NormSpec, check_algebra, check_embeddings, norm
from .oracle import (
    TAIL_TOL,
    closure_from_depth,
    convolution_sandwich,
    rk4_solve,
    xi1_closed_form,
)
from .series import FIXED_POINT_TOL, fixed_point, partial_sum
from .trees import count_trees, verify_count_bound


def _atomic_write(path: str, text: str):
    """Write text to path through a temp file in its directory and a
    rename.  The temp file is created as open(path, "w") creates a file,
    so the output's mode follows the umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".gibq-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None):
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_trees(args) -> int:
    table = count_trees(args.arity, args.max_gen)
    c0, holds = verify_count_bound(args.arity, args.max_gen)
    rows = [(j, table[j], holds[j]) for j in range(args.max_gen + 1)]
    _emit(csv_text(["j", "count", "bound_holds"], rows + [("C0", c0, True)]), args.out)
    return 0


def _cmd_construct(args) -> int:
    params = schedule(args.n, args.k, args.s, sigma=args.sigma,
                      delta_hint=args.delta)
    bump = make_bump(params)
    doc = {
        "params": params.as_dict(),
        "phi": bump.phi.u0.to_doc(),
        "omega_support": [int(x) for x in bump.omega_support],
    }
    _emit(_json_text(doc), args.out)
    return 0


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


_SOLVE_KEYS = {"k", "s", "sigma", "delta", "n", "N", "seed",
               "base_amplitude", "base_decay", "bump", "p"}


def _cmd_solve(args) -> int:
    config = _load_config(args.config)
    check_keys(config, _SOLVE_KEYS, {"k", "s"}, ("n", "N"))
    kind = "n" if "n" in config else "N"
    params = point_params(config, kind, config[kind])
    lattice = params.lattice()
    base, _, data = initial_data(params, lattice, int(config.get("seed", 0)), **config_args(
        config, {"base_amplitude": "amplitude", "base_decay": "decay"}))
    if not config.get("bump", True):
        data = InitialPair.zero(lattice) if base is None else base
    degree = config_args(config, {"p": "degree"})
    if args.method == "series":
        acc = partial_sum(data, params.k, args.max_gen, params.T, **degree)
        ledger, ratios = acc.ledger, [None] + acc.ratios()
    else:
        traj = fixed_point(data, params.k, params.T, FIXED_POINT_TOL, **degree)
        ledger, ratios = [traj.sup_l1()], [None]
    rows = [(j, value, ratios[j]) for j, value in enumerate(ledger)]
    _emit(csv_text(["j", "sup_l1", "ratio"], rows), args.out)
    return 0


def _embedding_corpus(count: int, seed: int):
    """Seeded band-limited fields on a scaled torus, multi-point bands."""
    rng = np.random.default_rng(seed)
    lattice = FrequencyLattice(period=8.0, cutoff=1 << 20, kind="line_approx")
    fields = []
    for _ in range(count):
        n_modes = int(rng.integers(3, 40))
        xi = rng.choice(np.arange(1, 64), size=n_modes, replace=False)
        amps = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        fields.append(real_field(lattice, rng.standard_normal(), xi, amps))
    return fields


def _cmd_norms(args) -> int:
    if args.check_embeddings:
        fields = _embedding_corpus(args.corpus_size, seed=args.seed)
        rows = [(i, m.name, m.lhs, m.rhs, m.ratio, None if m.measured else m.holds)
                for i, f in enumerate(fields)
                for m in check_embeddings(f, args.s)
                + check_algebra(f, fields[(i + 1) % len(fields)])]
        _emit(csv_text(["field", "check", "lhs", "rhs", "ratio", "holds"], rows), args.out)
        return 0
    if not args.field or not args.spec:
        raise ConfigError("norms requires --field and --spec "
                          "(or --check-embeddings)")
    with open(args.field) as handle:
        f = SpectralField.from_json(handle.read())
    entry = dict(zip(("family", "s", "q"), args.spec.split(",")))
    value = norm(f, NormSpec.from_entry(entry, float(entry.get("s", 0.0))))
    _emit(f"{value!r}\n", args.out)
    return 0


def _cmd_oracle(args) -> int:
    if args.mode == "sandwich":
        offsets = [int(x) for x in args.offsets.split(",")]
        rows = []
        for a in offsets:
            for b in offsets:
                rep = convolution_sandwich(a, b, args.A)
                rows.append((rep.A, a, b, rep.lower_constant, rep.upper_constant, rep.holds))
        _emit(csv_text(["A", "offset_a", "offset_b", "lower_constant",
                        "upper_constant", "holds"], rows), args.out)
        return 0
    params = schedule(args.n, args.k, args.s, delta_hint=args.delta)
    bump = make_bump(params)
    if args.mode == "xi1":
        f = xi1_closed_form(bump, params.T)
        rows = [(int(x), float(c.real), float(c.imag)) for x, c in zip(f.xi, f.c)]
        _emit(csv_text(["xi", "re", "im"], rows), args.out)
        return 0
    if args.mode == "rk4":
        closure = closure_from_depth(bump.phi, params.k, depth=args.depth)
        _, diag = rk4_solve(bump.phi, params.T, params.T / args.steps,
                            closure, k=params.k, tail_tol=args.tail_tol,
                            trajectory=False)
        rows = list(diag.l2_history)
        if diag.blowup_time is not None:
            rows.append(("blowup_time", diag.blowup_time, None))
        _emit(csv_text(["t", "l2_u", "l2_v"], rows), args.out)
        return 0
    raise ConfigError(f"unknown oracle mode {args.mode!r}")


def _cmd_inflate(args) -> int:
    config = validate_config(_load_config(args.config))
    reports, runs_csv, manifest = sweep(config)
    outdir = args.out
    _atomic_write(os.path.join(outdir, "runs.csv"), runs_csv)
    _atomic_write(os.path.join(outdir, "manifest.json"), _json_text(manifest))
    if args.dump_reports:
        for i, rep in enumerate(reports):
            if rep is None:
                continue
            _atomic_write(os.path.join(outdir, f"run_{i:03d}.json"), _json_text(rep.as_dict()))
    failures = sum(1 for r in reports if r is None)
    sys.stderr.write(
        f"wrote {len(reports)} runs ({failures} failed) to {outdir}\n"
    )
    return 0 if failures == 0 else 1


def _cmd_verify_all(args) -> int:
    from .verify import verify_all

    results = verify_all(quick=args.quick)
    _emit(csv_text(["check", "value", "pass"], results), args.out)
    return 0 if all(ok for _, _, ok in results) else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibq",
        description="Sparse spectral laboratory for norm inflation in the "
                    "generalized improved Boussinesq equation.",
    )
    parser.add_argument("--version", action="version",
                        version=f"gibq {__version__} (schema {SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trees", help="tree count table and growth constant")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--max-gen", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("construct", help="write bump data and parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("solve", help="series or fixed-point convergence ledger")
    p.add_argument("--config", required=True)
    p.add_argument("--max-gen", type=int, default=8)
    p.add_argument("--method", choices=("series", "fixed-point"),
                   default="series")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("norms", help="evaluate a norm or run embedding checks")
    p.add_argument("--field")
    p.add_argument("--spec", help="family,s,q e.g. fourier_lebesgue,-0.75,1")
    p.add_argument("--check-embeddings", action="store_true")
    p.add_argument("--corpus-size", type=int, default=100)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--s", type=float, default=-0.75)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("oracle", help="independent ground-truth computations")
    p.add_argument("--mode", choices=("rk4", "xi1", "sandwich"), required=True)
    p.add_argument("--A", type=int, default=10)
    p.add_argument("--offsets", default="-2,-1,0,1,2")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--s", type=float, default=-0.75)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--tail-tol", type=float, default=TAIL_TOL,
                   help="truncation-tail tolerance; raise it to follow "
                        "runs toward blow-up")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("inflate", help="norm-inflation sweep from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-reports", action="store_true")
    p.set_defaults(func=_cmd_inflate)

    p = sub.add_parser("verify-all", help="run the invariant battery")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching our contract
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (GibqError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
