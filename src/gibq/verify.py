"""Deterministic invariant battery behind `gibq verify-all`.

Each check returns (name, value, pass).  Everything is seeded and sorted,
so two runs with the same flags produce byte-identical CSV output.
"""

from __future__ import annotations

import numpy as np

from .construction import make_bump, sample_base_data, schedule
from .flow import InitialPair, duhamel, linear_flow
from .lattice import FrequencyLattice, SpectralField, convolve, real_field, synthesize
from .norms import NormSpec, check_algebra, norm
from .oracle import convolution_sandwich, xi1_closed_form
from .series import partial_sum, tree_term, xi_terms
from .trees import count_trees, enumerate_trees, fuss_catalan


def _seeded_field(lattice, seed: int, max_freq: int = 24) -> SpectralField:
    rng = np.random.default_rng(seed)
    xi = np.arange(1, max_freq + 1)
    z = rng.standard_normal(max_freq) + 1j * rng.standard_normal(max_freq)
    return real_field(lattice, rng.standard_normal(), xi, z)


def verify_all(quick: bool = True) -> list:
    results = []
    lattice = FrequencyLattice(period=1.0, cutoff=1 << 24)

    # tree combinatorics against the closed form
    max_gen = 8 if quick else 12
    for k in (2, 3):
        table = count_trees(k, max_gen)
        ok = all(table[j] == fuss_catalan(k, j) for j in range(max_gen + 1))
        results.append((f"tree_counts_k{k}", int(table[max_gen]), ok))
    enum_ok = all(
        len(enumerate_trees(2, j)) == fuss_catalan(2, j) for j in range(6)
    )
    results.append(("tree_enumeration_k2", 6, enum_ok))

    # convolution algebra on seeded fields
    young_worst = 0.0
    herm_ok = True
    for seed in range(4):
        f = _seeded_field(lattice, 100 + seed)
        g = _seeded_field(lattice, 200 + seed)
        fg = convolve(f, g, prune=0.0)
        young_worst = max(young_worst, fg.l1() / (f.l1() * g.l1()))
        herm_ok = herm_ok and fg.is_hermitian(1e-12)
    results.append(("young_inequality_max_ratio", young_worst,
                    young_worst <= 1.0 + 1e-12))
    results.append(("hermitian_preserved", int(herm_ok), herm_ok))

    # Parseval through synthesis
    f = _seeded_field(lattice, 7)
    grid = synthesize(f, oversample=4)
    lhs, rhs = grid.l2(), f.l2()
    results.append(("parseval_rel_error", abs(lhs - rhs) / rhs,
                    abs(lhs - rhs) <= 1e-10 * rhs))

    # indicator-cube convolution sandwich
    for A in (2, 10):
        rep = convolution_sandwich(0, 0, A)
        results.append((f"sandwich_A{A}", rep.lower_constant, rep.holds))

    # first Picard term: closed form vs quadrature
    params = schedule(2, 2, -0.75, delta_hint=0.25)
    bump = make_bump(params)
    flow = linear_flow(bump.phi, params.T, 16)
    quad = duhamel([flow, flow], params.T, 16)
    closed = xi1_closed_form(bump, params.T)
    err = (quad - closed).sup() / closed.sup()
    results.append(("xi1_closed_vs_quadrature", err, err < 1e-10))

    # tree-sum identity at small generation
    small = FrequencyLattice(period=1.0, cutoff=1 << 22)
    pair = InitialPair(_seeded_field(small, 11, 8), _seeded_field(small, 12, 8))
    terms = xi_terms(pair, 2, 2, 0.4, 12)
    pieces = [tree_term(pair, tree, 0.4, 12) for tree in enumerate_trees(2, 2)]
    by_trees = sum(pieces[1:], pieces[0])
    ident = terms[2].sup_distance(by_trees) / max(terms[2].sup_l1(), 1e-300)
    results.append(("tree_sum_identity_j2", ident, ident < 1e-10))

    # series convergence on small data
    scale = pair.u0.scale(0.05)
    small_pair = InitialPair(scale, pair.u1.scale(0.05))
    acc = partial_sum(small_pair, 2, 5, 0.4, 12)
    ratios = acc.ratios()
    results.append(("series_max_ratio_small_data", max(ratios),
                    max(ratios) < 1.0))

    # Wiener algebra submultiplicativity with constant one
    u = _seeded_field(lattice, 31)
    v = _seeded_field(lattice, 32)
    margins = check_algebra(u, v)
    results.append(("wiener_algebra", margins[0].ratio, margins[0].holds))
    results.append(("modulation_algebra_measured_C", margins[1].ratio,
                    margins[1].ratio <= 8.0))

    # bump norm identities
    fl1 = norm(bump.phi, NormSpec("wiener_pair"))
    expected = params.R * 4 * (params.A + 1)
    results.append(("bump_fl1_exact", fl1,
                    abs(fl1 - expected) <= 1e-12 * expected))

    # monotonicity of the Sobolev scale on a seeded field
    n1 = norm(f, NormSpec("sobolev", -1.0))
    n2 = norm(f, NormSpec("sobolev", -0.25))
    results.append(("sobolev_monotone_in_s", n2 - n1, n1 <= n2))

    # base-data reproducibility
    b1 = sample_base_data(5, 0.25, 0.5, lattice)
    b2 = sample_base_data(5, 0.25, 0.5, lattice)
    same = (np.array_equal(b1.u0.c, b2.u0.c)
            and np.array_equal(b1.u1.c, b2.u1.c))
    results.append(("base_data_deterministic", int(same), same))

    return results
