from collections import Counter

import numpy as np
import pytest

from gibq import flow as flow_module
from gibq.errors import DivergenceError
from gibq.flow import InitialPair, duhamel_sum, duhamel_trajectory, linear_flow
from gibq.lattice import FrequencyLattice, SpectralField
from gibq.series import (
    fixed_point,
    partial_sum,
    tail_residual,
    tree_term,
    xi_term,
    xi_terms,
)
from gibq.trees import TERMINAL, compositions, enumerate_trees

from conftest import hermitian_field

HORIZON = 0.4
DEGREE = 14


@pytest.fixture(scope="module")
def pair(lattice):
    return InitialPair(hermitian_field(lattice, 101, 10, amplitude=0.4),
                       hermitian_field(lattice, 102, 10, amplitude=0.4))


def test_generation_zero_is_linear_flow(lattice, pair):
    terms = xi_terms(pair, 2, 0, HORIZON, DEGREE)
    flow = linear_flow(pair, HORIZON, DEGREE)
    assert terms[0].sup_distance(flow) == 0.0


def test_generation_one_is_duhamel_of_flow(lattice, pair):
    terms = xi_terms(pair, 2, 1, HORIZON, DEGREE)
    flow = linear_flow(pair, HORIZON, DEGREE)
    direct = duhamel_trajectory([flow, flow], DEGREE)
    assert terms[1].sup_distance(direct) <= 1e-14 * direct.sup_l1()


def composition_groups(terms, k, j):
    """The (count, args) groups of generation j, as xi_terms forms them."""
    groups = Counter(tuple(sorted(c)) for c in compositions(j - 1, k))
    return [(groups[rep], [terms[ji] for ji in rep]) for rep in sorted(groups)]


def sum_of_pieces(groups):
    """Each group's duhamel_trajectory scaled by its count, then added up:
    one interpolation and kernel pass per group."""
    total = None
    for count, args in groups:
        piece = duhamel_trajectory(args, DEGREE)
        if count > 1:
            piece = piece.scale(float(count))
        total = piece if total is None else total + piece
    return total


@pytest.mark.parametrize("k, max_gen, kind", [
    (2, 4, "torus"), (3, 3, "torus"), (2, 4, "line_approx"),
])
def test_duhamel_sum_matches_scaled_pieces(k, max_gen, kind):
    lattice = FrequencyLattice(period=1.0 if kind == "torus" else 8.0,
                               cutoff=1 << 24, kind=kind)
    pair = InitialPair(hermitian_field(lattice, 111, 10, amplitude=0.4),
                       hermitian_field(lattice, 112, 10, amplitude=0.4))
    terms = xi_terms(pair, k, max_gen, HORIZON, DEGREE)
    counts = set()
    for j in range(1, max_gen + 1):
        groups = composition_groups(terms, k, j)
        counts.update(count for count, _ in groups)
        merged, pieces = duhamel_sum(groups, DEGREE), sum_of_pieces(groups)
        assert np.array_equal(merged.support, pieces.support), j
        scale = np.max(np.abs(pieces.values))
        assert np.max(np.abs(merged.values - pieces.values)) <= 1e-14 * scale, j
        assert merged.sup_distance(terms[j]) == 0.0
    assert max(counts) == k  # some group stands for k compositions


def test_xi_terms_makes_one_kernel_pass_per_generation(monkeypatch, lattice, pair):
    passes = []
    integrate = flow_module._integrate

    def counted(*args, **kwargs):
        passes.append(args[1].size)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(flow_module, "_integrate", counted)
    for k, max_gen in ((2, 4), (3, 3)):
        passes.clear()
        terms = xi_terms(pair, k, max_gen, HORIZON, DEGREE)
        assert len(passes) == max_gen
        # each pass integrates the whole support of its generation (with
        # xi = 0, where lam = 0 makes the integral vanish)
        assert passes == [t.support.size + 1 for t in terms[1:]]


def test_zero_data_gives_zero_terms(lattice):
    zero = InitialPair.zero(lattice)
    terms = xi_terms(zero, 2, 3, HORIZON, DEGREE)
    for traj in terms:
        assert traj.sup_l1() == 0.0


def test_xi_term_degree_bookkeeping(lattice, pair):
    term = xi_term(pair, 3, 2, HORIZON, DEGREE)
    assert term.degree == 5
    assert term.generation == 2


def test_tree_term_terminal_is_flow(lattice, pair):
    flow = linear_flow(pair, HORIZON, DEGREE)
    assert tree_term(pair, TERMINAL, HORIZON, DEGREE).sup_distance(flow) == 0.0


def test_generation_one_tree_equals_term(lattice, pair):
    (tree,) = enumerate_trees(2, 1)
    by_tree = tree_term(pair, tree, HORIZON, DEGREE)
    term = xi_terms(pair, 2, 1, HORIZON, DEGREE)[1]
    assert by_tree.sup_distance(term) <= 1e-12 * term.sup_l1()


@pytest.mark.parametrize("k,j", [(2, 2), (2, 3), (3, 2)])
def test_tree_sum_identity(lattice, pair, k, j):
    terms = xi_terms(pair, k, j, HORIZON, DEGREE)
    total = None
    for tree in enumerate_trees(k, j):
        piece = tree_term(pair, tree, HORIZON, DEGREE)
        total = piece if total is None else total + piece
    rel = terms[j].sup_distance(total) / terms[j].sup_l1()
    assert rel <= 1e-10


def test_ledger_bounded_by_tree_estimate(lattice, pair):
    acc = partial_sum(pair, 2, 5, HORIZON, DEGREE)
    m = pair.fl1()
    fits = []
    for j in range(1, 6):
        bound = HORIZON ** (2 * j) * m ** (j + 1)
        fits.append((acc.ledger[j] / bound) ** (1.0 / j))
    assert max(fits) < 10.0  # fitted constant stays modest


def test_geometric_decay_under_contraction(lattice, pair):
    acc = partial_sum(pair, 2, 6, HORIZON, DEGREE)
    assert all(r < 1.0 for r in acc.ratios())


def test_support_growth_matches_degree(lattice, pair):
    terms = xi_terms(pair, 2, 3, HORIZON, DEGREE)
    base = max(abs(x) for x in terms[0].fields[-1].support())
    for j, traj in enumerate(terms):
        reach = max((abs(x) for f in traj.fields for x in f.support()),
                    default=0)
        assert reach <= (j + 1) * base


def test_tail_residual_zero_data(lattice):
    zero = InitialPair.zero(lattice)
    acc = partial_sum(zero, 2, 2, HORIZON, DEGREE)
    assert tail_residual(acc, zero, 2) == 0.0


def test_tail_residual_decreases_with_generation(lattice, pair):
    res = []
    for J in (2, 4, 6):
        acc = partial_sum(pair, 2, J, HORIZON, DEGREE)
        res.append(tail_residual(acc, pair, 2, DEGREE))
    assert res[1] < res[0]
    assert res[2] < res[1]


def test_residual_tiny_at_first_rung_schedule(lattice):
    # smooth data inside the contraction regime on the n=1 horizon
    from gibq.construction import schedule

    horizon = schedule(1, 2, -0.75, delta_hint=0.25).T
    pair = InitialPair(hermitian_field(lattice, 201, 12, amplitude=0.25),
                       hermitian_field(lattice, 202, 12, amplitude=0.25))
    acc = partial_sum(pair, 2, 8, horizon, 16)
    assert tail_residual(acc, pair, 2, 16) < 1e-8


def test_fixed_point_zero_data(lattice):
    zero = InitialPair.zero(lattice)
    traj = fixed_point(zero, 2, HORIZON, 1e-10, DEGREE)
    assert traj.sup_l1() == 0.0


def test_fixed_point_agrees_with_series(lattice, pair):
    tol = 1e-11
    fp = fixed_point(pair, 2, HORIZON, tol, DEGREE)
    acc = partial_sum(pair, 2, 10, HORIZON, DEGREE)
    assert fp.sup_distance(acc.partial) < 10 * tol


def test_fixed_point_satisfies_duhamel_equation(lattice, pair):
    fp = fixed_point(pair, 2, HORIZON, 1e-11, DEGREE)
    gamma = linear_flow(pair, HORIZON, DEGREE) + duhamel_trajectory([fp, fp], DEGREE)
    assert fp.sup_distance(gamma) < 1e-10


def test_fixed_point_divergence_detected(lattice):
    big = InitialPair(
        hermitian_field(lattice, 7, 8, amplitude=40.0),
        SpectralField.zero(lattice),
    )
    with pytest.raises(DivergenceError) as err:
        fixed_point(big, 2, 1.0, 1e-9, 10)
    assert err.value.contraction_factor > 1.0 or np.isnan(
        err.value.contraction_factor
    )


def test_sup_frequency_tree_estimate(lattice, pair):
    # sup_xi |term_j(T)| <= C^j T^(2j) M^((k-1)j-1) H0^2 with a stable fit
    from gibq.norms import NormSpec, norm

    terms = xi_terms(pair, 2, 4, HORIZON, DEGREE)
    m = pair.fl1()
    h0_sq = norm(pair, NormSpec("sobolev_pair", 0.0)) ** 2
    fits = []
    for j in range(1, 5):
        sup = terms[j].fields[-1].sup()
        bound = HORIZON ** (2 * j) * m ** (j - 1) * h0_sq
        fits.append((sup / bound) ** (1.0 / j))
    assert max(fits) < 50.0


def test_bump_support_bookkeeping():
    # supports of the bump's series terms stay inside at most 4^degree
    # cubes centred at degree-fold sums of the four bump centres
    from gibq.construction import make_bump, schedule_from_N

    params = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    lattice = params.lattice()
    bump = make_bump(params, lattice)
    terms = xi_terms(bump.phi, params.k, 3, params.T, 12)
    for j, traj in enumerate(terms):
        degree = (params.k - 1) * j + 1
        centres = set()
        for f in traj.fields:
            for xi in f.support():
                m = round(xi / params.N)
                assert abs(xi - m * params.N) <= degree * params.A / 2
                assert abs(m) <= 2 * degree
                centres.add(m)
        assert len(centres) <= 4**degree


def test_measured_contraction_factor_order(lattice, pair):
    # successive distances shrink roughly by T^2 * data size per step
    from gibq.flow import duhamel_trajectory as dt

    base = linear_flow(pair, HORIZON, DEGREE)
    u1 = base + dt([base, base], DEGREE)
    u2 = base + dt([u1, u1], DEGREE)
    u3 = base + dt([u2, u2], DEGREE)
    r1 = u2.sup_distance(u1) / u1.sup_distance(base)
    predicted = 2 * 0.5 * HORIZON**2 * (2 * pair.fl1())
    assert r1 < predicted  # same order of magnitude, bounded by the estimate
