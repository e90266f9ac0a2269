"""The inflation mechanism at a lattice scale where its conditions hold.

The desk-scale sweep pins N <= 2^12, where the scheduled horizon violates
the contraction condition (ii) and the tail condition (iv), and the
solution blows up before it (see the acceptance module).  The Duhamel
product costs the size of the (m, r) grid of the clusters xi = m*N + r,
not the frequency range, though, so the same machinery runs at
N = 2^40 -- past the threshold N ~ 5e10 where the contraction quantity
22 N^(-1/8) drops below one -- and there every claim is checkable
literally: the six conditions, the decaying ledger, tail domination, the
factor-two window between the measured solution norm and the first Picard
term, and the headline inequalities themselves (small perturbation, large
response).  The N = 2^40 report is the session fixture ``big_report`` in
conftest.py, which acceptance criterion 6 also evaluates.
"""

import pytest

from gibq.construction import make_bump, schedule_from_N
from gibq.harness import run_inflation
from gibq.norms import NormSpec, norm
from gibq.series import fixed_point, partial_sum, tail_residual

from conftest import BIG_N, DELTA, K, S


def test_all_conditions_hold(big_report):
    _, rep = big_report
    assert all(c["holds"] for c in rep.ledger["conditions"])


def test_series_ledger_decays(big_report):
    _, rep = big_report
    assert rep.series_converged
    assert max(rep.series_ratios) < 0.7


def test_tail_domination(big_report):
    # conditions (ii) and (iv) hold here, so the clause is asserted;
    # at desk scale they fail and the solution blows up before T
    _, rep = big_report
    assert rep.tail_sum_hs < 0.5 * rep.xi1_bump["sobolev"]
    ratio = rep.solution_norms["sobolev"] / rep.xi1_bump["sobolev"]
    assert 0.5 <= ratio <= 2.0


def test_literal_inflation_inequalities(big_report):
    params, rep = big_report
    assert rep.perturbation["sobolev_pair"] < 1.0 / params.n
    assert rep.solution_norms["sobolev"] > params.n
    # five orders of magnitude between perturbation and response
    assert rep.solution_norms["sobolev"] > 1e7 * rep.perturbation["sobolev_pair"]


def test_high_frequencies_fully_suppressed(big_report):
    _, rep = big_report
    assert rep.i2_over_i1 < 1e-8


def test_series_terms_resolve_below_the_node_degree(big_report):
    # every generation's Duhamel product folds on fewer than the k*p + 1
    # times of the full node degree
    _, rep = big_report
    degrees = rep.series_resolved_degrees
    assert len(degrees) == 5 and max(degrees) < 16
    assert rep.series_unresolved == []


def test_partial_sum_satisfies_duhamel_equation():
    params = schedule_from_N(BIG_N, K, S, delta_hint=DELTA)
    bump = make_bump(params, params.lattice())
    acc = partial_sum(bump.phi, K, 4, params.T, 16)
    residual = tail_residual(acc, bump.phi, K, 16)
    assert residual < 0.05 * acc.partial.sup_l1()


def test_fixed_point_converges_at_the_rounding_floor():
    # sup l1 is about 9e7 here, so the absolute tol lies below the rounding
    # noise of the iterates; the iteration stops at that floor instead of
    # reading the noise as expansion
    params = schedule_from_N(BIG_N, K, S, delta_hint=DELTA)
    bump = make_bump(params, params.lattice())
    fp = fixed_point(bump.phi, K, params.T, 1e-9, 16)
    acc = partial_sum(bump.phi, K, 4, params.T, 16)
    assert fp.sup_distance(acc.partial) < 1e-3 * fp.sup_l1()


def test_smoothed_sup_norm_exact_without_grid():
    # positive spectra avoid the synthesis grid entirely, so the
    # L2-cap-Linf norm is available at any frequency scale
    params = schedule_from_N(BIG_N, K, S, delta_hint=DELTA)
    bump = make_bump(params, params.lattice())
    w = norm(bump.phi, NormSpec("w_s2inf", S))
    hs = norm(bump.phi.u0, NormSpec("sobolev", S))
    assert w <= (1 + 2 * (params.A + 1) ** 0.5) * hs


def test_the_series_runs_up_to_the_int64_range():
    # the two-scale fold split wrapped int64 from N = 2^58, where the
    # supports span 2^62, and refused the product with a CapacityError;
    # the perturbation norm scales as N^(-delta), so the rung 2^58 reads
    # 2^(-1/4) of the rung 2^57
    pert = [run_inflation(schedule_from_N(1 << e, K, S, delta_hint=DELTA), max_gen=4,
                          method="series").perturbation["sobolev_pair"] for e in (57, 58)]
    assert pert[1] / pert[0] == pytest.approx(2 ** -DELTA, rel=1e-9)
    # at 2^59 the generation-3 product spans more than int64 holds
    with pytest.raises(ValueError, match="int64 range"):
        run_inflation(schedule_from_N(1 << 59, K, S, delta_hint=DELTA), max_gen=4,
                      method="series")
