import math
import warnings

import pytest

from gibq.construction import make_bump, schedule, schedule_from_N
from gibq.errors import CapacityError
from gibq.flow import InitialPair, duhamel, linear_flow
from gibq.lattice import SpectralField, lambda_symbol
from gibq.oracle import (
    closure_from_depth,
    convolution_sandwich,
    rk4_solve,
    xi1_closed_form,
)
from gibq.series import partial_sum

from conftest import hermitian_field


# ----------------------------------------------------------------------
# RK4
# ----------------------------------------------------------------------

def test_rk4_linear_mode_exact(lattice):
    pair = InitialPair(SpectralField.delta(lattice, 7, 1.0),
                       SpectralField.zero(lattice))
    traj, diag = rk4_solve(pair, 1.0, 1e-2, 16, k=2, nonlinear=False)
    lam = lambda_symbol(7, lattice)
    for t, f in zip(traj.nodes, traj.fields):
        assert f.get(7).real == pytest.approx(math.cos(t * lam), abs=1e-8)
    assert diag.blowup_time is None


def test_rk4_zero_data(lattice):
    pair = InitialPair.zero(lattice)
    traj, _ = rk4_solve(pair, 1.0, 1e-2, 8, k=2)
    assert all(f.nnz == 0 for f in traj.fields)


def test_rk4_order_four_self_convergence(lattice):
    pair = InitialPair(hermitian_field(lattice, 55, 6, amplitude=0.8),
                       hermitian_field(lattice, 56, 6, amplitude=0.8))
    K = closure_from_depth(pair, 2, 14)
    ref, _ = rk4_solve(pair, 0.6, 0.6 / 2048, K, k=2)
    coarse, _ = rk4_solve(pair, 0.6, 0.6 / 128, K, k=2)
    fine, _ = rk4_solve(pair, 0.6, 0.6 / 256, K, k=2)
    e1 = coarse.sup_distance(ref)
    e2 = fine.sup_distance(ref)
    assert 10 < e1 / e2 < 24  # fourth order: ratio near 16


def test_rk4_agrees_with_series_small_data(lattice):
    params = schedule(1, 2, -0.75, delta_hint=0.25)
    pair = InitialPair(hermitian_field(lattice, 57, 12, amplitude=0.3),
                       hermitian_field(lattice, 58, 12, amplitude=0.3))
    acc = partial_sum(pair, 2, 8, params.T, 16)
    K = closure_from_depth(pair, 2, 6)
    traj, _ = rk4_solve(pair, params.T, params.T / 2000, K, k=2)
    assert traj.sup_distance(acc.partial) < 1e-6


def test_rk4_dt_guard(lattice):
    pair = InitialPair(SpectralField.delta(lattice, 1, 1.0),
                       SpectralField.zero(lattice))
    with pytest.raises(ValueError):
        rk4_solve(pair, 1.0, 0.5, 8, k=2)


def test_solver_paths_agree_on_line_lattice():
    # the dual-measure weight enters convolution, Duhamel and the ODE
    # consistently, so the independent paths agree off the unit torus too
    from gibq.lattice import FrequencyLattice

    lat = FrequencyLattice(period=4.0, cutoff=1 << 22, kind="line_approx")
    pair = InitialPair(hermitian_field(lat, 71, 8, amplitude=0.4),
                       hermitian_field(lat, 72, 8, amplitude=0.4))
    acc = partial_sum(pair, 2, 6, 0.5, 14)
    K = closure_from_depth(pair, 2, 8)
    traj, _ = rk4_solve(pair, 0.5, 0.5 / 200, K, k=2, node_degree=14)
    assert traj.sup_distance(acc.partial) < 1e-8


def test_rk4_reports_blowup(lattice):
    big = InitialPair(
        SpectralField.from_pairs(lattice, [(-1, 300.0), (1, 300.0)]),
        SpectralField.zero(lattice),
    )
    traj, diag = rk4_solve(big, 1.0, 1e-3, 64, k=2, tail_tol=math.inf)
    assert diag.blowup_time is not None
    assert 0 < diag.blowup_time < 1.0


def test_rk4_blowup_history_without_overflow(lattice):
    # at this amplitude the last node before blow-up holds a finite u whose
    # sum of squares exceeds the float64 range
    big = InitialPair(
        SpectralField.from_pairs(lattice, [(-1, 302.5), (1, 302.5)]),
        SpectralField.zero(lattice),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, diag = rk4_solve(big, 1.0, 1e-3, 64, k=2, tail_tol=math.inf)
    assert 0 < diag.blowup_time < 1.0
    u_norms = [u for _, u, _ in diag.l2_history]
    assert max(u_norms) > 1e154
    assert all(math.isfinite(u) for u in u_norms)


# ----------------------------------------------------------------------
# closed-form first Picard term
# ----------------------------------------------------------------------

def sampled_parameter_points():
    pts = []
    for N in (256, 512, 1024, 2048, 4096):
        pts.append(schedule_from_N(N, 2, -0.75, delta_hint=0.25))
    pts.append(schedule_from_N(256, 2, -0.5, delta_hint=0.15))
    pts.append(schedule_from_N(1024, 2, -1.25, delta_hint=0.4))
    pts.append(schedule_from_N(256, 3, -0.75, delta_hint=0.2))
    pts.append(schedule_from_N(512, 3, -1.0, delta_hint=0.3))
    pts.append(schedule_from_N(640, 2, -0.9, delta_hint=0.3))
    return pts


@pytest.mark.parametrize("params", sampled_parameter_points(),
                         ids=lambda p: f"k{p.k}N{p.N}s{p.s}")
def test_xi1_closed_form_matches_quadrature(params):
    bump = make_bump(params)
    flow = linear_flow(bump.phi, params.T, 16)
    quad = duhamel([flow] * params.k, params.T, 16)
    closed = xi1_closed_form(bump, params.T)
    rel = (quad - closed).sup() / closed.sup()
    assert rel < 1e-10


def test_xi1_resonant_values_positive_near_zero():
    params = schedule_from_N(1024, 2, -0.75, delta_hint=0.25)
    bump = make_bump(params)
    closed = xi1_closed_form(bump, params.T)
    for xi in range(1, params.A + 1):
        assert closed.get(xi).real > 0
    assert closed.get(0) == 0  # the symbol kills the zero mode


def test_xi1_zero_bump():
    params = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    bump = make_bump(params)
    zero_bump = type(bump)(
        phi=InitialPair.zero(bump.phi.lattice),
        omega_support=bump.omega_support,
        params=params,
    )
    # unit-amplitude path works off the parameter record, so use R = 0
    params0 = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    params0.R = 0.0
    zero_bump.params = params0
    out = xi1_closed_form(zero_bump, params.T)
    assert out.nnz == 0


def test_xi1_budget_guard():
    params = schedule_from_N(4096, 5, -0.75, delta_hint=0.1)
    bump = make_bump(params)
    with pytest.raises(CapacityError):
        xi1_closed_form(bump, params.T)


# ----------------------------------------------------------------------
# convolution sandwich
# ----------------------------------------------------------------------

def test_sandwich_hand_example_a2():
    rep = convolution_sandwich(0, 0, 2)
    # hat 1,2,3,2,1: min over the inner cube is 2, max 3 = A+1
    assert rep.lower_constant == pytest.approx(2 / 3)
    assert rep.upper_constant == pytest.approx(1.0)
    assert rep.holds


def test_sandwich_counting_normalization_a10():
    rep = convolution_sandwich(0, 0, 10)
    assert rep.lower_constant == pytest.approx(6 / 11)
    assert rep.lower_constant >= 0.5
    assert rep.upper_constant == pytest.approx(1.0)


@pytest.mark.parametrize("A", [2, 10, 50])
def test_sandwich_offset_grid(A):
    offsets = (-2 * A, -A, 0, A, 2 * A)
    for a in offsets:
        for b in offsets:
            rep = convolution_sandwich(a, b, A)
            assert rep.holds, (A, a, b)


def test_sandwich_rejects_odd_side():
    with pytest.raises(ValueError):
        convolution_sandwich(0, 0, 7)
