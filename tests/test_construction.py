import math

import numpy as np
import pytest

from gibq.construction import (
    delta_ceiling,
    initial_data,
    make_bump,
    omega_frequencies,
    perturbed_data,
    sample_base_data,
    schedule,
    schedule_from_N,
)
from gibq.errors import LatticeMismatchError
from gibq.flow import InitialPair
from gibq.lattice import FrequencyLattice
from gibq.norms import NormSpec, norm


# ----------------------------------------------------------------------
# schedule arithmetic
# ----------------------------------------------------------------------

def test_schedule_raw_formula_arithmetic():
    # s=-1, k=2, delta=1/2, n=6: N=1296 >= 64A and T < 1/n, so neither
    # adjustment binds; R=36, T=1296^(-3/8)=6^(-3/2)
    params = schedule(6, 2, -1.0, delta_hint=0.5)
    assert params.adjustments == []
    assert params.N == 1296
    assert params.R == pytest.approx(36.0)
    assert params.T == pytest.approx(1296 ** (-0.375), rel=1e-12)
    assert params.T == pytest.approx(0.06804, abs=5e-6)


def test_delta_ceiling_value():
    assert delta_ceiling(-0.5, 2) == pytest.approx(1 / 3)
    assert delta_ceiling(-3.0, 2) == 1.0


def test_schedule_default_delta_is_half_ceiling():
    params = schedule(2, 2, -0.75)
    assert params.delta == pytest.approx(0.25)


def test_schedule_rejects_nonnegative_s():
    with pytest.raises(ValueError):
        schedule(1, 2, 0.0)


@pytest.mark.parametrize("k", [0, 1])
def test_both_schedules_reject_arity_below_two(k):
    with pytest.raises(ValueError, match="arity"):
        schedule_from_N(2048, k, -0.75)
    with pytest.raises(ValueError, match="arity"):
        schedule(1, k, -0.75)


def test_schedule_rejects_bad_delta_with_interval():
    with pytest.raises(ValueError) as err:
        schedule(1, 2, -0.5, delta_hint=0.9)
    assert "0, 0.333" in str(err.value).replace("(", "").replace(" ", "")[:30] \
        or "interval" in str(err.value)


def test_schedule_enforces_cube_separation():
    params = schedule(1, 2, -0.75, delta_hint=0.25)
    assert params.N >= 64 * params.A
    assert params.adjustments  # the raise was logged


def test_schedule_keeps_horizon_below_one_over_n():
    for n in (1, 2, 3):
        params = schedule(n, 2, -0.75, delta_hint=0.25)
        assert 0 < params.T < 1.0 / n


def test_schedule_raises_N_when_T_rounds_to_one_over_n():
    # T < 1/n holds in exact arithmetic for every admissible delta; with
    # delta one float below its ceiling, N = 2^75 gives T == 1/2 after
    # rounding, and schedule raises N to the next power of two
    s = -0.04
    delta = float(np.nextafter(delta_ceiling(s, 2), 0.0))
    first = schedule_from_N(2**75, 2, s, delta_hint=delta)
    assert first.T == 0.5
    params = schedule(2, 2, s, delta_hint=delta)
    assert params.N == 2**76
    assert params.adjustments == [
        f"N raised to {2**76} so that T stays inside (0, 1/n)"]
    assert 0.0 < params.T < 0.5


def test_schedule_first_rung_conditions_logged():
    from gibq.harness import check_conditions

    params = schedule(1, 2, -0.75, delta_hint=0.25)
    ledger = check_conditions(params, None)
    assert len(ledger.conditions) == 7  # six conditions, (iii) split in two
    assert ledger.condition("vi: cube separation").holds


def test_schedule_from_N_nominal_index():
    params = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    assert params.n == 2  # 256**(0.125) = 2
    assert params.R == pytest.approx(16.0)
    assert params.T == pytest.approx(256 ** (-0.3125), rel=1e-12)


# ----------------------------------------------------------------------
# bump construction
# ----------------------------------------------------------------------

def test_omega_support_enumeration():
    omega = omega_frequencies(256, 10)
    assert omega.size == 44
    expected = set()
    for eta in (-512, -256, 256, 512):
        expected |= {eta + r for r in range(-5, 6)}
    assert set(int(x) for x in omega) == expected


def test_bump_frequencies_stay_inside_int64():
    # the largest frequency is 2N + A/2; one N more would wrap around
    largest = (2**63 - 1 - 5) // 2
    omega = make_bump(schedule_from_N(largest, 2, -0.75, delta_hint=0.25)).omega_support
    assert int(omega[-1]) == 2**63 - 1 and int(omega[0]) == -(2**63 - 1)
    for N in (largest + 1, 2**62):
        with pytest.raises(ValueError, match=f"the largest N is {largest}$"):
            make_bump(schedule_from_N(N, 2, -0.75, delta_hint=0.25))


def test_schedules_refuse_an_N_past_the_float_range():
    # N = 40^200 is above 1.8e308
    with pytest.raises(ValueError, match="passes the float range"):
        schedule(40, 2, -0.75, delta_hint=0.01)
    with pytest.raises(ValueError, match="passes the float range"):
        schedule_from_N(10**400, 2, -0.75, delta_hint=0.25)


def test_bump_amplitude_and_cardinality():
    params = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    bump = make_bump(params)
    assert bump.phi.u0.nnz == 4 * (params.A + 1)
    assert np.allclose(bump.phi.u0.c, params.R)
    assert bump.phi.u1.nnz == 0
    assert bump.phi.is_hermitian()


def test_bump_vanishes_off_omega():
    params = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    bump = make_bump(params)
    assert bump.phi.u0.get(0) == 0
    assert bump.phi.u0.get(100) == 0
    assert bump.phi.u0.get(256 + 6) == 0


def test_bump_cubes_disjoint_at_scheduled_parameters():
    for N in (256, 1024, 4096):
        omega = omega_frequencies(N, 10)
        assert np.unique(omega).size == omega.size


def test_bump_even_symmetry():
    params = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    phi = make_bump(params).phi.u0
    for xi in phi.xi:
        assert phi.get(int(-xi)) == phi.get(int(xi))


# ----------------------------------------------------------------------
# base data
# ----------------------------------------------------------------------

def test_base_data_zero_amplitude(lattice):
    pair = sample_base_data(1, 0.25, 0.0, lattice)
    assert pair.u0.nnz == 0 and pair.u1.nnz == 0


def test_base_data_deterministic(lattice):
    a = sample_base_data(11, 0.25, 0.5, lattice)
    b = sample_base_data(11, 0.25, 0.5, lattice)
    assert np.array_equal(a.u0.c, b.u0.c)
    assert np.array_equal(a.u1.c, b.u1.c)
    c = sample_base_data(12, 0.25, 0.5, lattice)
    assert not np.array_equal(a.u0.c, c.u0.c)


def test_base_data_hermitian_and_decaying(lattice):
    pair = sample_base_data(3, 0.3, 1.0, lattice)
    assert pair.is_hermitian()
    mags = np.abs(pair.u0.c)
    assert mags.max() <= 4.0  # 1.0 amplitude with gaussian tails


def test_base_data_small_next_to_bump():
    params = schedule_from_N(1024, 2, -0.75, delta_hint=0.25)
    lat = params.lattice()
    base = sample_base_data(0, 0.25, 0.5, lat)
    margin = norm(base, NormSpec("wiener_pair")) / (params.R * params.A)
    assert margin < 0.1  # condition on the base Wiener norm, logged per run


# ----------------------------------------------------------------------
# perturbation
# ----------------------------------------------------------------------

def test_perturbed_data_zero_base():
    params = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    lat = params.lattice()
    bump = make_bump(params, lat)
    out = perturbed_data(InitialPair.zero(lat), bump)
    assert out.u0.support() == bump.phi.u0.support()


def test_perturbation_norm_equals_bump_norm():
    params = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    lat = params.lattice()
    bump = make_bump(params, lat)
    base = sample_base_data(2, 0.25, 0.5, lat)
    pert = perturbed_data(base, bump)
    diff = InitialPair(pert.u0 - base.u0, pert.u1 - base.u1)
    spec = NormSpec("sobolev_pair", params.s)
    assert norm(diff, spec) == pytest.approx(norm(bump.phi, spec), rel=1e-12)


def test_initial_data_samples_a_base_only_for_a_seed_and_amplitude():
    params = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    lat = params.lattice()
    for seed, amplitude in ((None, 0.5), (3, 0.0)):
        base, bump, data = initial_data(params, lat, seed, amplitude)
        assert base is None and data is bump.phi
    base, bump, data = initial_data(params, lat, 3, 0.5, decay=0.3)
    expected = sample_base_data(3, 0.3, 0.5, lat)
    assert base.u0.c.tobytes() == expected.u0.c.tobytes()
    summed = perturbed_data(expected, bump)
    for got, want in ((data.u0, summed.u0), (data.u1, summed.u1)):
        assert got.xi.tobytes() == want.xi.tobytes()
        assert got.c.tobytes() == want.c.tobytes()


def test_perturbed_data_lattice_mismatch():
    params = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    bump = make_bump(params)
    other = FrequencyLattice(period=2.0, cutoff=1 << 22)
    with pytest.raises(LatticeMismatchError):
        perturbed_data(InitialPair.zero(other), bump)


def test_perturbation_weighted_sup_bound_over_sweep():
    for N in (256, 1024, 4096):
        params = schedule_from_N(N, 2, -0.75, delta_hint=0.25)
        bump = make_bump(params)
        w = norm(bump.phi, NormSpec("w_s2inf", params.s))
        hs_one = norm(bump.phi.u0, NormSpec("sobolev", params.s))
        assert w <= (1 + 2 * math.sqrt(params.A + 1)) * hs_one


# ----------------------------------------------------------------------
# closed-form scaling laws
# ----------------------------------------------------------------------

def _loglog_slope(xs, ys):
    return np.polyfit(np.log(xs), np.log(ys), 1)[0]


def test_scaling_laws_over_wide_sweep():
    Ns = [2**e for e in range(6, 14)]
    s, delta = -0.75, 0.25
    hs_vals, fl_vals = [], []
    for N in Ns:
        params = schedule_from_N(N, 2, s, delta_hint=delta)
        bump = make_bump(params)
        hs_vals.append(norm(bump.phi, NormSpec("sobolev_pair", s)))
        fl_vals.append(norm(bump.phi, NormSpec("wiener_pair")))
    # || phi ||_{H^s} ~ R N^s sqrt(A) = N^(-delta) x const
    assert _loglog_slope(Ns, hs_vals) == pytest.approx(s + 0.5, abs=0.02)
    assert _loglog_slope(Ns, fl_vals) == pytest.approx(-s - delta, abs=0.02)
