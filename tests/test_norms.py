import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gibq.cli import _embedding_corpus
from gibq.construction import make_bump, schedule_from_N
from gibq.flow import InitialPair
from gibq import lattice as lattice_module
from gibq.lattice import FrequencyLattice, SpectralField, bracket, synthesize
from gibq.norms import (
    NormSpec,
    band_index,
    band_partition,
    check_algebra,
    check_embeddings,
    norm,
)

from conftest import hermitian_field


def line_lattice(period=8.0):
    return FrequencyLattice(period=period, cutoff=1 << 20, kind="line_approx")


# ----------------------------------------------------------------------
# basic examples
# ----------------------------------------------------------------------

@pytest.mark.parametrize("lat", [FrequencyLattice(period=1.0, cutoff=1 << 20),
                                 line_lattice()], ids=["torus", "line"])
def test_w_s2inf_synthesis_matches_the_nonnegative_spectrum_sum(lat):
    # (-1)^xi c translates the field by half a period, a synthesis grid
    # point: the sup is the same, but the spectrum is no longer
    # nonnegative, so the norm takes its synthesis branch
    xi = np.arange(-40, 41)
    c = 1.0 / (1.0 + 0.1 * np.abs(xi))
    summed = SpectralField(lat, xi, c.astype(np.complex128))
    shifted = SpectralField(lat, xi, (c * (-1.0) ** xi).astype(np.complex128))
    spec = NormSpec("w_s2inf", -0.5)
    l2 = norm(summed, NormSpec("sobolev", -0.5))
    assert norm(summed, spec) > 2 * l2  # the sup, not the l2 part, decides
    assert norm(shifted, spec) == pytest.approx(norm(summed, spec), rel=1e-13)


@pytest.mark.parametrize("lat", [FrequencyLattice(period=1.0, cutoff=1 << 20),
                                 line_lattice()], ids=["torus", "line"])
def test_grid_norms_and_the_linf_l2_constant_are_of_the_physical_field(lat):
    # a nonnegative spectrum peaks at x = 0, a grid point, where the
    # physical field (the lattice weight times the sums) is its weighted l1
    xi = np.arange(-40, 41)
    f = SpectralField(lat, xi, (1.0 / (1.0 + 0.1 * np.abs(xi))).astype(np.complex128))
    grid = synthesize(f, oversample=8)
    assert grid.max_abs() == pytest.approx(f.l1(), rel=1e-13)
    assert grid.l2() == pytest.approx(f.l2(), rel=1e-13)
    measured = check_embeddings(f, -0.5)[-1]
    assert measured.name == "Linf vs L2 (measured C)"
    assert (measured.lhs, measured.rhs) == (grid.max_abs(), grid.l2())


@pytest.mark.parametrize("entry,label,q", [
    ({"family": "fourier_lebesgue", "q": 1}, "fourier_lebesgue_q1", 1.0),
    ({"family": "modulation", "q": 2.5}, "modulation_q2.5", 2.5),
    ({"family": "wiener_amalgam", "q": None}, "wiener_amalgam_qinf", math.inf),
    ({"family": "fourier_lebesgue", "q": "inf"}, "fourier_lebesgue_qinf", math.inf),
    ({"family": "modulation"}, "modulation_qinf", math.inf),
    ({"family": "sobolev", "q": 2}, "sobolev", 2.0),
    ({"family": "w_s2inf"}, "w_s2inf", math.inf),
])
def test_spec_of_a_family_entry_and_its_label(entry, label, q):
    spec = NormSpec.from_entry(entry, -0.75)
    assert spec == NormSpec(entry["family"], -0.75, q)
    assert spec.label == label


def test_delta_sobolev_is_one(lattice):
    f = SpectralField.delta(lattice, 0, 1.0)
    for s in (-2.0, -0.5, 0.0, 1.5):
        assert norm(f, NormSpec("sobolev", s)) == pytest.approx(1.0)


def test_bump_wiener_norm_exact():
    params = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    bump = make_bump(params)
    value = norm(bump.phi, NormSpec("wiener_pair"))
    exact = params.R * 4 * (params.A + 1)
    assert value == pytest.approx(exact, rel=1e-14)
    # ratio to the continuum shorthand R*4A stays within [1, 1.2] at A=10
    ratio = value / (params.R * 4 * params.A)
    assert 1.0 <= ratio <= 1.2


def test_bump_sobolev_window_over_sweep():
    # H^s value over R N^s A^(1/2) sits in a fixed window across N
    ratios = []
    for N in (256, 1024, 4096):
        params = schedule_from_N(N, 2, -0.75, delta_hint=0.25)
        bump = make_bump(params)
        value = norm(bump.phi, NormSpec("sobolev_pair", params.s))
        ratios.append(value / (params.R * params.N**params.s
                               * math.sqrt(params.A)))
    assert max(ratios) / min(ratios) < 1.001
    assert 0.5 < ratios[0] < 2.0


def test_plancherel_fl2_equals_h0(lattice):
    f = hermitian_field(lattice, 61)
    a = norm(f, NormSpec("fourier_lebesgue", 0.0, 2.0))
    b = norm(f, NormSpec("sobolev", 0.0))
    assert a == pytest.approx(b, rel=1e-12)


def test_sobolev_monotone_in_s(lattice):
    f = hermitian_field(lattice, 62)
    values = [norm(f, NormSpec("sobolev", s)) for s in (-2, -1, -0.25, 0.5)]
    assert values == sorted(values)


def test_fl_infinity_is_supremum(lattice):
    f = SpectralField.from_pairs(lattice, [(2, 3.0), (-2, 3.0), (5, 1.0), (-5, 1.0)])
    v = norm(f, NormSpec("fourier_lebesgue", 0.0, math.inf))
    assert v == pytest.approx(3.0)


def test_empty_field_norms_vanish(lattice):
    z = SpectralField.zero(lattice)
    for spec in (NormSpec("sobolev", -1), NormSpec("fourier_lebesgue", -1, 1),
                 NormSpec("modulation", -1, 2), NormSpec("w_s2inf", -1)):
        assert norm(z, spec) == 0.0


def test_pair_norm_is_component_sum(lattice):
    f = hermitian_field(lattice, 63)
    z = SpectralField.zero(lattice)
    pair = InitialPair(f, f)
    half = InitialPair(f, z)
    spec = NormSpec("sobolev_pair", -0.5)
    assert norm(pair, spec) == pytest.approx(2 * norm(half, spec), rel=1e-14)


# ----------------------------------------------------------------------
# band partition
# ----------------------------------------------------------------------

def test_band_partition_single_frequency(lattice):
    f = SpectralField.delta(lattice, 3, 1.0)
    part = band_partition(f)
    assert part.ids.tolist() == [3]
    assert part.starts.tolist() == [0]


def _torus_field_past_two_to_the_52(b):
    torus = FrequencyLattice(period=1.0, cutoff=1 << 61)
    xi = np.array([-b - 2, -b - 1, b + 1, b + 2])
    return SpectralField(torus, xi, np.array([1.0, 2.0 - 1j, 2.0 + 1j, 1.0]))


@pytest.mark.parametrize("b", [1 << 52, 1 << 60])
def test_torus_bands_stay_single_frequencies_above_two_to_the_52(b):
    # from 2^52 on float64 spacing is 1, and floor(nu + 0.5) in floats put
    # 2^52 + 1 and 2^52 + 2 in one band; from 2^53 on a band's frequency
    # does not survive a round trip through float64
    f = _torus_field_past_two_to_the_52(b)
    assert band_partition(f).ids.tolist() == f.xi.tolist()
    fl = norm(f, NormSpec("fourier_lebesgue", -0.75, 1.0))
    assert norm(f, NormSpec("modulation", -0.75, 1.0)) == fl
    assert norm(f, NormSpec("wiener_amalgam", -0.75, 1.0)) == fl


def test_band_partition_energy_identity(lattice):
    f = hermitian_field(lattice, 70)
    part = band_partition(f)
    assert part.energies(f).sum() == pytest.approx(f.l2() ** 2, rel=1e-12)


def test_band_partition_groups_on_line_lattice():
    lat = line_lattice(period=4.0)
    # indices 0..3 have dual points 0, .25, .5, .75: bands 0,0,1,1
    f = SpectralField.from_pairs(lat, [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)])
    part = band_partition(f)
    assert part.ids.tolist() == [0, 1]
    assert part.starts.tolist() == [0, 2]


def _runs(part, nnz):
    """The support indices of each band, from the run starts."""
    stops = list(part.starts[1:]) + [nnz]
    return [np.arange(a, b) for a, b in zip(part.starts, stops)]


def test_band_partition_matches_the_per_mode_loop():
    # the bands of the per-mode loop the vectorized partition replaced
    rng = np.random.default_rng(9)
    lat = line_lattice(period=3.7)
    xi = np.unique(rng.integers(-500, 500, size=300))
    f = SpectralField(lat, xi, rng.standard_normal(xi.size) + 0j)
    order = {}
    for i, b in enumerate(band_index(f.xi, lat)):
        order.setdefault(int(b), []).append(i)
    expected = {b: np.asarray(ix, dtype=np.int64) for b, ix in sorted(order.items())}
    part = band_partition(f)
    assert part.ids.tolist() == list(expected)
    for run, ix in zip(_runs(part, f.nnz), expected.values()):
        assert np.array_equal(run, ix)


def test_bump_bands_cover_exactly_the_cubes():
    params = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    bump = make_bump(params)
    part = band_partition(bump.phi.u0)
    assert part.ids.tolist() == bump.omega_support.tolist()


def _lq_ref(values, q):
    return float(np.max(values)) if math.isinf(q) else float(np.sum(values**q) ** (1.0 / q))


def _per_band_norms(f, s, q):
    """(modulation, wiener_amalgam) by the per-band loops the run-based
    partition replaced: a dict of index arrays, one sum and one synthesis
    per band.  The band weights and the moduli are taken as arrays, as the
    modulation loop took them (numpy's vectorized pow and abs can differ
    from the scalar ones in the last bit)."""
    bands = {}
    for i, b in enumerate(band_index(f.xi, f.lattice)):
        bands.setdefault(int(b), []).append(i)
    ns = sorted(bands)
    wts = bracket(np.array(ns, dtype=float)) ** s
    w = f.lattice.weight
    mag = np.abs(f.c)
    vals = np.array([math.sqrt(float(np.sum(mag[bands[n]] ** 2)) * w) for n in ns])
    modulation = _lq_ref(wts * vals, q)
    if all(len(bands[n]) == 1 for n in ns):
        vals = np.array([mag[bands[n][0]] for n in ns])
        return modulation, _lq_ref(wts * vals, q) * math.sqrt(w)
    return modulation, _amalgam_by_synthesis(f, [bands[n] for n in ns], wts, q)


def _amalgam_by_synthesis(f, runs, wts, q):
    """The amalgam norm with every band synthesized on the shared grid."""
    m = lattice_module.synthesis_length(f, 8)
    stack = np.stack([wt * np.abs(lattice_module.grid_samples(f.xi[ix], f.c[ix], m))
                      for wt, ix in zip(wts, runs)])
    g = np.max(stack, axis=0) if math.isinf(q) else np.sum(stack**q, axis=0) ** (1.0 / q)
    return lattice_module.GridField(g, f.lattice.weight).l2()


def _band_norms(f, s, q):
    return (norm(f, NormSpec("modulation", s, q)), norm(f, NormSpec("wiener_amalgam", s, q)))


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_band_norms_on_the_torus_equal_the_per_band_loops_bitwise(lattice, q):
    fields = [_torus_field_past_two_to_the_52(b) for b in (1 << 52, 1 << 60)]
    fields += [hermitian_field(lattice, seed) for seed in (110, 111)]
    for f in fields:
        assert _band_norms(f, -0.75, q) == _per_band_norms(f, -0.75, q)


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_band_norms_on_line_lattices_match_the_per_band_loops(q):
    fields = _embedding_corpus(100, seed=20240801)
    rng = np.random.default_rng(9)
    xi = np.unique(rng.integers(-500, 500, size=300))
    amps = rng.standard_normal(xi.size) + 1j * rng.standard_normal(xi.size)
    fields.append(SpectralField(line_lattice(period=3.7), xi, amps))
    assert any(band_partition(f).ids.size < f.nnz for f in fields)
    for f in fields:
        got, want = _band_norms(f, -0.75, q), _per_band_norms(f, -0.75, q)
        assert got == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("sparse", [False, True], ids=["torus", "line"])
def test_amalgam_single_point_shortcut_matches_band_syntheses(lattice, q, sparse):
    # every band holds one frequency: on the torus, and on a period-8 line
    # lattice (lattice weight 1/8) for frequencies 8 apart; synthesizing
    # each band on the shared grid is what the shortcut skips
    f = hermitian_field(lattice, 112)
    if sparse:
        f = SpectralField(line_lattice(period=8.0), 8 * f.xi, f.c)
    assert band_partition(f).ids.size == f.nnz
    wts = bracket(f.lattice.dual_points(f.xi)) ** -0.5  # the band ids
    want = _amalgam_by_synthesis(f, [[i] for i in range(f.nnz)], wts, q)
    assert norm(f, NormSpec("wiener_amalgam", -0.5, q)) == pytest.approx(want, rel=1e-14)


# ----------------------------------------------------------------------
# modulation / amalgam structure
# ----------------------------------------------------------------------

def test_modulation_collapses_to_fl_on_torus(lattice):
    f = hermitian_field(lattice, 80)
    for q in (1.0, 2.0, math.inf):
        a = norm(f, NormSpec("modulation", -0.75, q))
        b = norm(f, NormSpec("fourier_lebesgue", -0.75, q))
        assert a == pytest.approx(b, rel=1e-12)


def test_amalgam_equals_modulation_on_torus(lattice):
    f = hermitian_field(lattice, 81)
    for q in (1.0, 2.0):
        a = norm(f, NormSpec("wiener_amalgam", -0.5, q))
        b = norm(f, NormSpec("modulation", -0.5, q))
        assert a == pytest.approx(b, rel=1e-12)


def test_amalgam_differs_from_modulation_on_line():
    lat = line_lattice(period=8.0)
    rng = np.random.default_rng(5)
    xs = np.arange(1, 40)
    amps = rng.standard_normal(xs.size) + 1j * rng.standard_normal(xs.size)
    pairs = [(int(x), a) for x, a in zip(xs, amps)]
    pairs += [(-int(x), np.conj(a)) for x, a in zip(xs, amps)]
    f = SpectralField.from_pairs(lat, pairs)
    m = norm(f, NormSpec("modulation", -0.5, 1.0))
    w = norm(f, NormSpec("wiener_amalgam", -0.5, 1.0))
    assert abs(m - w) > 1e-6 * m  # genuinely different families here


def test_amalgam_grid_has_the_synthesis_memory_guard(monkeypatch):
    # |xi| <= 20 at oversampling 8: the band syntheses take 2^9 points
    lat = line_lattice(period=8.0)
    f = hermitian_field(lat, 83, max_freq=20)
    spec = NormSpec("wiener_amalgam", -0.5, 2.0)
    value = norm(f, spec)
    monkeypatch.setattr(lattice_module, "_SYNTHESIS_GRID_CAP", 1 << 9)
    assert norm(f, spec) == value
    monkeypatch.setattr(lattice_module, "_SYNTHESIS_GRID_CAP", (1 << 9) - 1)
    with pytest.raises(ValueError, match="memory guard"):
        norm(f, spec)


def test_embedding_margins_hold(lattice):
    for seed in range(5):
        f = hermitian_field(lattice, 90 + seed)
        for margin in check_embeddings(f, -0.75)[:-1]:
            assert margin.holds, margin.name


def test_embedding_margins_hold_on_line():
    lat = line_lattice(period=8.0)
    rng = np.random.default_rng(17)
    for _ in range(5):
        xs = rng.choice(np.arange(1, 60), size=20, replace=False)
        amps = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        pairs = [(int(x), a) for x, a in zip(xs, amps)]
        pairs += [(-int(x), np.conj(a)) for x, a in zip(xs, amps)]
        f = SpectralField.from_pairs(lat, pairs)
        for margin in check_embeddings(f, -0.5)[:-1]:
            assert margin.holds, f"{margin.name}: {margin.ratio}"


def test_bandlimited_linf_l2_constant_reported(lattice):
    f = hermitian_field(lattice, 99)
    rep = check_embeddings(f, -0.75)[-1]
    assert rep.name.startswith("Linf")
    assert 0 < rep.ratio < 50


# ----------------------------------------------------------------------
# algebra
# ----------------------------------------------------------------------

def test_algebra_delta_equality(lattice):
    d = SpectralField.delta(lattice, 0, 1.0)
    margins = check_algebra(d, d)
    assert margins[0].ratio == pytest.approx(1.0)


def test_wiener_algebra_constant_one(lattice):
    for seed in range(6):
        u = hermitian_field(lattice, 300 + seed)
        v = hermitian_field(lattice, 400 + seed)
        m = check_algebra(u, v)[0]
        assert m.lhs <= m.rhs * (1 + 1e-12)


def test_modulation_algebra_measured_constant(lattice):
    worst = 0.0
    for seed in range(6):
        u = hermitian_field(lattice, 500 + seed)
        v = hermitian_field(lattice, 600 + seed)
        worst = max(worst, check_algebra(u, v)[1].ratio)
    assert worst <= 8.0


# ----------------------------------------------------------------------
# metric axioms (property tests)
# ----------------------------------------------------------------------

@st.composite
def norm_specs(draw):
    family = draw(st.sampled_from(["sobolev", "fourier_lebesgue", "modulation"]))
    s = draw(st.sampled_from([-1.5, -0.75, 0.0, 0.5]))
    q = draw(st.sampled_from([1.0, 2.0, math.inf]))
    return NormSpec(family, s=s, q=q)


@given(norm_specs(), st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=-4, max_value=4, allow_nan=False))
def test_absolute_homogeneity(spec, seed, scalar):
    lat = FrequencyLattice(period=1.0, cutoff=1 << 20)
    f = hermitian_field(lat, seed, max_freq=10)
    lhs = norm(f.scale(scalar), spec)
    rhs = abs(scalar) * norm(f, spec)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@given(norm_specs(), st.integers(min_value=0, max_value=10**6))
def test_triangle_inequality(spec, seed):
    lat = FrequencyLattice(period=1.0, cutoff=1 << 20)
    f = hermitian_field(lat, seed, max_freq=10)
    g = hermitian_field(lat, seed + 1, max_freq=10)
    assert norm(f + g, spec) <= norm(f, spec) + norm(g, spec) + 1e-10


# ----------------------------------------------------------------------
# smoothed sup-norm bound on the bump
# ----------------------------------------------------------------------

def test_bump_weighted_sup_bound():
    # |<nabla>^s phi| <= 2 (A+1)^(1/2) ||phi||_{H^s}; the +1 is the counting
    # normalization of the cube volume (the literal A fails by ~1.6% here)
    params = schedule_from_N(1024, 2, -0.75, delta_hint=0.25)
    bump = make_bump(params)
    phi = bump.phi.u0
    weighted = phi.weighted(bracket(phi.lattice.dual_points(phi.xi)) ** params.s)
    from gibq.lattice import synthesize

    linf = synthesize(weighted, oversample=8).max_abs()
    hs = norm(phi, NormSpec("sobolev", params.s))
    assert linf <= 2.0 * math.sqrt(params.A + 1) * hs
    assert linf >= 1.8 * math.sqrt(params.A) * hs  # the bound is nearly tight
