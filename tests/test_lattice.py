import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gibq.errors import CutoffOverflowError, LatticeMismatchError
from gibq.lattice import (
    FrequencyLattice,
    SpectralField,
    convolve,
    lambda_symbol,
    power_k,
    synthesize,
)
from gibq.norms import NormSpec, norm

from conftest import hermitian_field


# ----------------------------------------------------------------------
# symbol
# ----------------------------------------------------------------------

def test_symbol_vanishes_at_origin(lattice):
    assert lambda_symbol(0, lattice) == 0.0


def test_symbol_direct_formula_period_2pi():
    lat = FrequencyLattice(period=2 * math.pi, cutoff=100)
    assert lambda_symbol(1, lat) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_symbol_bounded_and_monotone(lattice):
    xs = np.arange(0, 5000)
    vals = lambda_symbol(xs, lattice)
    assert np.all(vals <= 1.0)
    assert np.all(np.diff(vals) >= 0)


# ----------------------------------------------------------------------
# convolution examples
# ----------------------------------------------------------------------

def test_convolve_deltas(lattice):
    f = SpectralField.delta(lattice, 3, 2.0)
    g = SpectralField.delta(lattice, -8, 0.5 + 0.5j)
    fg = convolve(f, g)
    assert fg.nnz == 1
    assert fg.get(-5) == pytest.approx(1.0 + 1.0j)


def test_convolve_indicator_hat(lattice):
    # direct double-sum oracle for the indicator-block product
    f = SpectralField.from_pairs(lattice, [(i, 1.0) for i in range(10)])
    expected = {}
    for a in range(10):
        for b in range(10):
            expected[a + b] = expected.get(a + b, 0) + 1
    fg = convolve(f, f, prune=0.0)
    assert fg.support() == set(expected)
    for xi, count in expected.items():
        assert fg.get(xi) == pytest.approx(count)


def test_convolve_lattice_mismatch():
    f = SpectralField.delta(FrequencyLattice(period=1.0, cutoff=100), 1)
    g = SpectralField.delta(FrequencyLattice(period=2.0, cutoff=100), 1)
    with pytest.raises(LatticeMismatchError):
        convolve(f, g)


def test_convolve_cutoff_overflow_names_frequency():
    lat = FrequencyLattice(period=1.0, cutoff=10)
    f = SpectralField.delta(lat, 7)
    with pytest.raises(CutoffOverflowError) as err:
        convolve(f, f)
    assert err.value.frequency == 14


def test_power_k_square_of_cosine_pair(lattice):
    f = SpectralField.from_pairs(lattice, [(-40, 1.0), (40, 1.0)])
    sq = power_k(f, 2)
    assert sq.get(0) == pytest.approx(2.0)
    assert sq.get(80) == pytest.approx(1.0)
    assert sq.get(-80) == pytest.approx(1.0)
    assert sq.nnz == 3


def test_power_k_cube_by_hand(lattice):
    # (x + 1/x)^3 = x^3 + 3x + 3/x + 1/x^3
    f = SpectralField.from_pairs(lattice, [(-7, 1.0), (7, 1.0)])
    cu = power_k(f, 3)
    assert cu.get(21) == pytest.approx(1.0)
    assert cu.get(7) == pytest.approx(3.0)
    assert cu.get(-7) == pytest.approx(3.0)
    assert cu.get(-21) == pytest.approx(1.0)


def test_power_k_zero_field(lattice):
    z = SpectralField.zero(lattice)
    assert power_k(z, 4).nnz == 0


def test_power_k_requires_k_at_least_two(lattice):
    with pytest.raises(ValueError):
        power_k(SpectralField.delta(lattice, 1), 1)


# ----------------------------------------------------------------------
# synthesis
# ----------------------------------------------------------------------

def test_synthesize_constant(lattice):
    f = SpectralField.delta(lattice, 0, 3.25)
    grid = synthesize(f)
    assert np.allclose(grid.samples, 3.25)


def test_synthesize_cosine(lattice):
    f = SpectralField.from_pairs(lattice, [(-1, 0.5), (1, 0.5)])
    grid = synthesize(f, oversample=8)
    assert grid.max_abs() == pytest.approx(1.0, abs=1e-9)


def test_synthesize_parseval(lattice):
    f = hermitian_field(lattice, seed=42)
    grid = synthesize(f, oversample=4)
    assert grid.l2() == pytest.approx(f.l2(), rel=1e-10)


def test_grid_length_power_of_two(lattice):
    f = hermitian_field(lattice, seed=1, max_freq=17)
    grid = synthesize(f, oversample=2)
    assert grid.size & (grid.size - 1) == 0
    assert grid.size >= 2 * 17 + 2


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------

def small_fields(draw, lat):
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = {}
    for _ in range(n):
        xi = draw(st.integers(min_value=-30, max_value=30))
        re = draw(st.floats(min_value=-2, max_value=2, allow_nan=False))
        im = draw(st.floats(min_value=-2, max_value=2, allow_nan=False))
        pairs[xi] = complex(re, im)
    return SpectralField.from_pairs(lat, pairs)


@st.composite
def sparse_fields(draw):
    lat = FrequencyLattice(period=1.0, cutoff=1 << 20)
    return small_fields(draw, lat)


@given(sparse_fields(), sparse_fields())
def test_young_inequality_exact(f, g):
    fg = convolve(f, g, prune=0.0)
    assert fg.l1() <= f.l1() * g.l1() + 1e-12


@given(sparse_fields(), sparse_fields())
def test_support_arithmetic(f, g):
    fg = convolve(f, g, prune=0.0)
    sums = {a + b for a in f.support() for b in g.support()}
    assert fg.support() <= sums


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_hermitian_preserved_by_convolve(seed):
    lat = FrequencyLattice(period=1.0, cutoff=1 << 20)
    f = hermitian_field(lat, seed, max_freq=12)
    g = hermitian_field(lat, seed + 1, max_freq=9)
    assert convolve(f, g).is_hermitian(1e-12)


def test_fold_order_agreement(lattice):
    f = hermitian_field(lattice, seed=9, max_freq=10)
    left = power_k(f, 4, prune=0.0)
    sq = convolve(f, f, prune=0.0)
    balanced = convolve(sq, sq, prune=0.0)
    num = (left - balanced).l2()
    assert num <= 1e-12 * balanced.l2()


# ----------------------------------------------------------------------
# serialization and invariants
# ----------------------------------------------------------------------

def test_json_roundtrip(lattice):
    f = hermitian_field(lattice, seed=5, max_freq=6)
    g = SpectralField.from_json(f.to_json(), cutoff=lattice.cutoff)
    assert np.array_equal(f.xi, g.xi)
    assert np.array_equal(f.c, g.c)


def test_json_roundtrip_keeps_the_lattice():
    line = FrequencyLattice(period=8.0, cutoff=1 << 20, kind="line_approx")
    f = SpectralField.from_pairs(line, [(-3, 0.5), (0, 1.0), (3, 0.5)])
    g = SpectralField.from_json(f.to_json())
    assert g.lattice == line
    assert np.array_equal(f.xi, g.xi) and np.array_equal(f.c, g.c)
    spec = NormSpec("sobolev", 0.0)
    assert norm(g, spec) == norm(f, spec)


def test_json_without_lattice_keys_uses_arguments():
    doc = {"period": 1.0, "entries": [{"xi": 2, "re": 1.0, "im": 0.0}]}
    g = SpectralField.from_json(json.dumps(doc), cutoff=64, kind="line_approx")
    assert g.lattice == FrequencyLattice(period=1.0, cutoff=64, kind="line_approx")


def test_json_sorted_by_xi(lattice):
    f = hermitian_field(lattice, seed=5, max_freq=6)
    import json

    entries = json.loads(f.to_json())["entries"]
    xs = [e["xi"] for e in entries]
    assert xs == sorted(xs)


def test_gridfield_csv(lattice):
    f = SpectralField.delta(lattice, 0, 1.0)
    text = synthesize(f).to_csv()
    assert text.splitlines()[0] == "x,value"
    assert len(text.splitlines()) == synthesize(f).size + 1


def test_field_immutable(lattice):
    f = SpectralField.delta(lattice, 1)
    with pytest.raises(AttributeError):
        f.xi = None
    with pytest.raises(ValueError):
        f.c[0] = 2.0


def test_convolve_huge_span_chunked_path(lattice):
    # spans beyond the FFT box cap take the chunked merging path
    far = 1 << 23
    f = SpectralField.from_pairs(
        lattice, [(-far, 1.0), (0, 2.0), (far, 1.0)])
    g = SpectralField.from_pairs(lattice, [(-far, 0.5), (far, 0.5)])
    fg = convolve(f, g, prune=0.0)
    assert fg.get(0) == pytest.approx(1.0)        # cross terms
    assert fg.get(2 * far) == pytest.approx(0.5)
    assert fg.get(-2 * far) == pytest.approx(0.5)
    assert fg.get(far) == pytest.approx(1.0)
    assert fg.get(-far) == pytest.approx(1.0)
    assert fg.nnz == 5


def test_prune_threshold_drops_dust(lattice):
    f = SpectralField.from_pairs(lattice, [(0, 1.0), (1, 1e-16), (-1, 1e-16)])
    g = SpectralField.delta(lattice, 0, 1.0)
    fg = convolve(f, g)  # default prune removes the 1e-16 entries
    assert fg.support() == {0}
