import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gibq import lattice as lattice_module
from gibq.construction import make_bump, omega_frequencies, schedule_from_N
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
from gibq.oracle import closure_from_depth

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


# Layouts of the fold engine, forced one at a time: the layout that
# _fold_layout picks itself, the 1-D box, and the two-scale grid (the box
# when no support has two clusters).
FOLD_LAYOUTS = {
    "auto": None,
    "box": lambda sups: lattice_module._box_layout(sups),
    "grid": lambda sups: (lattice_module._cluster_split(sups)
                          or lattice_module._box_layout(sups)),
}


@contextmanager
def fold_layout(name):
    with pytest.MonkeyPatch.context() as mp:
        if FOLD_LAYOUTS[name] is not None:
            mp.setattr(lattice_module, "_fold_layout", FOLD_LAYOUTS[name])
        yield


def mirror(f):
    return SpectralField(f.lattice, -f.xi[::-1], np.conj(f.c[::-1]))


def assert_close(f, g, scale):
    assert (f - g).l1() <= 1e-12 * max(scale, 1e-300)


@given(sparse_fields(), sparse_fields())
def test_convolve_matches_double_sum(f, g):
    fg = convolve(f, g, prune=0.0)
    if f.nnz == 0 or g.nnz == 0:
        assert fg.nnz == 0
        return
    # reference: every product f(a) g(b) added at its index sum a + b
    xi, inv = np.unique((f.xi[:, None] + g.xi[None, :]).ravel(), return_inverse=True)
    ref = np.zeros(xi.size, np.complex128)
    np.add.at(ref, inv, (f.c[:, None] * g.c[None, :]).ravel())
    tol = 1e-12 * f.l1() * g.l1()
    # the support is the Minkowski sum, less only cells whose sum is zero
    # to rounding
    on = np.isin(xi, fg.xi)
    assert fg.nnz == np.count_nonzero(on)
    assert np.all(on | (np.abs(ref) <= tol))
    assert np.max(np.abs(ref[on] - fg.c), initial=0.0) <= tol


@pytest.mark.parametrize("layout", list(FOLD_LAYOUTS))
@given(f=sparse_fields(), g=sparse_fields(), h=sparse_fields(),
       a=st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
       b=st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False))
def test_convolve_is_commutative_and_bilinear(layout, f, g, h, a, b):
    with fold_layout(layout):
        fg = convolve(f, g, prune=0.0)
        assert_close(fg, convolve(g, f, prune=0.0), f.l1() * g.l1())
        lhs = convolve(f.scale(a) + h.scale(b), g, prune=0.0)
        rhs = fg.scale(a) + convolve(h, g, prune=0.0).scale(b)
        assert_close(lhs, rhs, (abs(a) * f.l1() + abs(b) * h.l1()) * g.l1())


@pytest.mark.parametrize("layout", list(FOLD_LAYOUTS))
@given(f=sparse_fields(), g=sparse_fields())
def test_convolve_keeps_hermitian_symmetry_and_minkowski_support(layout, f, g):
    f, g = f + mirror(f), g + mirror(g)
    sums = {x + y for x in f.support() for y in g.support()}
    with fold_layout(layout):
        fg = convolve(f, g)
        assert fg.is_hermitian(1e-12)
        assert fg.support() <= sums
        # the indicator row keeps even unpruned FFT dust off the complement
        assert convolve(f, g, prune=0.0).support() <= sums


def test_fold_order_agreement(lattice):
    f = hermitian_field(lattice, seed=9, max_freq=10)
    left = power_k(f, 4, prune=0.0)
    sq = convolve(f, f, prune=0.0)
    balanced = convolve(sq, sq, prune=0.0)
    num = (left - balanced).l2()
    assert num <= 1e-12 * balanced.l2()


# ----------------------------------------------------------------------
# transform lengths
# ----------------------------------------------------------------------

def smallest_smooth_at_least(n):
    """Brute force: the first m >= n with no prime factor above 5."""
    m = n
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def test_fft_length_is_the_smallest_5_smooth_length():
    assert [lattice_module._fft_length(n) for n in range(1, 5001)] == [
        smallest_smooth_at_least(n) for n in range(1, 5001)]


@pytest.mark.parametrize("N", [1 << 11, 1 << 12])
def test_fft_length_of_the_rk4_blocks(N):
    # the real transform pair of a depth-13 RK4 run of the bump at N:
    # 2kK + 1 samples hold the product without aliasing
    params = schedule_from_N(N, 2, -0.75, delta_hint=0.25)
    K = closure_from_depth(make_bump(params, params.lattice()).phi, 2, 13)
    n = 4 * K + 1
    length = lattice_module._fft_length(n)
    assert length == smallest_smooth_at_least(n)
    assert length < lattice_module._next_pow2(n)


# ----------------------------------------------------------------------
# serialization and invariants
# ----------------------------------------------------------------------

def test_json_roundtrip(lattice):
    f = hermitian_field(lattice, seed=5, max_freq=6)
    g = SpectralField.from_json(f.to_json())
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


def test_json_without_a_lattice_key_names_it():
    f = SpectralField.from_pairs(FrequencyLattice(cutoff=64), [(2, 1.0)])
    for key in ("cutoff", "kind", "period"):
        doc = json.loads(f.to_json())
        del doc[key]
        with pytest.raises(ValueError, match=key):
            SpectralField.from_json(json.dumps(doc))


def test_json_versioned_roundtrip_and_unversioned_documents(lattice):
    f = hermitian_field(lattice, seed=7, max_freq=6)
    doc = json.loads(f.to_json())
    assert doc["version"] == lattice_module.JSON_VERSION
    del doc["version"]
    for text in (f.to_json(), json.dumps(doc)):
        g = SpectralField.from_json(text)
        assert g.lattice == f.lattice
        assert g.xi.tobytes() == f.xi.tobytes() and g.c.tobytes() == f.c.tobytes()
        assert g.to_json() == f.to_json()


def test_json_rejects_unknown_keys_and_versions(lattice):
    f = hermitian_field(lattice, seed=7, max_freq=6)
    for edit in (lambda d: d.update(extra=1),
                 lambda d: d["entries"][0].update(extra=1),
                 lambda d: d.update(version=lattice_module.JSON_VERSION + 1)):
        doc = json.loads(f.to_json())
        edit(doc)
        with pytest.raises(ValueError):
            SpectralField.from_json(json.dumps(doc))


def test_repeated_frequencies_are_summed(lattice):
    f = SpectralField.from_pairs(lattice, [(1, 1j), (-2, 1.0), (1, 2j), (4, 1.0), (4, -1.0)])
    assert f.xi.tolist() == [-2, 1] and f.c.tolist() == [1.0, 3j]
    entries = [{"xi": x, "re": c.real, "im": c.imag}
               for x, c in ((1, 1j), (-2, 1.0), (1, 2j))]
    doc = {"period": 1.0, "kind": "torus", "cutoff": lattice.cutoff, "entries": entries}
    g = SpectralField.from_json(json.dumps(doc))
    assert g.xi.tolist() == [-2, 1] and g.c.tolist() == [1.0, 3j]


def test_json_sorted_by_xi(lattice):
    f = hermitian_field(lattice, seed=5, max_freq=6)
    import json

    entries = json.loads(f.to_json())["entries"]
    xs = [e["xi"] for e in entries]
    assert xs == sorted(xs)


def test_field_immutable(lattice):
    f = SpectralField.delta(lattice, 1)
    with pytest.raises(AttributeError):
        f.xi = None
    with pytest.raises(ValueError):
        f.c[0] = 2.0


def test_convolve_huge_span_takes_the_two_scale_grid(monkeypatch, lattice):
    # a 1-D box 2^25 wide exceeds the fold cap; the clusters, far apart,
    # go into the rows of a grid with base B = far
    far = 1 << 23
    f = SpectralField.from_pairs(
        lattice, [(-far, 1.0), (0, 2.0), (far, 1.0)])
    g = SpectralField.from_pairs(lattice, [(-far, 0.5), (far, 0.5)])
    layouts = []
    fold_layout = lattice_module._fold_layout

    def recorded(sups):
        layouts.append(fold_layout(sups))
        return layouts[-1]

    monkeypatch.setattr(lattice_module, "_fold_layout", recorded)
    fg = convolve(f, g, prune=0.0)
    assert [layout[0] for layout in layouts] == [far]
    assert fg.get(0) == pytest.approx(1.0)        # cross terms
    assert fg.get(2 * far) == pytest.approx(0.5)
    assert fg.get(-2 * far) == pytest.approx(0.5)
    assert fg.get(far) == pytest.approx(1.0)
    assert fg.get(-far) == pytest.approx(1.0)
    assert fg.nnz == 5


def signed_cluster_split(sups):
    """The cluster split in signed int64 arithmetic, as _cluster_split
    computed it before its doubled midpoints wrapped at N = 2^58."""
    gaps = [np.diff(sup) for sup in sups]
    widths = np.unique(np.concatenate(gaps + [[1]]))
    cut_at = widths[np.argmax(widths[1:] / widths[:-1])] if widths.size > 1 else 1
    cuts = [np.flatnonzero(g > cut_at) for g in gaps]
    mids = [sup[np.append(0, cut + 1)] + sup[np.append(cut, sup.size - 1)]
            for sup, cut in zip(sups, cuts)]
    base = max(1, (min(int(np.min(np.diff(mid))) for mid in mids if mid.size > 1) + 1) // 2)
    parts, n_rows, n_cols = [], 1, 1
    for sup, cut, mid in zip(sups, cuts, mids):
        sizes = np.diff(np.concatenate([[0], cut + 1, [sup.size]]))
        m = np.repeat((mid - mid[0] + base) // (2 * base), sizes)
        r = sup - m * base
        parts.append((m, r - r.min(), int(r.min())))
        n_rows += int(m[-1])
        n_cols += int(r.max() - r.min())
    return base, parts, (n_rows, n_cols)


@pytest.mark.parametrize("e", [11, 40, 57])
def test_cluster_split_keeps_its_layouts_below_two_to_the_58(e):
    # the bump's cubes, the supports of its first two powers, and clusters
    # of 11 modes at random centres within 5N, whose midpoints fall
    # between the rows
    N = 1 << e
    sups = [omega_frequencies(N)]
    for _ in range(2):
        sups.append(np.unique(np.add.outer(sups[-1], sups[0])))
    centres = np.random.default_rng(e).integers(-5 * N, 5 * N, 6)
    sups.append(np.unique(np.add.outer(centres, np.arange(-5, 6))))
    for factors in ([0, 0], [1, 0], [2, 1], [1, 0, 0], [2, 2], [3, 3], [3, 1]):
        got = lattice_module._cluster_split([sups[i] for i in factors])
        want = signed_cluster_split([sups[i] for i in factors])
        assert got[0] == want[0] and got[2] == want[2]
        for (m, col, r0), (wm, wcol, wr0) in zip(got[1], want[1]):
            assert np.array_equal(m, wm) and np.array_equal(col, wcol) and r0 == wr0


def test_a_product_up_to_the_int64_range_folds():
    # frequencies -+a whose square spans 4a = 2^63 - 4, just inside int64;
    # the signed split wrapped adding the base 2a to the doubled midpoint 4a
    a = (1 << 61) - 1
    lattice = FrequencyLattice(cutoff=1 << 64)
    f = SpectralField(lattice, np.array([-a, a]), np.array([1.0, 2.0]))
    ff = convolve(f, f)
    assert ff.xi.tolist() == [-2 * a, 0, 2 * a]
    assert ff.c == pytest.approx([1.0, 4.0, 4.0], rel=1e-14)
    # one step further the span, and then the frequencies, pass it
    for xi in ([-a - 1, a + 1], [1 << 62]):
        g = SpectralField(lattice, np.array(xi), np.ones(len(xi)))
        with pytest.raises(ValueError, match="int64 range"):
            convolve(g, g)


def test_prune_threshold_drops_dust(lattice):
    f = SpectralField.from_pairs(lattice, [(0, 1.0), (1, 1e-16), (-1, 1e-16)])
    g = SpectralField.delta(lattice, 0, 1.0)
    fg = convolve(f, g)  # default prune removes the 1e-16 entries
    assert fg.support() == {0}
