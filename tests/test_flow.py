import json
import math
import tracemalloc

import numpy as np
import pytest

from gibq import flow, oracle
from gibq import lattice as lattice_module
from gibq.construction import make_bump, perturbed_data, sample_base_data, schedule_from_N
from gibq.errors import CapacityError, CutoffOverflowError, LatticeMismatchError
from gibq.flow import (
    InitialPair,
    Trajectory,
    chebyshev_nodes,
    clenshaw_curtis_weights,
    duhamel,
    duhamel_sum,
    duhamel_trajectory,
    linear_flow,
    stable_sinc,
)
from gibq.lattice import FrequencyLattice, SpectralField, lambda_symbol
from gibq.norms import NormSpec, norm

from conftest import hermitian_field


def constant_trajectory(lattice, field, horizon, degree=16):
    nodes = chebyshev_nodes(degree, horizon)
    return Trajectory.from_fields(lattice, horizon, nodes, [field] * nodes.size)


# ----------------------------------------------------------------------
# quadrature and interpolation plumbing
# ----------------------------------------------------------------------

def test_cc_weights_low_order():
    # order 2 on [-1,1] is Simpson-like: 1/3, 4/3, 1/3
    w = clenshaw_curtis_weights(2)
    assert np.allclose(w, [1 / 3, 4 / 3, 1 / 3])


def test_cc_integrates_smooth_function():
    w = clenshaw_curtis_weights(16)
    x = -np.cos(np.pi * np.arange(17) / 16)
    assert np.dot(w, np.exp(x)) == pytest.approx(np.e - 1 / np.e, abs=1e-14)


def test_chebyshev_nodes_span():
    nodes = chebyshev_nodes(8, 0.7)
    assert nodes[0] == 0.0
    assert nodes[-1] == pytest.approx(0.7)
    assert np.all(np.diff(nodes) > 0)
    assert chebyshev_nodes(0, 0.7).tolist() == [0.0]  # the grid of a constant


def test_linear_flow_rejects_a_node_degree_below_one(lattice):
    # degree 0 has the single node t = 0: its value would be the data, not u(T)
    pair = InitialPair(SpectralField.delta(lattice, 1, 1.0), SpectralField.zero(lattice))
    with pytest.raises(ValueError, match="node degree"):
        linear_flow(pair, 0.5, 0)
    assert linear_flow(pair, 0.5, 1).nodes.tolist() == [0.0, 0.5]


def test_barycentric_reproduces_closed_form(lattice):
    pair = InitialPair(hermitian_field(lattice, 3, 8), hermitian_field(lattice, 4, 8))
    traj = linear_flow(pair, 0.9, 16)
    t = 0.4321
    field = traj.at(t)
    lam = lambda_symbol(field.xi, lattice)
    sup, mat = traj.support_and_matrix()
    u0 = np.zeros(sup.size, np.complex128)
    u1 = np.zeros(sup.size, np.complex128)
    u0[np.searchsorted(sup, pair.u0.xi)] = pair.u0.c
    u1[np.searchsorted(sup, pair.u1.xi)] = pair.u1.c
    lam_s = lambda_symbol(sup, lattice)
    exact = np.cos(t * lam_s) * u0 + t * stable_sinc(t * lam_s) * u1
    keep = exact != 0
    assert np.allclose(field.c, exact[keep], rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("degree", [4, 16, 33])
def test_barycentric_rows_match_scalar_calls(degree):
    nodes = chebyshev_nodes(degree, 0.9)
    rng = np.random.default_rng(degree)
    # random times plus quadrature times that land exactly on nodes
    times = np.concatenate([rng.uniform(0.0, 0.9, 20), chebyshev_nodes(degree, 0.9),
                            chebyshev_nodes(8, 0.45)])
    rows = flow.barycentric_coeffs(nodes, times)
    assert rows.shape == (times.size, nodes.size)
    for t, row in zip(times, rows):
        single = flow.barycentric_coeffs(nodes, t)
        assert single.shape == nodes.shape
        assert row.tobytes() == single.tobytes()
    at_node = flow.barycentric_coeffs(nodes, nodes[3])
    assert at_node.tobytes() == np.eye(nodes.size)[3].tobytes()


# ----------------------------------------------------------------------
# removable singularity
# ----------------------------------------------------------------------

def test_sinc_path_continuous_near_zero():
    for lam in (1e-6, 1e-9, 0.0):
        t = 0.8
        value = t * stable_sinc(t * lam)
        assert value == pytest.approx(t, abs=1e-12)


def test_sinc_matches_direct_away_from_zero():
    x = 0.37
    assert stable_sinc(x) == pytest.approx(math.sin(x) / x, rel=1e-15)


def test_sinc_is_one_at_zero():
    assert stable_sinc(0.0) == 1.0
    assert stable_sinc(-0.0) == 1.0
    values = stable_sinc(np.array([0.0, -0.0, 1e-300]))
    assert values.tolist() == [1.0, 1.0, 1.0]


def test_sinc_matches_its_taylor_series_near_zero():
    # below 1e-4 the series 1 - x^2/6 + x^4/120 is exact to 1e-23
    x = np.concatenate([np.logspace(-300, -4, 2000), -np.logspace(-12, -4, 200)])
    x2 = x * x
    series = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    assert np.max(np.abs(stable_sinc(x) - series)) <= 2.3e-16


# ----------------------------------------------------------------------
# linear flow
# ----------------------------------------------------------------------

def test_flow_constant_mode(lattice):
    pair = InitialPair(SpectralField.delta(lattice, 0, 2.5),
                       SpectralField.zero(lattice))
    traj = linear_flow(pair, 1.0, 8)
    for f in traj.fields:
        assert f.get(0) == pytest.approx(2.5)


def test_flow_velocity_mode_grows_linearly(lattice):
    pair = InitialPair(SpectralField.zero(lattice),
                       SpectralField.delta(lattice, 0, 1.5))
    traj = linear_flow(pair, 1.0, 8)
    for t, f in zip(traj.nodes, traj.fields):
        assert f.get(0) == pytest.approx(1.5 * t, abs=1e-14)


def test_flow_l1_bounded_by_data(lattice):
    pair = InitialPair(hermitian_field(lattice, 1), hermitian_field(lattice, 2))
    traj = linear_flow(pair, 1.0, 16)
    bound = norm(pair, NormSpec("wiener_pair"))
    for f in traj.fields:
        assert f.l1() <= bound + 1e-12


def test_flow_hermitian(lattice):
    pair = InitialPair(hermitian_field(lattice, 5), hermitian_field(lattice, 6))
    assert linear_flow(pair, 0.8, 12).is_hermitian()


# ----------------------------------------------------------------------
# Duhamel operator
# ----------------------------------------------------------------------

def test_duhamel_zero_argument(lattice):
    z = constant_trajectory(lattice, SpectralField.zero(lattice), 0.5)
    f = constant_trajectory(lattice, SpectralField.delta(lattice, 2, 1.0), 0.5)
    assert duhamel([z, f], 0.5).nnz == 0


def test_duhamel_single_frequency_closed_form(lattice):
    # time-constant inputs delta_xi1*c1, delta_xi2*c2:
    # output amplitude (c1 c2)(1 - cos(t lam(xi1+xi2)))
    c1, c2, horizon = 0.8, 1.1, 0.9
    t1 = constant_trajectory(lattice, SpectralField.delta(lattice, 5, c1), horizon)
    t2 = constant_trajectory(lattice, SpectralField.delta(lattice, 9, c2), horizon)
    out = duhamel([t1, t2], horizon)
    lam = lambda_symbol(14, lattice)
    expected = c1 * c2 * (1 - math.cos(horizon * lam))
    assert out.get(14).real == pytest.approx(expected, rel=1e-10)
    assert abs(out.get(14).imag) < 1e-14


def test_duhamel_l1_bound(lattice):
    pair = InitialPair(hermitian_field(lattice, 11), hermitian_field(lattice, 12))
    traj = linear_flow(pair, 0.7, 16)
    out = duhamel([traj, traj], 0.7)
    sup = max(f.l1() for f in traj.fields)
    assert out.l1() <= 0.5 * 0.7**2 * sup**2 + 1e-10


def test_duhamel_multilinear(lattice):
    a = linear_flow(InitialPair(hermitian_field(lattice, 21, 6),
                                SpectralField.zero(lattice)), 0.6, 12)
    b = linear_flow(InitialPair(hermitian_field(lattice, 22, 6),
                                SpectralField.zero(lattice)), 0.6, 12)
    other = linear_flow(InitialPair(hermitian_field(lattice, 23, 6),
                                    SpectralField.zero(lattice)), 0.6, 12)
    alpha, beta = 0.7, -1.3
    combo = a.scale(alpha) + b.scale(beta)
    lhs = duhamel([other, combo], 0.6)
    rhs = duhamel([other, a], 0.6).scale(alpha) + duhamel([other, b], 0.6).scale(beta)
    diff = (lhs - rhs).l2()
    assert diff <= 1e-12 * max(rhs.l2(), 1e-30)


def test_duhamel_zero_time(lattice):
    f = constant_trajectory(lattice, SpectralField.delta(lattice, 1, 1.0), 0.5)
    assert duhamel([f, f], 0.0).nnz == 0


def test_duhamel_horizon_mismatch(lattice):
    f = constant_trajectory(lattice, SpectralField.delta(lattice, 1, 1.0), 0.5)
    g = constant_trajectory(lattice, SpectralField.delta(lattice, 1, 1.0), 0.6)
    with pytest.raises(LatticeMismatchError):
        duhamel([f, g], 0.5)


def test_duhamel_cutoff_overflow_names_frequency():
    lat = FrequencyLattice(period=1.0, cutoff=10)
    f = constant_trajectory(lat, SpectralField.delta(lat, 7, 1.0), 0.5)
    with pytest.raises(CutoffOverflowError) as err:
        duhamel([f, f], 0.5)
    assert err.value.frequency == 14


def test_duhamel_trajectory_matches_closed_form(lattice):
    c, horizon = 1.2, 0.8
    t1 = constant_trajectory(lattice, SpectralField.delta(lattice, 3, c), horizon)
    out = duhamel_trajectory([t1, t1], 16)
    lam = lambda_symbol(6, lattice)
    for t, f in zip(out.nodes, out.fields):
        expected = c * c * (1 - math.cos(t * lam))
        assert f.get(6).real == pytest.approx(expected, abs=1e-10 * max(c * c, 1))


def test_degree_self_convergence(lattice):
    pair = InitialPair(hermitian_field(lattice, 31, 10),
                       hermitian_field(lattice, 32, 10))
    lo = linear_flow(pair, 0.9, 16)
    hi = linear_flow(pair, 0.9, 32)
    out16 = duhamel([lo, lo], 0.9, quad_degree=16)
    out32 = duhamel([hi, hi], 0.9, quad_degree=32)
    diff = (out16 - out32).l2()
    assert diff <= 1e-11 * out32.l2()


def test_trajectory_json(lattice):
    pair = InitialPair(hermitian_field(lattice, 41, 4), SpectralField.zero(lattice))
    traj = linear_flow(pair, 0.5, 6)
    doc = json.loads(traj.to_json())
    assert doc["horizon"] == 0.5
    assert len(doc["nodes"]) == 7
    assert len(doc["fields"]) == 7


# ----------------------------------------------------------------------
# resolved Chebyshev degree
# ----------------------------------------------------------------------

def polynomial_trajectory(lattice, coeffs, horizon=0.7):
    """Node values of the Chebyshev series sum_n coeffs[n] T_n(2t/horizon - 1),
    one column of coeffs per mode."""
    nodes = chebyshev_nodes(16, horizon)
    theta = np.arccos(2.0 * nodes / horizon - 1.0)
    values = np.cos(np.outer(theta, np.arange(coeffs.shape[0]))) @ coeffs
    return Trajectory(lattice, horizon, nodes, np.arange(coeffs.shape[1]), values)


@pytest.mark.parametrize("d", range(17))
def test_polynomial_resolves_to_its_degree(lattice, d):
    rng = np.random.default_rng(d)
    coeffs = rng.standard_normal((d + 1, 8)) + 1j * rng.standard_normal((d + 1, 8))
    coeffs[d] *= 0.01 / np.max(np.abs(coeffs[d]))  # a small top coefficient counts
    coeffs[:, 5] *= 1e-9  # as does a small mode, at the trajectory's scale
    assert polynomial_trajectory(lattice, coeffs).resolved_degree == d


def test_zero_trajectory_resolves_to_degree_zero(lattice):
    assert polynomial_trajectory(lattice, np.zeros((1, 3), complex)).resolved_degree == 0
    constant = constant_trajectory(lattice, SpectralField.delta(lattice, 2, 1.0), 0.5)
    assert constant.resolved_degree == 0


def test_unresolved_time_dependence_keeps_the_node_degree(lattice):
    nodes = chebyshev_nodes(16, 1.0)
    values = np.cos(50.0 * nodes)[:, None] * np.array([1.0, 0.5j])
    traj = Trajectory(lattice, 1.0, nodes, np.array([-1, 1]), values)
    assert traj.resolved_degree == 16


@pytest.mark.parametrize("layout", ["grid", "box"])
def test_sum_at_the_resolved_degree_matches_the_full_degree(monkeypatch, layout):
    lattice = FrequencyLattice(period=1.0, cutoff=1 << 20)
    lin = two_cluster_trajectory(lattice, degree=16)
    term = duhamel_trajectory([lin, lin])
    for groups in ([(2, [term, lin]), (1, [lin, lin])],
                   [(3, [term, lin, lin]), (1, [lin, lin, lin])]):
        k = len(groups[0][1])
        assert max(sum(a.resolved_degree for a in args) for _, args in groups) < 16 * k
        out = []
        for full in (False, True):
            monkeypatch.setattr(*FOLDS[layout])
            if full:
                monkeypatch.setattr(Trajectory, "resolved_degree", property(lambda a: a.degree))
            out.append(duhamel_sum(groups))
            monkeypatch.undo()
        resolved, reference = out
        assert resolved.sup_distance(reference) <= 1e-14 * reference.sup_l1()


# ----------------------------------------------------------------------
# the grid folds of the Duhamel product agree with a schoolbook fold
# ----------------------------------------------------------------------

def schoolbook_fold(rows, batch, prune):
    """Reference for lattice.fold_product: at each time, every product of
    one value per factor added at its index sum, then pruned as the
    engine prunes each time."""
    n_times = rows[0][1].shape[0]
    if any(sup.size == 0 for sup, _ in rows):
        return np.empty(0, np.int64), np.empty((n_times, 0), np.complex128)
    xi, values = np.zeros(1, np.int64), np.ones((n_times, 1), np.complex128)
    for sup, mat in rows:
        xi, inv = np.unique((xi[:, None] + sup[None, :]).ravel(), return_inverse=True)
        sums = np.empty((n_times, xi.size), np.complex128)
        for row, a, b in zip(sums, values, mat):
            prods = np.outer(a, b).ravel()
            row.real = np.bincount(inv, prods.real, xi.size)
            row.imag = np.bincount(inv, prods.imag, xi.size)
        values = sums
    mags = np.abs(values)
    values[mags < prune * np.max(mags, axis=1, keepdims=True)] = 0
    keep = np.any(values != 0, axis=0)
    return xi[keep], values[:, keep]


# "grid" and "box" force a layout on the fold engine; "sparse" replaces
# the engine, where flow calls it, by the schoolbook reference
FOLDS = {
    "grid": (lattice_module, "_fold_layout",
             lambda sups: lattice_module._cluster_split(sups) or lattice_module._box_layout(sups)),
    "box": (lattice_module, "_fold_layout", lattice_module._box_layout),
    "sparse": (flow, "fold_product", schoolbook_fold),
}


def fold_outputs(monkeypatch, args, t_eval, folds):
    out = {}
    for name in folds:
        monkeypatch.setattr(*FOLDS[name])
        out[name] = duhamel(args, t_eval)
        monkeypatch.undo()
    return out


def assert_folds_agree(out):
    ref = out["sparse"]
    assert ref.nnz > 0
    for name, f in out.items():
        assert np.array_equal(f.xi, ref.xi), name
        assert np.max(np.abs(f.c - ref.c)) <= 1e-12 * ref.sup(), name
        assert f.is_hermitian(), name


def bump_trajectories(N, max_gen):
    """Linear flow and Duhamel terms of the bump up to generation max_gen."""
    params = schedule_from_N(N, 2, -0.75, delta_hint=0.25)
    lin = linear_flow(make_bump(params, params.lattice()).phi, params.T)
    terms = [lin]
    for _ in range(max_gen):
        terms.append(duhamel_trajectory([terms[-1], lin]))
    return params.T, terms


@pytest.mark.parametrize("N, folds", [
    (1 << 11, ("grid", "box", "sparse")),
    # a 1-D box 2^43 wide cannot be allocated
    (1 << 40, ("grid", "sparse")),
])
def test_folds_agree_on_bump_trajectories(monkeypatch, N, folds):
    horizon, terms = bump_trajectories(N, 2)
    for args in ([terms[0], terms[0]], [terms[2], terms[1]],
                 [terms[1], terms[0], terms[0]]):
        assert_folds_agree(fold_outputs(monkeypatch, args, horizon, folds))


def test_grid_fold_carries_wide_rows(monkeypatch):
    # two clusters 140 apart and 81 wide: the product's r-span exceeds
    # the base, so cells (m, r) and (m+1, r-B) must be added together
    lattice = FrequencyLattice(period=1.0, cutoff=1 << 20)
    xi = np.concatenate([np.arange(-40, 41), np.arange(100, 181)])
    xi = np.union1d(xi, -xi)
    rng = np.random.default_rng(5)
    pos = rng.standard_normal(xi.size) + 1j * rng.standard_normal(xi.size)
    c = pos + np.conj(pos[::-1])
    field = SpectralField(lattice, xi, c)
    traj = linear_flow(InitialPair(field, field.scale(0.5)), 0.7, 12)
    sups = [traj.support_and_matrix()[0]] * 2
    base, _, (_, n_cols) = lattice_module._cluster_split(sups)
    assert n_cols > base
    for args in ([traj, traj], [traj, traj, traj]):
        assert_folds_agree(fold_outputs(monkeypatch, args, 0.7, FOLDS))


def test_single_cluster_takes_the_box(monkeypatch, lattice):
    pair = InitialPair(hermitian_field(lattice, 51, 12), hermitian_field(lattice, 52, 12))
    traj = linear_flow(pair, 0.6, 12)
    sup = traj.support_and_matrix()[0]

    def no_split(sups):
        raise AssertionError("a single cluster was split")

    monkeypatch.setattr(lattice_module, "_cluster_split", no_split)
    base, parts, _ = lattice_module._fold_layout([sup, sup])
    assert base == 0 and all(m == 0 for m, _, _ in parts)
    monkeypatch.undo()
    assert_folds_agree(fold_outputs(monkeypatch, [traj, traj], 0.6, FOLDS))


# ----------------------------------------------------------------------
# a trajectory forms its product once and matches the single-time integral
# ----------------------------------------------------------------------

def two_cluster_trajectory(lattice, degree=12, horizon=0.7):
    """Clusters 140 apart and 81 wide: the grid fold carries its rows."""
    xi = np.concatenate([np.arange(-40, 41), np.arange(100, 181)])
    xi = np.union1d(xi, -xi)
    rng = np.random.default_rng(5)
    pos = rng.standard_normal(xi.size) + 1j * rng.standard_normal(xi.size)
    field = SpectralField(lattice, xi, pos + np.conj(pos[::-1]))
    return linear_flow(InitialPair(field, field.scale(0.5)), horizon, degree)


def test_fold_grid_above_the_cap_raises(monkeypatch):
    # no fallback path: a product whose smallest grid exceeds the cap fails
    lattice = FrequencyLattice(period=1.0, cutoff=1 << 20)
    traj = two_cluster_trajectory(lattice)
    sups = [traj.support_and_matrix()[0]] * 2
    n_rows, n_cols = lattice_module._cluster_split(sups)[2]
    box_cells = lattice_module._box_layout(sups)[2][1]
    monkeypatch.setattr(lattice_module, "_FOLD_CAP", min(n_rows * n_cols, box_cells) - 1)
    field = traj.fields[0]
    with pytest.raises(CapacityError):
        lattice_module.convolve(field, field)
    with pytest.raises(CapacityError):
        duhamel([traj, traj], 0.7)


def test_fold_cap_bounds_transforms_and_product(monkeypatch):
    # three mode pairs over |xi| <= 2050 on the 1-D box: the product of two
    # has 8201 cells per time, padded to the transform length of 8201 cells,
    # at 17 quadrature times
    cells, times = 8201, 17
    padded = lattice_module._fft_length(cells)
    lattice = FrequencyLattice(period=1.0, cutoff=1 << 20)
    field = SpectralField(lattice, np.array([-2050, -7, 0, 7, 2050]),
                          np.array([0.5 - 0.5j, 1 + 2j, 3.0, 1 - 2j, 0.5 + 0.5j]))
    traj = linear_flow(InitialPair(field, field.scale(0.5)), 0.7, 12)
    monkeypatch.setattr(*FOLDS["box"])
    reference = duhamel([traj, traj], 0.7)
    per_factor = []
    for name in ("fft", "fft2"):
        transform = getattr(np.fft, name)

        def spy(a, *rest, _transform=transform, **kw):
            per_factor.append(math.prod(a.shape[1:]))
            return _transform(a, *rest, **kw)

        monkeypatch.setattr(np.fft, name, spy)
    # 17 padded rows per factor in one transform would exceed this cap,
    # while the 17 x 8201 product fits under it
    cap = times * padded - 1
    assert times * cells <= cap
    monkeypatch.setattr(lattice_module, "_FOLD_CAP", cap)
    capped = duhamel([traj, traj], 0.7)
    assert len(per_factor) == 2 and max(per_factor) <= cap
    assert np.array_equal(capped.xi, reference.xi)
    assert np.allclose(capped.c, reference.c, rtol=1e-14, atol=0.0)
    # 17 x 8201 product cells exceed it: raised before the product exists
    monkeypatch.setattr(lattice_module, "_FOLD_CAP", times * cells - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            duhamel([traj, traj], 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < times * cells * 16 // 4


def test_fold_cap_bounds_the_union_of_a_sum(monkeypatch):
    # two groups whose products have disjoint supports of 101 modes each:
    # the sum on the grid of degree D (twice the larger resolved degree)
    # holds (D + 1) x 202 cells, twice a part
    lattice = FrequencyLattice(period=1.0, cutoff=1 << 20)
    rng = np.random.default_rng(7)
    trajs = []
    for lo in (0, 200):
        c = rng.standard_normal(51) + 1j * rng.standard_normal(51)
        field = SpectralField(lattice, np.arange(lo, lo + 51), c)
        trajs.append(linear_flow(InitialPair(field, field.scale(0.5)), 0.7, 12))
    groups = [(2, [trajs[0], trajs[0]]), (1, [trajs[1], trajs[1]])]
    times, cells = 2 * max(t.resolved_degree for t in trajs) + 1, 202
    reference = duhamel_trajectory(groups[0][1]).scale(2.0) + duhamel_trajectory(groups[1][1])
    monkeypatch.setattr(*FOLDS["box"])
    monkeypatch.setattr(lattice_module, "_FOLD_CAP", times * cells)
    merged = duhamel_sum(groups)
    assert np.array_equal(merged.support, reference.support)
    scale = np.max(np.abs(reference.values))
    assert np.max(np.abs(merged.values - reference.values)) <= 1e-14 * scale
    # each group's product fits under this cap, their sum does not: raised
    # before the sum's matrix exists
    monkeypatch.setattr(lattice_module, "_FOLD_CAP", times * cells - 1)
    shapes = []
    zeros = np.zeros

    def spy(shape, *rest, **kw):
        shapes.append(tuple(np.atleast_1d(shape)))
        return zeros(shape, *rest, **kw)

    monkeypatch.setattr(np, "zeros", spy)
    with pytest.raises(CapacityError):
        duhamel_sum(groups)
    assert shapes and all(math.prod(shape) < times * cells for shape in shapes)


def test_fold_cap_bounds_the_kernel_pass(monkeypatch):
    # a constant trajectory has resolved degree 0: its product is one row
    # of 201 cells, while the kernel pass takes the 17 quadrature rows of
    # each output node
    lattice = FrequencyLattice(period=1.0, cutoff=1 << 20)
    field = SpectralField(lattice, np.arange(-50, 51), np.full(101, 0.5 + 0.25j))
    traj = constant_trajectory(lattice, field, 0.7)
    assert traj.resolved_degree == 0
    cells, rows = 201, 17
    monkeypatch.setattr(lattice_module, "_FOLD_CAP", rows * cells)
    # xi = 0, where the symbol vanishes, drops out of the integral
    assert duhamel_trajectory([traj, traj]).support.size == cells - 1
    monkeypatch.setattr(lattice_module, "_FOLD_CAP", rows * cells - 1)
    with pytest.raises(CapacityError, match="kernel pass"):
        duhamel_trajectory([traj, traj])


def test_batched_integral_matches_single_times():
    # k = 3 at quadrature degree 12: every node of the trajectory against
    # the single-time integral
    lattice = FrequencyLattice(period=1.0, cutoff=1 << 20)
    traj = two_cluster_trajectory(lattice)
    args = [traj, traj, traj]
    out = duhamel_trajectory(args, quad_degree=12)
    scale = np.max(np.abs(out.values))
    for i, t in enumerate(out.nodes):
        ref = duhamel(args, float(t), quad_degree=12)
        f = out.field(i)
        assert np.array_equal(f.xi, ref.xi), t
        assert np.max(np.abs(f.c - ref.c), initial=0.0) <= 1e-12 * scale, t


def test_each_integrated_row_is_pruned_at_its_largest_entry():
    # on a period of 1e8, lam(1) ~ 6e-8: the integrals at xi = +-1, +-2
    # come to about 1e-15 of those near |xi| = 1e8 and fall below the prune
    lattice = FrequencyLattice(period=1e8, cutoff=1 << 40)
    field = SpectralField(lattice, np.array([-10**8, -1, 0, 1, 10**8]), np.ones(5))
    traj = linear_flow(InitialPair(field, field.scale(0.5)), 0.7, 12)
    out = duhamel_trajectory([traj, traj])
    for f in out.fields[1:] + [duhamel([traj, traj], 0.7)]:
        assert f.nnz > 0 and np.all(np.abs(f.xi) > 2)
        assert np.min(np.abs(f.c)) >= lattice_module.PRUNE_REL * f.sup()


def assert_trajectory_matches_single_times(monkeypatch, args, folds):
    for name in folds:
        monkeypatch.setattr(*FOLDS[name])
        traj = duhamel_trajectory(args)
        scale = max(f.sup() for f in traj.fields)
        assert scale > 0, name
        assert np.array_equal(traj.nodes, args[0].nodes)
        for t, f in zip(traj.nodes, traj.fields):
            ref = duhamel(args, float(t))
            assert np.array_equal(f.xi, ref.xi), (name, t)
            assert np.max(np.abs(f.c - ref.c), initial=0.0) <= 1e-12 * scale, (name, t)
        monkeypatch.undo()


def test_trajectory_matches_single_times_with_carry(monkeypatch):
    lattice = FrequencyLattice(period=1.0, cutoff=1 << 20)
    traj = two_cluster_trajectory(lattice)
    base, _, (_, n_cols) = lattice_module._cluster_split([traj.support_and_matrix()[0]] * 2)
    assert n_cols > base
    for args in ([traj, traj], [traj, traj, traj]):
        assert_trajectory_matches_single_times(monkeypatch, args, FOLDS)


@pytest.mark.parametrize("layout", ["grid", "box"])
def test_trajectory_agrees_across_transform_lengths(monkeypatch, layout):
    # the 5-smooth grid shape against the powers of two it replaced, on the
    # grid with carry and on the 1-D box
    lattice = FrequencyLattice(period=1.0, cutoff=1 << 20)
    traj = two_cluster_trajectory(lattice)
    for args in ([traj, traj], [traj, traj, traj]):
        out = []
        for length in (lattice_module._fft_length, lattice_module._next_pow2):
            monkeypatch.setattr(*FOLDS[layout])
            monkeypatch.setattr(lattice_module, "_fft_length", length)
            out.append(duhamel_trajectory(args))
            monkeypatch.undo()
        smooth, pow2 = out
        assert np.array_equal(smooth.support, pow2.support)
        scale = np.max(np.abs(pow2.values))
        assert np.max(np.abs(smooth.values - pow2.values)) <= 1e-12 * scale


def test_trajectory_matches_single_times_on_bump_terms(monkeypatch):
    # supports with wide gaps: on the 1-D box the interpolated rounding
    # dust of late times must not fill the gaps at early nodes
    _, terms = bump_trajectories(1 << 9, 2)
    for args in ([terms[2], terms[1]], [terms[1], terms[0], terms[0]]):
        assert_trajectory_matches_single_times(monkeypatch, args, FOLDS)


def test_trajectory_matches_single_times_for_mixed_degrees(monkeypatch, lattice):
    pair = InitialPair(hermitian_field(lattice, 61, 10), hermitian_field(lattice, 62, 10))
    a, b, c = (linear_flow(pair, 0.8, p) for p in (12, 16, 8))
    # output nodes are those of the first argument; D = 28 and D = 36
    for args in ([a, b], [b, a], [a, b, c]):
        assert_trajectory_matches_single_times(monkeypatch, args, FOLDS)


def test_trajectory_matches_single_times_on_line_surrogate(monkeypatch):
    # the dual weight 1/period enters each output as weight**(k-1)
    line = FrequencyLattice(period=8.0, cutoff=1 << 20, kind="line_approx")
    pair = InitialPair(hermitian_field(line, 71, 12), hermitian_field(line, 72, 12))
    traj = linear_flow(pair, 0.6, 12)
    for args in ([traj, traj], [traj, traj, traj]):
        assert_trajectory_matches_single_times(monkeypatch, args, FOLDS)
    out = duhamel_trajectory([traj, traj])
    torus = FrequencyLattice(period=8.0, cutoff=1 << 20)
    same = Trajectory(torus, 0.6, traj.nodes, traj.support, traj.values)
    # same symbol, so the outputs differ by the weight alone
    plain = duhamel_trajectory([same, same])
    for f, g in zip(out.fields, plain.fields):
        assert np.array_equal(f.xi, g.xi)
        assert np.allclose(f.c, g.c / 8.0, rtol=1e-14, atol=0.0)


def test_trajectory_does_not_call_the_single_time_integral(monkeypatch, lattice):
    pair = InitialPair(hermitian_field(lattice, 81, 8), hermitian_field(lattice, 82, 8))
    traj = linear_flow(pair, 0.5, 12)

    def per_node(*_, **__):
        raise AssertionError("duhamel_trajectory called duhamel")

    monkeypatch.setattr(flow, "duhamel", per_node)
    assert duhamel_trajectory([traj, traj]).sup_l1() > 0


@pytest.mark.parametrize("layout, quad_degree", [
    ("grid", 16), ("box", 16), ("grid", 12), ("box", 5),
])
def test_transform_batches_stay_within_quadrature_size(monkeypatch, layout, quad_degree):
    lattice = FrequencyLattice(period=1.0, cutoff=1 << 20)
    traj = two_cluster_trajectory(lattice, degree=16)
    batches = []
    for name in ("fft", "fft2"):
        transform = getattr(np.fft, name)

        def spy(a, *rest, _transform=transform, **kw):
            batches.append(a.shape[1])
            return _transform(a, *rest, **kw)

        monkeypatch.setattr(np.fft, name, spy)
    monkeypatch.setattr(*FOLDS[layout])
    for args in ([traj, traj], [traj, traj, traj]):
        batches.clear()
        duhamel_trajectory(args, quad_degree=quad_degree)
        # every node of the product grid, of degree the sum of the
        # arguments' resolved degrees, is transformed once
        assert sum(batches) == traj.resolved_degree * len(args) + 1
        assert max(batches) <= quad_degree + 1


# ----------------------------------------------------------------------
# the kernel pass, and one transform per recurring factor
# ----------------------------------------------------------------------

def dense_trajectory(N):
    """Linear flow of the bump plus base data on every |xi| <= 64."""
    params = schedule_from_N(N, 2, -0.75, delta_hint=0.25)
    lattice = params.lattice()
    data = perturbed_data(sample_base_data(3, 0.25, 0.5, lattice),
                          make_bump(params, lattice))
    return linear_flow(data, params.T)


def direct_integral(lattice, xi, times, product, interp, quad_degree):
    """The kernel pass written out: the product interpolated to every
    quadrature node, times the kernel of each frequency, summed, and each
    row pruned at its largest entry."""
    lam = lambda_symbol(xi, lattice)
    out = np.zeros((times.size, xi.size), dtype=np.complex128)
    for i, t in enumerate(times):
        taus = chebyshev_nodes(quad_degree, t)
        weights = clenshaw_curtis_weights(quad_degree) * (t / 2.0)
        kernel = np.sin((t - taus)[:, None] * lam) * lam * weights[:, None]
        out[i] = np.sum(kernel * (interp[i] @ product), axis=0)
        mags = np.abs(out[i])
        out[i][mags < lattice_module.PRUNE_REL * np.max(mags, initial=0.0)] = 0
    return out


def kernel_pass_cases(name):
    """(args, quad_degree, scale) per case: the bump's terms at N = 2^40,
    base data at N = 2^11, two clusters.  Products of linear flows are
    compared at each row's largest entry, products of later terms at the
    trajectory's (near t = 0 such a product is far smaller than its
    rounding on the product grid, 2e-4 of the first node's row)."""
    if name == "bump":
        # lam is 1.0 beyond |xi| ~ 1e8: 17 lams for the 403 frequencies of
        # the cube of the linear flow, 12 for the 189 of its square
        _, terms = bump_trajectories(1 << 40, 2)
        lin = terms[0]
        return [([lin, lin], 16, "row"), ([lin, lin, lin], 16, "row"),
                ([terms[2], terms[1]], 16, "trajectory"),
                ([terms[1], lin, lin], 16, "trajectory")]
    if name == "dense":
        # base data on every |xi| <= 64: nearly every |xi| has its own lam
        dense = dense_trajectory(1 << 11)
        return [([dense, dense], 16, "row")]
    lattice = FrequencyLattice(period=1.0, cutoff=1 << 20)
    traj = two_cluster_trajectory(lattice)
    # a support that is not symmetric: lam(xi) and lam(-xi) meet unpaired
    xi = np.concatenate([np.arange(-40, 41), np.arange(100, 181)])
    rng = np.random.default_rng(6)
    c = rng.standard_normal(xi.size) + 1j * rng.standard_normal(xi.size)
    field = SpectralField(lattice, xi, c)
    lopsided = linear_flow(InitialPair(field, field.scale(0.5)), 0.7, 12)
    return [([traj, traj, traj], 12, "row"), ([lopsided, lopsided], 16, "row")]


@pytest.mark.parametrize("name", ["bump", "dense", "clusters"])
def test_kernel_pass_matches_a_direct_evaluation(monkeypatch, name):
    passes = []
    integrate = flow._integrate

    def spy(*args):
        passes.append((args, integrate(*args)))
        return passes[-1][1]

    monkeypatch.setattr(flow, "_integrate", spy)
    for args, quad_degree, per in kernel_pass_cases(name):
        passes.clear()
        duhamel_trajectory(args, quad_degree=quad_degree)
        (inputs, out), = passes
        ref = direct_integral(*inputs)
        assert np.array_equal(out != 0, ref != 0)
        scale = np.max(np.abs(ref), axis=1 if per == "row" else None, keepdims=True)
        assert np.all(np.abs(out - ref) <= 1e-13 * scale)


def output_bytes(out):
    """The bytes of a trajectory's or a field's frequencies and values."""
    arrays = (out.support, out.values) if isinstance(out, Trajectory) else (out.xi, out.c)
    return [a.tobytes() for a in arrays]


def copied(traj):
    """An equal trajectory that shares no array with traj."""
    return Trajectory(traj.lattice, traj.horizon, traj.nodes.copy(),
                      traj.support.copy(), traj.values.copy())


@pytest.mark.parametrize("N", [1 << 9, 1 << 40])
def test_a_recurring_factor_is_transformed_once(monkeypatch, N):
    # the product of a factor that recurs takes its spectrum as often as
    # it recurs, bit for bit what two equal but distinct factors give
    horizon, terms = bump_trajectories(N, 1)
    u, v = terms
    grids = []
    for name in ("fft", "fft2"):
        transform = getattr(np.fft, name)

        def spy(a, *rest, _transform=transform, **kw):
            grids.append(a.shape[0])
            return _transform(a, *rest, **kw)

        monkeypatch.setattr(np.fft, name, spy)
    for same, distinct, n_grids in (([u, u], [u, copied(u)], 1),
                                    ([u, u, u], [u, copied(u), copied(u)], 1),
                                    ([u, v, u], [u, v, copied(u)], 2)):
        for evaluate in (duhamel_trajectory, lambda args: duhamel(args, horizon)):
            grids.clear()
            once = evaluate(same)
            assert grids and set(grids) == {n_grids}
            grids.clear()
            apart = evaluate(distinct)
            assert grids and set(grids) == {len(distinct)}
            assert output_bytes(once) == output_bytes(apart)


@pytest.mark.parametrize("lattice", [
    FrequencyLattice(period=1.0, cutoff=1 << 20),
    FrequencyLattice(period=8.0, cutoff=1 << 20, kind="line_approx"),
], ids=["torus", "line_approx"])
def test_trajectory_json_roundtrip_is_exact(lattice):
    pair = InitialPair(hermitian_field(lattice, 91, 6), hermitian_field(lattice, 92, 6))
    lin = linear_flow(pair, 0.5, 8)
    signed_zero = SpectralField(lattice, np.array([-1, 0, 1]),
                                np.array([0.5 - 0.25j, complex(2.0, -0.0), 0.5 + 0.25j]))
    for traj in (lin, duhamel_trajectory([lin, lin]),
                 constant_trajectory(lattice, signed_zero, 0.5, 4)):
        back = Trajectory.from_json(traj.to_json())
        assert back.lattice == traj.lattice
        assert back.horizon == traj.horizon
        assert back.nodes.tobytes() == traj.nodes.tobytes()
        assert len(back.fields) == len(traj.fields)
        for f, g in zip(traj.fields, back.fields):
            assert g.lattice == lattice
            assert g.xi.tobytes() == f.xi.tobytes()
            assert g.c.tobytes() == f.c.tobytes()
        assert back.to_json() == traj.to_json()


def test_trajectory_json_versioned_and_unversioned(lattice):
    traj = linear_flow(InitialPair(hermitian_field(lattice, 93, 6),
                                   hermitian_field(lattice, 94, 6)), 0.5, 8)
    doc = json.loads(traj.to_json())
    assert doc["version"] == lattice_module.JSON_VERSION
    assert all(f["version"] == lattice_module.JSON_VERSION for f in doc["fields"])
    # documents written before versioning hold no version key
    del doc["version"]
    for f in doc["fields"]:
        del f["version"]
    back = Trajectory.from_json(json.dumps(doc))
    assert back.to_json() == traj.to_json()
    assert back.values.tobytes() == traj.values.tobytes()


def test_trajectory_json_rejects_unknown_keys_and_versions(lattice):
    traj = linear_flow(InitialPair(hermitian_field(lattice, 95, 6),
                                   SpectralField.zero(lattice)), 0.5, 8)
    for edit in (lambda d: d.update(degree=8),
                 lambda d: d.update(version=lattice_module.JSON_VERSION + 1),
                 lambda d: d["fields"][2].update(extra=1),
                 lambda d: d["fields"][0].update(version="1")):
        doc = json.loads(traj.to_json())
        edit(doc)
        with pytest.raises(ValueError):
            Trajectory.from_json(json.dumps(doc))


# ----------------------------------------------------------------------
# the (support, matrix) trajectory against its per-node fields
# ----------------------------------------------------------------------

def field_bytes(f):
    return f.xi.tobytes(), f.c.tobytes()


def assert_matches_node_fields(a, b):
    """Every operation of a trajectory gives, byte for byte, what the same
    operation gives on its node fields; the matrix of interpolation is the
    one from_fields builds from those fields."""
    fa, fb = a.fields, b.fields
    assert [field_bytes(f) for f in (a + b).fields] == [
        field_bytes(f + g) for f, g in zip(fa, fb)]
    for s in (-0.5, 1.75j):
        assert [field_bytes(f) for f in a.scale(s).fields] == [
            field_bytes(f.scale(s)) for f in fa]
    assert repr(a.sup_l1()) == repr(max(f.l1() for f in fa))
    assert repr(a.sup_distance(b)) == repr(max((f - g).l1() for f, g in zip(fa, fb)))
    for tol in (0.0, 1e-12):
        assert a.is_hermitian(tol) == all(f.is_hermitian(tol) for f in fa)
    from_fields = Trajectory.from_fields(a.lattice, a.horizon, a.nodes, fa)
    for t in (0.0, 0.37 * a.horizon, a.nodes[3], a.horizon):
        assert field_bytes(a.at(t)) == field_bytes(from_fields.at(t))
    assert a.to_json() == json.dumps({
        "version": lattice_module.JSON_VERSION,
        "horizon": a.horizon,
        "nodes": [float(t) for t in a.nodes],
        "fields": [json.loads(f.to_json()) for f in fa],
    })
    zero = a + a.scale(-1)
    assert zero.support.size == 0 and zero.values.shape == (a.nodes.size, 0)


def test_trajectory_matches_node_fields_on_flows_and_duhamel(lattice):
    pair = InitialPair(hermitian_field(lattice, 101, 10), hermitian_field(lattice, 102, 6))
    lin = linear_flow(pair, 0.8, 12)
    other = linear_flow(InitialPair(hermitian_field(lattice, 103, 14),
                                    SpectralField.zero(lattice)), 0.8, 12)
    term = duhamel_trajectory([lin, lin])
    # supports differ, so + and sup_distance work on their union
    assert not np.array_equal(lin.support, other.support)
    assert_matches_node_fields(lin, other)
    assert_matches_node_fields(term, lin)
    assert_matches_node_fields(duhamel_trajectory([term, lin]), term)


def test_trajectory_matches_node_fields_with_scattered_node_supports(lattice):
    # each node holds its own 40 of the modes |xi| <= 60, of magnitudes
    # spread over 17 decades: a sum that also ran over the zero entries of
    # a row would group the terms differently and round differently
    rng = np.random.default_rng(104)
    nodes = chebyshev_nodes(8, 0.8)

    def scattered():
        fields = []
        for _ in nodes:
            xi = np.sort(rng.choice(np.arange(-60, 61), 40, replace=False))
            c = np.exp(rng.uniform(-20, 20, 40) + 1j * rng.uniform(0, 2 * np.pi, 40))
            fields.append(SpectralField(lattice, xi, c))
        return Trajectory.from_fields(lattice, 0.8, nodes, fields)

    assert_matches_node_fields(scattered(), scattered())


def test_trajectory_matches_node_fields_on_line_surrogate():
    line = FrequencyLattice(period=8.0, cutoff=1 << 20, kind="line_approx")
    lin = linear_flow(InitialPair(hermitian_field(line, 111, 12),
                                  hermitian_field(line, 112, 12)), 0.6, 12)
    assert_matches_node_fields(duhamel_trajectory([lin, lin]), lin)


def test_trajectory_matches_node_fields_on_rk4_blowup(lattice):
    big = InitialPair(SpectralField.from_pairs(lattice, [(-1, 1000.0), (1, 1000.0)]),
                      SpectralField.zero(lattice))
    traj, diag = oracle.rk4_solve(big, 1.0, 1e-3, 64, k=2, tail_tol=math.inf)
    assert diag.blowup_time is not None
    # rows before the blow-up hold modes, the ones after it are zero
    recorded = [f.nnz > 0 for f in traj.fields]
    assert recorded[:2] == [True, True] and not recorded[-1]
    assert_matches_node_fields(traj, linear_flow(big, 1.0))
