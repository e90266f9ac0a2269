import math

import numpy as np
import pytest

from gibq import flow
from gibq.construction import make_bump, schedule_from_N
from gibq.errors import LatticeMismatchError
from gibq.flow import (
    InitialPair,
    Trajectory,
    chebyshev_nodes,
    clenshaw_curtis_weights,
    duhamel,
    duhamel_trajectory,
    linear_flow,
    stable_sinc,
)
from gibq.lattice import FrequencyLattice, SpectralField, lambda_symbol

from conftest import hermitian_field


def constant_trajectory(lattice, field, horizon, degree=16):
    nodes = chebyshev_nodes(degree, horizon)
    return Trajectory(lattice, horizon, nodes, [field] * nodes.size)


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


# ----------------------------------------------------------------------
# removable singularity
# ----------------------------------------------------------------------

def test_sinc_path_continuous_near_zero():
    for lam in (1e-6, 1e-9, 0.0):
        t = 0.8
        value = t * stable_sinc(t * lam)
        assert value == pytest.approx(t, abs=1e-12)


def test_sinc_matches_direct_above_switch():
    x = 0.37
    assert stable_sinc(x) == pytest.approx(math.sin(x) / x, rel=1e-15)


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
    bound = pair.fl1()
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
    import json

    doc = json.loads(traj.to_json())
    assert doc["horizon"] == 0.5
    assert len(doc["nodes"]) == 7
    assert len(doc["fields"]) == 7


# ----------------------------------------------------------------------
# the three folds of the Duhamel product agree
# ----------------------------------------------------------------------

FOLDS = {
    "grid": lambda sups: flow._cluster_split(sups) or flow._box_layout(sups),
    "box": flow._box_layout,
    "sparse": lambda sups: None,
}


def fold_outputs(monkeypatch, args, t_eval, folds):
    out = {}
    for name in folds:
        monkeypatch.setattr(flow, "_fold_layout", FOLDS[name])
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
    base, _, (_, n_cols) = flow._cluster_split(sups)
    assert n_cols > base
    for args in ([traj, traj], [traj, traj, traj]):
        assert_folds_agree(fold_outputs(monkeypatch, args, 0.7, FOLDS))


def test_single_cluster_takes_the_box(monkeypatch, lattice):
    pair = InitialPair(hermitian_field(lattice, 51, 12), hermitian_field(lattice, 52, 12))
    traj = linear_flow(pair, 0.6, 12)
    sup = traj.support_and_matrix()[0]

    def no_split(sups):
        raise AssertionError("a single cluster was split")

    monkeypatch.setattr(flow, "_cluster_split", no_split)
    base, parts, _ = flow._fold_layout([sup, sup])
    assert base == 0 and all(m == 0 for m, _, _ in parts)
    monkeypatch.undo()
    assert_folds_agree(fold_outputs(monkeypatch, [traj, traj], 0.6, FOLDS))
