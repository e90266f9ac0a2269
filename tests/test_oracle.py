import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from gibq import cli as cli_module
from gibq import harness as harness_module
from gibq import lattice as lattice_module
from gibq import oracle as oracle_module
from gibq.construction import make_bump, schedule, schedule_from_N
from gibq.errors import CapacityError, TruncationTailError
from gibq.flow import InitialPair, chebyshev_nodes, duhamel, linear_flow
from gibq.lattice import SpectralField, lambda_symbol
from gibq.oracle import (
    _dense_conv_power,
    _tail_masses,
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
    # a real cosine mode (rk4_solve integrates real data only) of amplitude
    # a so small that the quadratic term moves mode 7 by a relative O(a^2),
    # far under the tolerance: the RK4 stepping must follow cos(t lam)
    a = 1e-5
    pair = InitialPair(SpectralField.from_pairs(lattice, [(-7, a), (7, a)]),
                       SpectralField.zero(lattice))
    traj, diag = rk4_solve(pair, 1.0, 1e-2, 32, k=2)
    lam = lambda_symbol(7, lattice)
    for t, f in zip(traj.nodes, traj.fields):
        assert f.get(7).real / a == pytest.approx(math.cos(t * lam), abs=1e-8)
        assert f.get(-7) == f.get(7).conjugate()
    assert diag.blowup_time is None


def _hermitian_block(seed, K):
    rng = np.random.default_rng(seed)
    half = rng.standard_normal(K + 1) + 1j * rng.standard_normal(K + 1)
    half[0] = half[0].real
    return np.concatenate([half[:0:-1].conj(), half])


def _conv_power_reference(u, k):
    """The k-fold self-convolution by np.convolve, cut as the oracle cuts it."""
    full = u
    for _ in range(k - 1):
        full = np.convolve(full, u)
    K = (u.size - 1) // 2
    centre = (full.size - 1) // 2
    mags = np.abs(full) ** 2
    discarded = float(np.sum(mags[: centre - K]) + np.sum(mags[centre + K + 1:]))
    return full[centre - K: centre + K + 1], discarded, float(np.sum(mags))


def _whole_power(u_half, k):
    """The whole k-th power through the oracle: modes 0..K zero-padded to
    0..kK, as rk4_solve passes the state at each step start.  Returns
    (kept, discarded, total) as the reference does."""
    K = u_half.size - 1
    power = _dense_conv_power(np.pad(u_half, (0, (k - 1) * K)), k)
    assert power.size == k * K + 1
    return (power[: K + 1], *_tail_masses(power, K))


def _assert_conv_power_matches(got, ref, rel=1e-13):
    kept, discarded, total = got
    kept_ref, discarded_ref, total_ref = ref
    assert np.max(np.abs(kept - kept_ref)) <= rel * np.max(np.abs(kept_ref))
    assert discarded == pytest.approx(discarded_ref, rel=rel)
    assert total == pytest.approx(total_ref, rel=rel)


def _forbidden(*args, **kwargs):
    raise AssertionError("this transform must not run here")


@pytest.mark.parametrize("k", [2, 3])
def test_dense_conv_power_half_block_matches_convolve(monkeypatch, k):
    # the real transform pair on modes 0..K gives the non-negative half of
    # the full block's self-convolution, with the full block's tail sums
    monkeypatch.setattr(np.fft, "fft", _forbidden)
    K = 40
    u = _hermitian_block(80 + k, K)
    kept_ref, discarded_ref, total_ref = _conv_power_reference(u, k)
    got = _whole_power(u[K:], k)
    assert got[0][0].imag == 0.0
    _assert_conv_power_matches(got, (kept_ref[K:], discarded_ref, total_ref))


@pytest.mark.parametrize("k", [2, 3])
def test_dense_conv_power_agrees_across_transform_lengths(monkeypatch, k):
    # the 5-smooth length against the power of two the pair once used
    K = 1000
    u = _hermitian_block(90 + k, K)[K:]
    smooth = _whole_power(u, k)
    monkeypatch.setattr(oracle_module, "_fft_length", lattice_module._next_pow2)
    pow2 = _whole_power(u, k)
    assert lattice_module._fft_length(2 * k * K + 1) < lattice_module._next_pow2(2 * k * K + 1)
    _assert_conv_power_matches(smooth, pow2)


def _lengths_asked(monkeypatch, shift=0):
    """Record the transform lengths _dense_conv_power asks for, and use
    each one shifted by `shift` samples, whatever its prime factors."""
    asked = []

    def exact(n):
        asked.append(n)
        return n + shift

    monkeypatch.setattr(oracle_module, "_fft_length", exact)
    return asked


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_conv_power_dealiased_modes_match_full_length(monkeypatch, k, seed):
    # a dense block keeps only the power's modes 0..K, and (k + 1)K + 1
    # samples hold those free of aliasing (Orszag's rule)
    K = 997 + 101 * seed
    u = _hermitian_block(100 + 10 * k + seed, K)[K:]
    full = _whole_power(u, k)[0]
    asked = _lengths_asked(monkeypatch)
    short = _dense_conv_power(u, k)
    assert asked == [(k + 1) * K + 1]
    assert short.size == K + 1 and short[0].imag == 0.0
    assert np.max(np.abs(short - full)) <= 1e-14 * np.max(np.abs(full))


@pytest.mark.parametrize("k", [2, 3])
def test_dense_conv_power_aliases_one_sample_short(monkeypatch, k):
    # on (k + 1)K samples the power's mode -kK folds onto mode K
    K = 500
    u = _hermitian_block(120 + k, K)[K:]
    full = _whole_power(u, k)[0]
    _lengths_asked(monkeypatch, shift=-1)
    short = _dense_conv_power(u, k)
    assert np.max(np.abs(short[:K] - full[:K])) <= 1e-14 * np.max(np.abs(full))
    alias = np.conj(u[K]) ** k  # mode -kK of the power: conj(u_K)^k
    assert abs(short[K] - full[K] - alias) <= 1e-14 * np.max(np.abs(full))
    assert abs(alias) > 1e3 * 1e-14 * np.max(np.abs(full))


def test_rk4_rejects_non_hermitian_data(lattice):
    real = hermitian_field(lattice, 61, 6, amplitude=0.8)
    pair = InitialPair(real.scale(np.exp(0.7j)), real)
    assert real.is_hermitian(0.0) and not pair.is_hermitian(0.0)
    with pytest.raises(ValueError, match="Hermitian"):
        rk4_solve(pair, 0.5, 0.5 / 200, closure_from_depth(pair, 2, 6), k=2)


def test_rk4_hermitian_data_stays_on_the_real_path(monkeypatch, lattice):
    monkeypatch.setattr(np.fft, "fft", _forbidden)
    pair = InitialPair(hermitian_field(lattice, 59, 6, amplitude=0.8),
                       hermitian_field(lattice, 60, 6, amplitude=0.8))
    K = closure_from_depth(pair, 2, 6)
    traj, diag = rk4_solve(pair, 0.5, 0.5 / 200, K, k=2)
    assert diag.blowup_time is None
    assert traj.fields[-1].nnz > 0
    assert traj.is_hermitian(0.0)
    # a run that blows up records only the nodes before the blow-up, each
    # mirrored from the state's modes 0..K, so exactly Hermitian too
    big = InitialPair(
        SpectralField.from_pairs(lattice, [(-1, 1000.0), (1, 1000.0)]),
        SpectralField.zero(lattice),
    )
    traj, diag = rk4_solve(big, 1.0, 1e-3, 64, k=2, tail_tol=math.inf)
    assert 0 < diag.blowup_time < 1.0
    assert traj.is_hermitian(0.0)


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


def test_rk4_rejects_a_node_degree_below_one(lattice):
    pair = InitialPair(SpectralField.delta(lattice, 1, 1.0),
                       SpectralField.zero(lattice))
    with pytest.raises(ValueError, match="node degree"):
        rk4_solve(pair, 1.0, 1e-2, 8, k=2, node_degree=0)


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
    # at amplitude 302.0 the last node before blow-up holds a finite u whose
    # sum of squares exceeds the float64 range; at 302.5 the step that ends
    # on node 4 overflows v while u is still finite, and that step is the
    # blow-up: no later node is recorded
    node4 = chebyshev_nodes(16, 1.0)[4]
    for amplitude in (302.0, 302.5):
        big = InitialPair(
            SpectralField.from_pairs(lattice, [(-1, amplitude), (1, amplitude)]),
            SpectralField.zero(lattice),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, diag = rk4_solve(big, 1.0, 1e-3, 64, k=2, tail_tol=math.inf)
        assert 0 < diag.blowup_time < 1.0
        assert all(math.isfinite(u) and math.isfinite(v)
                   for _, u, v in diag.l2_history)
        if amplitude == 302.0:
            assert max(u for _, u, _ in diag.l2_history) > 1e154
        else:
            assert diag.blowup_time <= node4
            assert diag.l2_history[-1][0] < node4


def _partner_on_worker(monkeypatch, on):
    """Make rk4_solve run the partner forcings on its worker thread (on)
    or inline on the calling thread, whatever the block size and the
    CPUs of this host.  Returns the list of threads that ran a partner
    forcing on a worker."""
    monkeypatch.setattr(oracle_module, "_PAIR_MIN_MODES", 0 if on else math.inf)
    monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 2)
    threads = []
    quietly = oracle_module._quietly

    def spy(task):
        threads.append(threading.get_ident())
        quietly(task)

    monkeypatch.setattr(oracle_module, "_quietly", spy)
    return threads


def _rk4_cases(lattice):
    """(pair, horizon, dt, K, keywords) of a blow-up, k = 3 and a tail
    breach that takes the retry."""
    big = InitialPair(
        SpectralField.from_pairs(lattice, [(-1, 1000.0), (1, 1000.0)]),
        SpectralField.zero(lattice),
    )
    small = InitialPair(hermitian_field(lattice, 62, 6, amplitude=0.5),
                        hermitian_field(lattice, 63, 6, amplitude=0.5))
    tail = InitialPair(hermitian_field(lattice, 4, 4, amplitude=0.1),
                       hermitian_field(lattice, 54, 4, amplitude=0.1))
    return {
        "blowup": (big, 1.0, 1e-3, 64, dict(k=2, tail_tol=math.inf)),
        "k3": (small, 0.5, 0.5 / 200, 96, dict(k=3, tail_tol=math.inf)),
        "retry": (tail, 0.5, 0.5 / 200, 12, dict(k=2, tail_tol=1e-10)),
    }


@pytest.mark.parametrize("case", ["blowup", "k3", "retry"])
def test_rk4_paired_and_inline_stages_agree_bit_for_bit(monkeypatch, lattice, case):
    pair, horizon, dt, K, kwargs = _rk4_cases(lattice)[case]
    runs = []
    for on in (True, False):
        threads = _partner_on_worker(monkeypatch, on)
        traj, diag = rk4_solve(pair, horizon, dt, K, **kwargs)
        assert bool(threads) == on
        assert threading.get_ident() not in threads
        runs.append((traj, diag))
    (paired, pdiag), (inline, idiag) = runs
    assert paired.support.tobytes() == inline.support.tobytes()
    assert paired.values.tobytes() == inline.values.tobytes()
    assert pdiag.blowup_time == idiag.blowup_time
    assert pdiag.max_tail_fraction == idiag.max_tail_fraction
    assert pdiag.l2_history == idiag.l2_history
    assert pdiag.enlarged == idiag.enlarged == (case == "retry")
    assert (pdiag.blowup_time is not None) == (case == "blowup")


def test_rk4_leaves_no_worker_thread_behind(monkeypatch, lattice):
    threads = _partner_on_worker(monkeypatch, True)
    before = threading.active_count()
    cases = _rk4_cases(lattice)
    for case in ("blowup", "retry"):
        pair, horizon, dt, K, kwargs = cases[case]
        rk4_solve(pair, horizon, dt, K, **kwargs)
        assert threading.active_count() == before
    wide = InitialPair(hermitian_field(lattice, 5, 24, amplitude=0.8),
                       hermitian_field(lattice, 55, 24, amplitude=0.8))
    with pytest.raises(TruncationTailError,
                       match="closure to K = 60; raise rk4_tail_tol in a "
                             "config or --tail-tol for gibq oracle"):
        rk4_solve(wide, 0.5, 0.5 / 200, 30, k=2, tail_tol=1e-10)
    assert threading.active_count() == before
    with pytest.raises(ValueError, match="closure"):
        rk4_solve(wide, 0.5, 0.5 / 200, 20, k=2)
    assert threading.active_count() == before
    assert threads
    assert oracle_module._running == 0


@pytest.mark.parametrize("case", ["blowup", "k3", "retry"])
def test_rk4_final_state_is_the_trajectory_last_node(lattice, case):
    pair, horizon, dt, K, kwargs = _rk4_cases(lattice)[case]
    traj, diag = rk4_solve(pair, horizon, dt, K, **kwargs)
    final, fdiag = rk4_solve(pair, horizon, dt, K, trajectory=False, **kwargs)
    if case == "blowup":
        assert diag.blowup_time is not None
        assert final is None
    else:
        last = traj.field(-1)
        assert final.lattice is last.lattice
        assert final.xi.tobytes() == last.xi.tobytes()
        assert final.c.tobytes() == last.c.tobytes()
    for name in ("closure", "enlarged", "blowup_time", "max_tail_fraction",
                 "l2_history"):
        assert getattr(fdiag, name) == getattr(diag, name)


def test_program_callers_of_rk4_keep_only_the_end_state(monkeypatch, tmp_path):
    asked = []

    def spy(*args, **kwargs):
        asked.append(kwargs.get("trajectory", True))
        return rk4_solve(*args, **kwargs)

    monkeypatch.setattr(harness_module, "rk4_solve", spy)
    monkeypatch.setattr(cli_module, "rk4_solve", spy)
    params = schedule_from_N(256, 2, -0.75, delta_hint=0.25)
    report = harness_module.run_inflation(
        params, max_gen=2, degree=12, method="rk4", rk4_depth=2,
        rk4_steps=100, rk4_tail_tol=1e9)
    assert report.solution_norms["status"] == "blow-up before horizon"
    out = tmp_path / "rk4.csv"
    assert cli_module.main(["oracle", "--mode", "rk4", "--depth", "2",
                            "--steps", "100", "--tail-tol", "1e9",
                            "--out", str(out)]) == 0
    assert out.read_text().startswith("t,l2_u,l2_v")
    assert asked == [False, False]


def test_rk4_final_only_solve_keeps_no_node_matrix(lattice):
    # K below _PAIR_MIN_MODES: no worker thread allocates beside the solve
    K = 3000
    pair = InitialPair(hermitian_field(lattice, 62, 6, amplitude=0.5),
                       hermitian_field(lattice, 63, 6, amplitude=0.5))
    matrix = chebyshev_nodes(oracle_module.DEFAULT_DEGREE, 0.5).size * (2 * K + 1) * 16
    # the first solve allocates this thread's transform buffers, which
    # later solves reuse, so the peaks below are those of the solve itself
    rk4_solve(pair, 0.5, 0.5 / 200, K, k=2, tail_tol=math.inf, trajectory=False)
    peaks = {}
    for trajectory in (False, True):
        tracemalloc.start()
        try:
            rk4_solve(pair, 0.5, 0.5 / 200, K, k=2, tail_tol=math.inf,
                      trajectory=trajectory)
            peaks[trajectory] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[False] < matrix < peaks[True]


def test_rk4_final_only_solve_peaks_below_fifteen_block_rows(lattice):
    # The solve holds the state (u padded to 2K + 1 modes, and v: three
    # rows of K + 1), five stage rows and -lam^2 (half a row); a step
    # start adds the whole power (two rows) and the transforms' scratch.
    # That peaks at 13.7 rows; a sixth stage row, a separate 2K + 1 row
    # for the l2 sums and a kept lam array took it to 17.2.
    K = 3000  # below _PAIR_MIN_MODES: no worker thread allocates beside it
    pair = InitialPair(hermitian_field(lattice, 62, 6, amplitude=0.5),
                       hermitian_field(lattice, 63, 6, amplitude=0.5))
    rk4_solve(pair, 0.5, 0.5 / 200, K, k=2, tail_tol=math.inf, trajectory=False)
    tracemalloc.start()
    try:
        rk4_solve(pair, 0.5, 0.5 / 200, K, k=2, tail_tol=math.inf, trajectory=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 * (K + 1) * 16


def test_rk4_rejects_a_nan_tail_tolerance(lattice, tmp_path, capsys):
    # every check tail > NaN is false: the monitor would be off unseen
    pair = InitialPair(hermitian_field(lattice, 62, 6, amplitude=0.5),
                       hermitian_field(lattice, 63, 6, amplitude=0.5))
    with pytest.raises(ValueError, match="tail_tol must not be NaN"):
        rk4_solve(pair, 0.5, 0.5 / 200, 96, k=2, tail_tol=math.nan)
    assert cli_module.main(["oracle", "--mode", "rk4", "--depth", "2",
                            "--steps", "100", "--tail-tol", "nan",
                            "--out", str(tmp_path / "rk4.csv")]) == 1
    assert "tail_tol must not be NaN" in capsys.readouterr().err
    assert not (tmp_path / "rk4.csv").exists()


def test_rk4_runs_inline_while_the_solves_outnumber_the_cpu_pairs(monkeypatch, lattice):
    # with another solve in progress, two solves with a worker each would
    # need four CPUs; the two this process may use leave each solve one
    pair, horizon, dt, K, kwargs = _rk4_cases(lattice)["k3"]
    threads = _partner_on_worker(monkeypatch, True)
    paired, _ = rk4_solve(pair, horizon, dt, K, **kwargs)
    assert threads
    threads.clear()
    monkeypatch.setattr(oracle_module, "_running", 1)
    inline, _ = rk4_solve(pair, horizon, dt, K, **kwargs)
    assert not threads
    assert oracle_module._running == 1
    assert inline.values.tobytes() == paired.values.tobytes()
    # four CPUs leave room for both workers
    monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 4)
    rk4_solve(pair, horizon, dt, K, **kwargs)
    assert threads


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
