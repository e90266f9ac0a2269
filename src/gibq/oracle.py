"""Independent ground-truth computations.

Three oracles, all structurally independent of the Picard machinery:

* rk4_solve  -- classical RK4 on the per-frequency second-order system
                u_tt^ = -lam^2 (u^ + (u^k)^) of real data, run on the
                modes 0..K of a dense frequency block |xi| <= K with a
                hard cutoff; the power (u^k)^ is taken with a real FFT
                pair.  Each step start takes the whole power, on
                2kK + 1 samples, and monitors its tail outside the block;
                the other three stages take only its alias-free modes
                0..K, on (k + 1)K + 1 samples.  The four stages run as
                two rounds of two independent forcings; on a large
                block, when the process may run on two CPUs and no more
                solves run at once than leave a CPU for each worker,
                each round's second forcing runs on a worker thread,
                with bit-identical output.
* xi1_closed_form -- the first Picard term of the bump evaluated without
                quadrature, by expanding the cosine product into 2^(k-1)
                cosines and integrating each against sin((T-t')lam)lam
                in closed form.
* convolution_sandwich -- exact discrete check of the indicator-cube
                convolution bounds with counting-measure normalization.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .construction import CUBE_CENTERS, BumpData
from .errors import CapacityError, TruncationTailError
from .flow import (DEFAULT_DEGREE, InitialPair, Trajectory, check_node_degree,
                   chebyshev_nodes, stable_sinc)
from .lattice import (FrequencyLattice, SpectralField, _fft_length, convolve,
                      lambda_symbol, merge_terms)

_TUPLE_BUDGET = 10**7

# Largest l2 fraction of the power outside the RK4 block that a solve
# accepts, unless its caller passes another.
TAIL_TOL = 1e-10


# ----------------------------------------------------------------------
# dense RK4 oracle
# ----------------------------------------------------------------------

@dataclass
class OdeDiagnostics:
    """What rk4_solve saw.  max_tail_fraction is the largest l2 fraction of
    the power (u^k)^ outside the block, over the step starts (the stages
    in between take only the block's modes and are not monitored)."""
    max_tail_fraction: float = 0.0
    closure: int = 0
    enlarged: bool = False
    blowup_time: float | None = None
    l2_history: list = field(default_factory=list)


def closure_from_depth(pair: InitialPair, k: int, depth: int) -> int:
    """Hard cutoff covering Minkowski sums of the initial support: sums of
    up to (k-1)*depth+1 initial frequencies."""
    maxfreq = 0
    for comp in (pair.u0, pair.u1):
        if comp.nnz:
            maxfreq = max(maxfreq, int(np.max(np.abs(comp.xi))))
    return max(1, ((k - 1) * depth + 1) * maxfreq)


# Per-thread work buffers of the transform pair (sweep runs points in
# threads).  They are reused across calls because freshly allocated ones
# are page-faulted in again on every right-hand side.
_conv_buffers = threading.local()


def _real_buffers(n: int):
    """This thread's real transform pair for length n: the samples (length
    n) and the half spectrum (length n/2 + 1), as prefix views of one pair
    sized for the longest length asked for, so that alternating lengths
    reallocate nothing."""
    bufs = getattr(_conv_buffers, "pair", None)
    if bufs is None or bufs[0].size < n:
        bufs = (np.empty(n), np.empty(n // 2 + 1, dtype=np.complex128))
        _conv_buffers.pair = bufs
        # The transforms allocate their own scratch, about 16 bytes a
        # sample, on every call.  glibc maps a block at or above its mmap
        # threshold afresh and, when it is freed, raises the threshold to
        # its size, so the scratch of the longest length would be mapped
        # afresh on every call: about 273,000 minor page faults in a
        # desk-scale solve (K = 57,414).  One untouched block of twice
        # that size, freed at once, lifts the threshold above it (up to
        # glibc's 32 MiB cap), and the scratch is then reused from the heap.
        np.empty(32 * n, dtype=np.uint8)
    return bufs[0][:n], bufs[1][: n // 2 + 1]


def _dense_conv_power(u: np.ndarray, k: int) -> np.ndarray:
    """Modes 0..M of the k-th power of the real field with modes u = 0..M.

    The field's modes -M..M are u mirrored by c(-xi) = conj c(xi); its
    real samples are synthesized from u, raised to the k-th power and
    analysed back with a real transform pair.  With D the last nonzero
    mode of u, the power has modes -kD..kD, and its modes 0..min(M, kD)
    are free of aliasing on min(M, kD) + kD + 1 samples (Orszag's rule).
    A dense block (D = M) thus takes (k + 1)M + 1 samples for the modes
    it keeps; a block zero-padded to kD + 1 modes gets the whole power on
    2kD + 1.  Mode 0 of the result is real, and modes above kD are zero.
    """
    M = u.size - 1
    # the last nonzero mode (M for a zero u); a dense block needs no scan
    D = M if u[M] != 0 else M - int(np.argmax(u[::-1] != 0))
    top = min(M, k * D)
    n = _fft_length(top + k * D + 1)
    samples, spec = _real_buffers(n)
    np.fft.irfft(u[: D + 1], n, norm="forward", out=samples)
    if k == 2:
        np.square(samples, out=samples)
    else:  # repeated products: np.power calls pow() for each sample
        base = samples.copy()
        for _ in range(k - 1):
            samples *= base
    np.fft.rfft(samples, norm="forward", out=spec)
    power = np.zeros(M + 1, dtype=np.complex128)
    power[: top + 1] = spec[: top + 1]
    power[0] = spec[0].real
    return power


def _tail_masses(power: np.ndarray, K: int) -> tuple:
    """(discarded, total): the l2 masses of the real field's whole power
    spectrum, with modes power = 0..kK, outside the block -K..K and in
    all.  Each is summed directly over its modes, so the tail monitor is
    free of cancellation noise."""
    discarded = 2.0 * _sum_squares(power[K + 1:])
    total = power[0].real ** 2 + 2.0 * _sum_squares(power[1:K + 1]) + discarded
    return float(discarded), float(total)


def _sum_squares(x: np.ndarray) -> float:
    """sum |x|^2 over the float view, by einsum's own loop: no BLAS, whose
    second thread a call such as np.vdot wakes and leaves spinning through
    the run, and no temporary the size of x."""
    v = x.view(np.float64)
    return float(np.einsum("i,i->", v, v))


def rk4_solve(pair: InitialPair, horizon: float, dt: float,
              support_closure: int, k: int = 2,
              node_degree: int = DEFAULT_DEGREE, tail_tol: float = TAIL_TOL,
              _retry: bool = True, *, trajectory: bool = True) -> tuple:
    """Integrate the Fourier-side system; returns (Trajectory, diagnostics),
    or with trajectory=False (final, diagnostics), where final is the
    SpectralField at the horizon, as the Trajectory's field(-1), or None
    after a blow-up.  The final-only solve keeps no nodes x (2K + 1)
    matrix.  Besides the state it holds five rows of the modes 0..K in
    one block: the stage-3 argument and then F3; the stage-2 argument and
    then the stage velocities; F1 and then the sum of the v increments;
    F2, the stage-4 argument and then F4; and the sum of the u increments.
    The first two rows, dead between steps, hold the block -K..K of a node
    for its l2 sums and the final field.

    The data must be real: a pair that is not exactly Hermitian raises
    ValueError, as do a node_degree below 1 and a NaN tail_tol.  The
    solution then stays real, and the state holds only the modes 0..K of
    the block |xi| <= K = support_closure; the full block is formed by
    mirroring at the output nodes.  The first stage of each step forms
    the whole power, on 2kK + 1 samples, and monitors the l2 fraction of
    it that falls outside the block; max_tail_fraction is the maximum
    over step starts.  Stages 2-4 form only the power's modes
    0..K, alias-free on (k + 1)K + 1 samples.  On a breach the closure is
    doubled once and the integration restarted; a second breach raises
    TruncationTailError.
    The first step that leaves u or v non-finite sets blowup_time; no
    later node is recorded.

    For u'' = F(u) the stages form two rounds of two independent
    forcings, F1 = F(u) with F2 = F(u + h/2 v), then F3 with F4, which
    take the first round's results.  When K >= _PAIR_MIN_MODES and the
    process's CPU affinity holds at least two CPUs, the solve starts one
    worker thread, and each round runs its second forcing there while
    twice the number of solves in progress in this process is at most
    that CPU count (so not while two sweep points solve at once on two
    CPUs); other load is not seen.  Every array is computed by the same
    expressions in the same order either way, so the output does not
    depend on it.
    """
    if dt <= 0 or dt > horizon / 100.0:
        raise ValueError("dt must be positive and at most horizon/100")
    if math.isnan(tail_tol):
        raise ValueError("tail_tol must not be NaN: no tail would exceed it")
    check_node_degree(node_degree)
    if not pair.is_hermitian(0.0):
        raise ValueError("rk4_solve needs real data: an exactly Hermitian pair")
    lattice = pair.lattice
    K = int(support_closure)
    for comp in (pair.u0, pair.u1):
        if comp.nnz and int(np.max(np.abs(comp.xi))) > K:
            raise ValueError("initial support exceeds the closure")
    nodes = chebyshev_nodes(node_degree, horizon)
    # u's modes 0..K are stepped in place at the head of a block that is
    # zero up to the power's modes kK, so each step start passes it whole;
    # v holds the modes 0..K of the velocity
    padded = np.zeros(k * K + 1, dtype=np.complex128)
    u = padded[: K + 1]
    v = np.zeros(K + 1, dtype=np.complex128)
    for comp, half in ((pair.u0, u), (pair.u1, v)):
        ahead = comp.xi >= 0
        half[comp.xi[ahead]] = comp.c[ahead]
    if trajectory:
        # one row per node; nodes at and after a blow-up stay zero
        values = np.zeros((nodes.size, 2 * K + 1), dtype=np.complex128)
        values[0][pair.u0.xi + K] = pair.u0.c

    neg_lam2 = lambda_symbol(np.arange(K + 1), lattice)  # lam, squared and negated
    np.negative(np.multiply(neg_lam2, neg_lam2, out=neg_lam2), out=neg_lam2)
    conv_weight = lattice.weight ** (k - 1)
    diag = OdeDiagnostics(closure=K)

    def force(w, out, monitored=False):
        """out = F(w) = -lam^2 (w - conv_weight (w^k)^); out may be w."""
        if monitored:  # w is u, the head of padded: the whole power
            power = _dense_conv_power(padded, k)
            discarded, total = _tail_masses(power, K)
            power = power[: K + 1]
            if math.isfinite(total) and total > 0:
                tail = math.sqrt(discarded / total)
                diag.max_tail_fraction = max(diag.max_tail_fraction, tail)
        else:
            power = _dense_conv_power(w, k)
        power *= conv_weight
        # Sign matches the Duhamel form u = S(t)u0 + I_k(u) that the
        # series solves; for even k this is the u -> -u image of the
        # opposite convention, so all norms coincide.
        np.subtract(w, power, out=out)
        np.multiply(neg_lam2, out, out=out)

    # Stage rows of the modes 0..K, in one block.  Round 1 writes F1 to
    # f_here and F2, of the argument in arg_there, to f_there; arg_there
    # then holds the velocities of stages 2, 3 and 4 in turn.  Round 2
    # writes F3 over its argument in arg_here and F4 over its argument in
    # f_there.  acc_u, and f_here from the end of round 1 on, hold the
    # weighted sums k1 + 2 k2 + 2 k3 + k4 of the u and v increments, added
    # left to right as the four-term expression adds them.  Between steps
    # every row is dead, and the first two, adjacent, hold a node's block
    # -K..K as row for its l2 sums and the final field.
    stages = np.empty((5, K + 1), dtype=np.complex128)
    arg_here, arg_there, f_here, f_there, acc_u = stages
    row = stages.reshape(-1)[: 2 * K + 1]
    t = 0.0
    with _partner_pool(K) as pool:
        for i, target in enumerate(nodes[1:], 1):
            seg = float(target) - t
            steps = max(1, math.ceil(seg / dt))
            h = seg / steps
            half_h, sixth_h = 0.5 * h, h / 6.0
            with np.errstate(over="ignore", invalid="ignore"):
                for step in range(steps):
                    # round 1: F1 = F(u), F2 = F(u + h/2 v)
                    np.add(u, np.multiply(half_h, v, out=arg_there), out=arg_there)
                    _pair(pool, lambda: force(u, f_here, monitored=True),
                          lambda: force(arg_there, f_there))
                    # stage 2's velocity v + h/2 F1 in arg_there
                    np.add(v, np.multiply(half_h, f_here, out=arg_there), out=arg_there)
                    np.add(v, np.multiply(2, arg_there, out=acc_u), out=acc_u)
                    np.add(u, np.multiply(half_h, arg_there, out=arg_here), out=arg_here)
                    # stage 3's velocity v + h/2 F2 in arg_there
                    np.add(v, np.multiply(half_h, f_there, out=arg_there), out=arg_there)
                    f_here += np.multiply(2, f_there, out=f_there)
                    # F2 is spent: stage 4's argument in f_there
                    np.add(u, np.multiply(h, arg_there, out=f_there), out=f_there)
                    acc_u += np.multiply(2, arg_there, out=arg_there)
                    # round 2: F3 = F(u + h/2 (v + h/2 F1)) over arg_here,
                    # F4 = F(u + h (v + h/2 F2)) over f_there
                    _pair(pool, lambda: force(arg_here, arg_here),
                          lambda: force(f_there, f_there))
                    # stage 4's velocity v + h F3 in arg_there
                    acc_u += np.add(v, np.multiply(h, arg_here, out=arg_there), out=arg_there)
                    f_here += np.multiply(2, arg_here, out=arg_here)
                    f_here += f_there
                    u += np.multiply(sixth_h, acc_u, out=acc_u)
                    v += np.multiply(sixth_h, f_here, out=f_here)
                    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
                        diag.blowup_time = t + (step + 1) * h
                        break
            t = float(target)
            if diag.blowup_time is not None:
                break
            if trajectory:
                _mirror(u, values[i])
            diag.l2_history.append((t, _scaled_l2(u, row), _scaled_l2(v, row)))
            if diag.max_tail_fraction > tail_tol:
                break
    if diag.blowup_time is None and diag.max_tail_fraction > tail_tol:
        if _retry:
            result, inner = rk4_solve(
                pair, horizon, dt, 2 * K, k=k,
                node_degree=node_degree, tail_tol=tail_tol, _retry=False,
                trajectory=trajectory,
            )
            inner.enlarged = True
            return result, inner
        raise TruncationTailError(
            f"truncation tail {diag.max_tail_fraction:.3g} above "
            f"{tail_tol:g} even after enlarging the closure to K = {K}; "
            f"raise rk4_tail_tol in a config or --tail-tol for gibq oracle"
        )
    if trajectory:
        return Trajectory.from_rows(lattice, horizon, nodes,
                                    np.arange(-K, K + 1), values), diag
    if diag.blowup_time is not None:
        return None, diag
    live = np.flatnonzero(_mirror(u, row))
    return SpectralField(lattice, live - K, row[live]), diag


# Smallest K at which a solve runs each round's second forcing on a worker
# thread.  Below it the hand-over costs about as much as the overlap saves:
# rk4_solve per step, k = 2, inline / paired on a 2-vCPU VM, K = 448
# 252 / 738 us, 2,000 1,056 / 1,106, 3,000 896-1,248 / 1,113-1,207,
# 4,000 1,346-1,439 / 1,373-1,490, 5,000 1,784-2,441 / 1,553-1,924,
# 6,000 2,470-2,477 / 2,102-2,243, 57,414 31.5 / 21.5 ms.
_PAIR_MIN_MODES = 5000


# RK4 solves in progress in this process (sweep runs points in threads).
_running = 0
_running_lock = threading.Lock()


@contextlib.contextmanager
def _partner_pool(K: int):
    """Count this solve among the running ones and yield a one-thread
    executor for the partner forcings when K reaches _PAIR_MIN_MODES and
    this process may run on two CPUs, otherwise None.  Leaving joins the
    worker and uncounts the solve."""
    global _running
    with _running_lock:
        _running += 1
    try:
        if K >= _PAIR_MIN_MODES and _usable_cpus() >= 2:
            # imported here: it loads logging, which most runs never need
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(1) as pool:
                yield pool
        else:
            yield None
    finally:
        with _running_lock:
            _running -= 1


def _usable_cpus() -> int:
    """CPUs this process may run on (all CPUs where the platform has no
    affinity call)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pair(pool, here, there) -> None:
    """Run here() on this thread and there() beside it on pool's worker,
    or there() after here() on this thread when pool is None or the
    running solves, with a worker each, would need more CPUs than this
    process may use (two sweep points solving at once on two CPUs)."""
    if pool is None or 2 * _running > _usable_cpus():
        here()
        there()
        return
    future = pool.submit(_quietly, there)
    try:
        here()
    finally:
        future.result()


def _quietly(task) -> None:
    """task() under the step loop's floating-point error state, which
    numpy keeps per thread and so does not carry into a worker."""
    with np.errstate(over="ignore", invalid="ignore"):
        task()


def _mirror(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into out, and return it, the block -K..K of the real field
    with modes half = 0..K."""
    K = half.size - 1
    np.conjugate(half[:0:-1], out=out[:K])
    out[K:] = half
    return out


def _scaled_l2(half: np.ndarray, row: np.ndarray) -> float:
    """l2 norm of the block x = -K..K of the real field with modes
    half = 0..K, as max|x| * ||x / max|x|||: the sum of squares of a finite
    state near the float64 range overflows, the scaled one cannot.  x is
    mirrored into row and scaled there; max|x| is max|half|."""
    scale = float(np.max(np.abs(half)))
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    np.divide(_mirror(half, row), scale, out=row)
    return scale * math.sqrt(_sum_squares(row))


# ----------------------------------------------------------------------
# closed-form first Picard term
# ----------------------------------------------------------------------

def _sine_kernel_integral(mu, nu, horizon: float):
    """integral_0^T sin((T-t) mu) mu cos(nu t) dt, stable everywhere.

    Equals mu^2 * 2 * S(mu+nu) S(mu-nu) with S(x) = sin(x T/2)/x, which
    reduces to 1 - cos(mu T) at nu = 0 and to mu T sin(mu T)/2 at nu = mu.
    """
    half = horizon / 2.0
    sp = half * stable_sinc((mu + nu) * half)
    sm = half * stable_sinc((mu - nu) * half)
    return mu * mu * 2.0 * sp * sm


def _cos_product_rates(lams: np.ndarray) -> np.ndarray:
    """Rates nu of the 2^(k-1) cosines in prod_j cos(lam_j t)."""
    k = lams.shape[-1]
    rates = lams[..., 0]
    out = [rates]
    for j in range(1, k):
        out = [r + s * lams[..., j] for r in out for s in (1.0, -1.0)]
    return np.stack(out, axis=-1)


def xi1_closed_form(bump: BumpData, horizon: float,
                    unit_amplitude: bool = False,
                    centre_filter=None) -> SpectralField:
    """First Picard term of the bump at time `horizon`, no quadrature.

    With unit_amplitude=True the R^k prefactor is dropped (used by the
    resonant split).  centre_filter, when given, keeps only the ordered
    cube-centre tuples it accepts.
    """
    params = bump.params
    k = params.k
    lattice = bump.phi.lattice
    half = params.A // 2
    offsets = np.arange(-half, half + 1)
    n_tuples = (4 * (params.A + 1)) ** k
    if n_tuples > _TUPLE_BUDGET:
        raise CapacityError(f"{n_tuples} lattice tuples exceed the budget")

    amp = 1.0 if unit_amplitude else params.R ** k
    grids = np.meshgrid(*([offsets] * k), indexing="ij")
    r_sum = sum(grids).ravel()
    r_vals, r_inv = np.unique(r_sum, return_inverse=True)
    xi_parts, val_parts = [], []
    for centres in itertools.product(CUBE_CENTERS, repeat=k):
        if centre_filter is not None and not centre_filter(centres):
            continue
        base = params.N * sum(centres)
        xi_vals = base + r_sum  # output frequency per lattice tuple
        lam_out = lambda_symbol(xi_vals, lattice)
        lams = np.stack(
            [lambda_symbol(params.N * c + g.ravel(), lattice)
             for c, g in zip(centres, grids)],
            axis=-1,
        )
        rates = _cos_product_rates(lams)
        vals = np.zeros(xi_vals.size)
        for j in range(rates.shape[-1]):
            vals += _sine_kernel_integral(lam_out, rates[:, j], horizon)
        vals *= amp / float(2 ** (k - 1))
        xi_parts.append(base + r_vals)
        val_parts.append(np.bincount(r_inv, weights=vals,
                                     minlength=r_vals.size))
    if not xi_parts:
        return SpectralField.zero(lattice)
    return SpectralField(lattice, *merge_terms(np.concatenate(xi_parts),
                                               np.concatenate(val_parts)))


# ----------------------------------------------------------------------
# convolution sandwich
# ----------------------------------------------------------------------

@dataclass
class SandwichReport:
    A: int
    offset_a: int
    offset_b: int
    lower_constant: float   # min over the inner cube of conv/(A+1)
    upper_constant: float   # max of conv/(A+1)
    support_inside_double_cube: bool

    @property
    def holds(self) -> bool:
        """Sandwich with C = 1/2 and C~ = 1 under the A -> A+1 counting
        normalization."""
        return (
            self.lower_constant >= 0.5
            and self.upper_constant <= 1.0 + 1e-12
            and self.support_inside_double_cube
        )


def convolution_sandwich(a: int, b: int, A: int) -> SandwichReport:
    """Exact discrete convolution of two indicator cubes of side A."""
    if A % 2 != 0 or A <= 0:
        raise ValueError("A must be a positive even integer")
    half = A // 2
    lattice = FrequencyLattice(period=1.0, cutoff=max(8 * (abs(a) + abs(b) + A), 16))
    xs = np.arange(-half, half + 1)
    fa = SpectralField(lattice, (a + xs).astype(np.int64),
                       np.ones(xs.size, np.complex128))
    fb = SpectralField(lattice, (b + xs).astype(np.int64),
                       np.ones(xs.size, np.complex128))
    conv = convolve(fa, fb, prune=0.0)
    inner = a + b + xs
    inner_vals = np.array([conv.get(int(x)).real for x in inner])
    norm = float(A + 1)
    lower = float(np.min(inner_vals)) / norm
    upper = float(np.max(np.abs(conv.c))) / norm
    support_ok = bool(np.all(np.abs(conv.xi - (a + b)) <= A))
    return SandwichReport(A=A, offset_a=a, offset_b=b,
                          lower_constant=lower, upper_constant=upper,
                          support_inside_double_cube=support_ok)
