"""Independent ground-truth computations.

Three oracles, all structurally independent of the Picard machinery:

* rk4_solve  -- classical RK4 on the per-frequency second-order system
                u_tt^ = -lam^2 (u^ + (u^k)^) of real data, run on the
                modes 0..K of a dense frequency block |xi| <= K with a
                monitored hard cutoff; the power (u^k)^ is taken with a
                real FFT pair.
* xi1_closed_form -- the first Picard term of the bump evaluated without
                quadrature, by expanding the cosine product into 2^(k-1)
                cosines and integrating each against sin((T-t')lam)lam
                in closed form.
* convolution_sandwich -- exact discrete check of the indicator-cube
                convolution bounds with counting-measure normalization.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .construction import CUBE_CENTERS, BumpData
from .errors import CapacityError, TruncationTailError
from .flow import InitialPair, Trajectory, chebyshev_nodes, stable_sinc
from .lattice import FrequencyLattice, SpectralField, _fft_length, convolve, lambda_symbol

_TUPLE_BUDGET = 10**7
_TAIL_TOL = 1e-10


# ----------------------------------------------------------------------
# dense RK4 oracle
# ----------------------------------------------------------------------

@dataclass
class OdeDiagnostics:
    max_tail_fraction: float = 0.0
    closure: int = 0
    enlarged: bool = False
    blowup_time: float | None = None
    l2_history: list = field(default_factory=list)


def closure_from_depth(pair: InitialPair, k: int, depth: int = 6) -> int:
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


def _real_buffers(n2: int):
    """The real samples buffer (length n2) and the half-spectrum buffer
    (length n2/2 + 1) of this thread's real transform pair, reallocated
    only when n2 changes."""
    bufs = getattr(_conv_buffers, "pair", None)
    if bufs is None or bufs[0].size != n2:
        bufs = (np.empty(n2), np.empty(n2 // 2 + 1, dtype=np.complex128))
        _conv_buffers.pair = bufs
    return bufs


def _dense_conv_power(u: np.ndarray, k: int):
    """Modes 0..K of the k-th power of the real field with modes u = 0..K.

    The field's modes -K..K are the block u mirrored by c(-xi) = conj
    c(xi); its real samples are synthesized from u, raised to the k-th
    power and analysed back with a real transform pair.  Returns
    (kept, discarded_mass_sq, total_mass_sq): kept holds the product's
    modes 0..K (mode 0 real), and the two l2 masses are those of the whole
    product spectrum, -kK..kK, and of its part outside -K..K, summed
    directly over those modes so the tail monitor is free of cancellation
    noise.
    """
    K = u.size - 1
    top = k * K + 1  # product modes -kK..kK fit in n2 samples: no aliasing
    n2 = _fft_length(2 * k * K + 1)
    samples, spec = _real_buffers(n2)
    np.fft.irfft(u, n2, norm="forward", out=samples)
    if k == 2:
        np.square(samples, out=samples)
    else:  # repeated products: np.power calls pow() for each sample
        base = samples.copy()
        for _ in range(k - 1):
            samples *= base
    np.fft.rfft(samples, norm="forward", out=spec)
    mode0 = spec[0].real
    kept = spec[: K + 1].copy()
    kept[0] = mode0
    discarded = 2.0 * np.vdot(spec[K + 1:top], spec[K + 1:top]).real
    total = mode0 * mode0 + 2.0 * np.vdot(spec[1:K + 1], spec[1:K + 1]).real + discarded
    return kept, float(discarded), float(total)


def rk4_solve(pair: InitialPair, horizon: float, dt: float,
              support_closure: int, k: int = 2, nonlinear: bool = True,
              node_degree: int = 16, tail_tol: float = _TAIL_TOL,
              _retry: bool = True) -> tuple:
    """Integrate the Fourier-side system; returns (Trajectory, diagnostics).

    The data must be real: a pair that is not exactly Hermitian raises
    ValueError.  The solution then stays real, and the state holds only
    the modes 0..K of the block |xi| <= K = support_closure; the full
    block is formed by mirroring at the output nodes.  Each nonlinear
    evaluation monitors the l2 fraction of the power that falls outside
    the block.  On a breach the closure is doubled once and the
    integration restarted; a second breach raises TruncationTailError.
    The first step that leaves u or v non-finite sets blowup_time; no
    later node is recorded.
    """
    if dt <= 0 or dt > horizon / 100.0:
        raise ValueError("dt must be positive and at most horizon/100")
    if not pair.is_hermitian(0.0):
        raise ValueError("rk4_solve needs real data: an exactly Hermitian pair")
    lattice = pair.lattice
    K = int(support_closure)
    idx = np.arange(-K, K + 1)
    lam = lambda_symbol(np.arange(K + 1), lattice)
    lam2 = lam * lam
    conv_weight = lattice.weight ** (k - 1)

    u = np.zeros(2 * K + 1, dtype=np.complex128)
    v = np.zeros(2 * K + 1, dtype=np.complex128)
    for comp, dense in ((pair.u0, u), (pair.u1, v)):
        if comp.nnz:
            if int(np.max(np.abs(comp.xi))) > K:
                raise ValueError("initial support exceeds the closure")
            dense[comp.xi + K] = comp.c

    diag = OdeDiagnostics(closure=K)

    def rhs(state):
        uu, vv = state
        if nonlinear:  # called only inside the step loop's errstate block
            power, discarded, total = _dense_conv_power(uu, k)
            if math.isfinite(total) and total > 0:
                tail = math.sqrt(discarded / total)
                diag.max_tail_fraction = max(diag.max_tail_fraction, tail)
            # Sign matches the Duhamel form u = S(t)u0 + I_k(u) that the
            # series solves; for even k this is the u -> -u image of the
            # opposite convention, so all norms coincide.
            forcing = uu - conv_weight * power
        else:
            forcing = uu
        return vv, -lam2 * forcing

    nodes = chebyshev_nodes(node_degree, horizon)
    # one row per node; nodes at and after a blow-up stay zero
    values = np.zeros((nodes.size, idx.size), dtype=np.complex128)
    values[0] = u
    state = (u[K:], v[K:])
    t = 0.0
    for i, target in enumerate(nodes[1:], 1):
        seg = float(target) - t
        steps = max(1, math.ceil(seg / dt))
        h = seg / steps
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(steps):
                k1 = rhs(state)
                k2 = rhs((state[0] + 0.5 * h * k1[0], state[1] + 0.5 * h * k1[1]))
                k3 = rhs((state[0] + 0.5 * h * k2[0], state[1] + 0.5 * h * k2[1]))
                k4 = rhs((state[0] + h * k3[0], state[1] + h * k3[1]))
                state = (
                    state[0] + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                    state[1] + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
                )
                if not (np.all(np.isfinite(state[0])) and np.all(np.isfinite(state[1]))):
                    diag.blowup_time = t + (step + 1) * h
                    break
        t = float(target)
        if diag.blowup_time is not None:
            break
        values[i] = _mirror(state[0])
        diag.l2_history.append((t, _scaled_l2(values[i]), _scaled_l2(_mirror(state[1]))))
        if diag.max_tail_fraction > tail_tol:
            if _retry:
                traj, inner = rk4_solve(
                    pair, horizon, dt, 2 * K, k=k, nonlinear=nonlinear,
                    node_degree=node_degree, tail_tol=tail_tol, _retry=False,
                )
                inner.enlarged = True
                return traj, inner
            raise TruncationTailError(
                f"truncation tail {diag.max_tail_fraction:.3g} above "
                f"{tail_tol:g} even after enlarging the closure"
            )
    return Trajectory.from_rows(lattice, horizon, nodes, idx, values), diag


def _mirror(half: np.ndarray) -> np.ndarray:
    """The block -K..K of the real field with modes half = 0..K."""
    return np.concatenate([half[:0:-1].conj(), half])


def _scaled_l2(x: np.ndarray) -> float:
    """l2 norm as max|x| * ||x / max|x|||: the sum of squares of a finite
    state near the float64 range overflows, the scaled one cannot."""
    scale = float(np.max(np.abs(x)))
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * float(np.linalg.norm(x / scale))


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
    uniq, inv = np.unique(np.concatenate(xi_parts), return_inverse=True)
    sums = np.zeros(uniq.size)
    np.add.at(sums, inv, np.concatenate(val_parts))
    keep = sums != 0.0
    return SpectralField(lattice, uniq[keep], sums[keep])


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
