"""Independent ground-truth computations.

Three oracles, all structurally independent of the Picard machinery:

* rk4_solve  -- classical RK4 on the per-frequency second-order system
                u_tt^ = -lam^2 (u^ + (u^k)^), run on a dense contiguous
                frequency block with a monitored hard cutoff.
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
from dataclasses import dataclass, field

import numpy as np

from .construction import CUBE_CENTERS, BumpData
from .errors import CapacityError, TruncationTailError
from .flow import InitialPair, Trajectory, chebyshev_nodes, stable_sinc
from .lattice import FrequencyLattice, SpectralField, lambda_symbol

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


def _dense_conv_power(u: np.ndarray, k: int):
    """Central slice of the k-fold self-convolution of a dense block.

    Returns (kept_slice, discarded_mass_sq, total_mass_sq); the discarded
    mass is summed directly over the out-of-block entries so the tail
    monitor is free of cancellation noise.
    """
    m = u.size
    full_len = k * (m - 1) + 1
    n2 = 1 << int(full_len - 1).bit_length()
    fu = np.fft.fft(u, n2)
    full = np.fft.ifft(fu**k)[:full_len]
    centre = (full_len - 1) // 2
    half = (m - 1) // 2
    kept = full[centre - half: centre + half + 1]
    mags = np.abs(full) ** 2
    total = float(np.sum(mags))
    discarded = float(np.sum(mags[: centre - half])
                      + np.sum(mags[centre + half + 1:]))
    return kept, discarded, total


def rk4_solve(pair: InitialPair, horizon: float, dt: float,
              support_closure: int, k: int = 2, nonlinear: bool = True,
              node_degree: int = 16, tail_tol: float = _TAIL_TOL,
              _retry: bool = True) -> tuple:
    """Integrate the Fourier-side system; returns (Trajectory, diagnostics).

    The state lives on the contiguous block |xi| <= support_closure; each
    nonlinear evaluation monitors the l2 fraction of the convolution that
    falls outside the block.  On a breach the closure is doubled once and
    the integration restarted; a second breach raises TruncationTailError.
    """
    if dt <= 0 or dt > horizon / 100.0:
        raise ValueError("dt must be positive and at most horizon/100")
    lattice = pair.lattice
    K = int(support_closure)
    m = 2 * K + 1
    idx = np.arange(-K, K + 1)
    lam = lambda_symbol(idx, lattice)
    lam2 = lam * lam
    conv_weight = lattice.weight ** (k - 1)

    u = np.zeros(m, dtype=np.complex128)
    v = np.zeros(m, dtype=np.complex128)
    for comp, dense in ((pair.u0, u), (pair.u1, v)):
        if comp.nnz:
            if int(np.max(np.abs(comp.xi))) > K:
                raise ValueError("initial support exceeds the closure")
            dense[comp.xi + K] = comp.c

    diag = OdeDiagnostics(closure=K)

    def rhs(state):
        uu, vv = state
        if nonlinear:
            with np.errstate(over="ignore", invalid="ignore"):
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
    fields = [_gather(lattice, idx, u)]
    state = (u, v)
    t = 0.0
    for target in nodes[1:]:
        if diag.blowup_time is not None:
            fields.append(SpectralField.zero(lattice))
            continue
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
                if not np.all(np.isfinite(state[0])):
                    diag.blowup_time = t + (step + 1) * h
                    break
        t = float(target)
        if diag.blowup_time is not None:
            fields.append(SpectralField.zero(lattice))
            continue
        diag.l2_history.append((t, _scaled_l2(state[0]), _scaled_l2(state[1])))
        fields.append(_gather(lattice, idx, state[0]))
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
    traj = Trajectory(lattice, horizon, nodes, fields)
    return traj, diag


def _scaled_l2(x: np.ndarray) -> float:
    """l2 norm as max|x| * ||x / max|x|||: the sum of squares of a finite
    state near the float64 range overflows, the scaled one cannot."""
    scale = float(np.max(np.abs(x)))
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * float(np.linalg.norm(x / scale))


def _gather(lattice, idx, dense) -> SpectralField:
    keep = np.abs(dense) > 0
    return SpectralField(lattice, idx[keep].astype(np.int64), dense[keep])


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
    acc: dict = {}
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
        uniq, inv = np.unique(xi_vals, return_inverse=True)
        sums = np.zeros(uniq.size)
        np.add.at(sums, inv, vals)
        for x, v in zip(uniq, sums):
            acc[int(x)] = acc.get(int(x), 0.0) + float(v)
    pairs = [(x, v) for x, v in acc.items() if v != 0.0]
    return SpectralField.from_pairs(lattice, pairs)


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
    from .lattice import convolve

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
