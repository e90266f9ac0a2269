"""Inflation initial data: parameter schedule, frequency bump, base pairs.

The bump is the sparse indicator field R*chi over the four cubes
eta + [-A/2, A/2] with eta in {-2N, -N, N, 2N}; its spectrum is real and
even, so the physical field is real and even.  The schedule ties
(N, R, T) to the inflation index n through

    N = ceil(n^(2/delta)),  R = N^(-s-delta),  T = N^((k-1)/2 (s+delta/2))

with A = 10 fixed and 0 < delta < min(1, -2s/(k+1)).  Two adjustments are
applied and logged: N is raised to a power of two whenever the cubes would
collide (N < 64*A) or T would leave (0, 1/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LatticeMismatchError
from .flow import InitialPair
from .lattice import FrequencyLattice, SpectralField, _next_pow2

CUBE_CENTERS = (-2, -1, 1, 2)  # multiples of N carrying the bump cubes
DEFAULT_A = 10
BASE_MAX_FREQ = 64


def delta_ceiling(s: float, k: int) -> float:
    """Largest admissible delta, min(1, -2s/(k+1))."""
    return min(1.0, -2.0 * s / (k + 1))


@dataclass
class InflationParams:
    n: int
    k: int
    s: float
    sigma: float
    delta: float
    N: int
    R: float
    T: float
    A: int = DEFAULT_A
    adjustments: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "n": self.n, "k": self.k, "s": self.s, "sigma": self.sigma,
            "delta": self.delta, "N": self.N, "R": self.R, "T": self.T,
            "A": self.A, "adjustments": list(self.adjustments),
        }

    def lattice(self, max_gen: int = 13, ode_depth: int = 20) -> FrequencyLattice:
        """Lattice wide enough for series terms up to generation max_gen and
        for the dense ODE oracle truncated at Minkowski depth ode_depth
        (including one emergency doubling of its closure)."""
        width = 2 * self.N + self.A
        series_reach = ((self.k - 1) * max_gen + 2) * width
        ode_reach = 4 * ((self.k - 1) * ode_depth + 1) * width
        return FrequencyLattice(
            period=1.0,
            cutoff=max(series_reach, ode_reach, 4 * BASE_MAX_FREQ),
        )


def _derive(N: int, s: float, k: int, delta: float):
    R = float(N) ** (-s - delta)
    T = float(N) ** ((k - 1) / 2.0 * (s + delta / 2.0))
    return R, T


def schedule(n: int, k: int, s: float, sigma: float | None = None,
             delta_hint: float | None = None,
             force_pow2: bool = False,
             separation_floor: int = 64) -> InflationParams:
    """Derive the full parameter set for inflation index n.

    separation_floor enforces N >= separation_floor * A (cube separation)
    by raising N to a power of two; pass 0 to reproduce the raw formula
    arithmetic (disjointness is then only guarded by make_bump).
    """
    if s >= 0:
        raise ValueError("regularity s must be negative")
    if k < 2:
        raise ValueError("arity k must be >= 2")
    if n < 1:
        raise ValueError("inflation index n must be >= 1")
    ceiling = delta_ceiling(s, k)
    if delta_hint is not None:
        if not (0.0 < delta_hint < ceiling):
            raise ValueError(
                f"delta_hint {delta_hint} outside the valid interval "
                f"(0, {ceiling})"
            )
        delta = delta_hint
    else:
        delta = ceiling / 2.0
    if sigma is None:
        sigma = s
    adjustments = []
    N = math.ceil(float(n) ** (2.0 / delta))
    if force_pow2 and N != _next_pow2(N):
        N = _next_pow2(N)
        adjustments.append(f"N rounded up to power of two {N}")
    if separation_floor > 0 and N < separation_floor * DEFAULT_A:
        N = _next_pow2(separation_floor * DEFAULT_A)
        adjustments.append(
            f"N raised to {N} to keep the bump cubes separated "
            f"(N >= {separation_floor}A)"
        )
    R, T = _derive(N, s, k, delta)
    while not (0.0 < T < 1.0 / n):
        N = _next_pow2(N + 1)
        R, T = _derive(N, s, k, delta)
        adjustments.append(f"N raised to {N} so that T stays inside (0, 1/n)")
    return InflationParams(n=n, k=k, s=s, sigma=sigma, delta=delta,
                           N=N, R=R, T=T, adjustments=adjustments)


def schedule_from_N(N: int, k: int, s: float, sigma: float | None = None,
                    delta_hint: float | None = None) -> InflationParams:
    """Schedule with a forced lattice scale N (sweep mode).

    The nominal index n is recovered from N = n^(2/delta) and recorded for
    the condition margins.
    """
    if s >= 0:
        raise ValueError("regularity s must be negative")
    ceiling = delta_ceiling(s, k)
    if delta_hint is not None:
        if not (0.0 < delta_hint < ceiling):
            raise ValueError(
                f"delta_hint {delta_hint} outside the valid interval "
                f"(0, {ceiling})"
            )
        delta = delta_hint
    else:
        delta = ceiling / 2.0
    if sigma is None:
        sigma = s
    if N <= DEFAULT_A:
        raise ValueError(
            f"forced N must exceed A = {DEFAULT_A} for disjoint cubes"
        )
    R, T = _derive(N, s, k, delta)
    n = max(1, round(float(N) ** (delta / 2.0)))
    return InflationParams(n=n, k=k, s=s, sigma=sigma, delta=delta,
                           N=N, R=R, T=T,
                           adjustments=[f"N forced to {N}; nominal n={n}"])


@dataclass
class BumpData:
    phi: InitialPair            # (R*chi_Omega, 0)
    omega_support: np.ndarray   # the explicit frequency set, sorted
    params: InflationParams


def omega_frequencies(N: int, A: int = DEFAULT_A) -> np.ndarray:
    """The 4(A+1) integers in the union of cubes m*N + [-A/2, A/2]."""
    if A % 2 != 0:
        raise ValueError("A must be even")
    half = A // 2
    cubes = [m * N + np.arange(-half, half + 1) for m in CUBE_CENTERS]
    return np.sort(np.concatenate(cubes)).astype(np.int64)


def make_bump(params: InflationParams,
              lattice: FrequencyLattice | None = None) -> BumpData:
    """Indicator bump with amplitude R on each frequency of the four cubes."""
    if lattice is None:
        lattice = params.lattice()
    omega = omega_frequencies(params.N, params.A)
    if np.unique(omega).size != omega.size:
        raise ValueError("bump cubes overlap; N is too small for A")
    phi0 = SpectralField(lattice, omega,
                         np.full(omega.size, params.R, dtype=np.complex128))
    pair = InitialPair(phi0, SpectralField.zero(lattice))
    return BumpData(phi=pair, omega_support=omega, params=params)


def sample_base_data(seed: int, decay_rate: float, amplitude: float,
                     lattice: FrequencyLattice,
                     max_freq: int = BASE_MAX_FREQ) -> InitialPair:
    """Random smooth pair with envelope amplitude*exp(-decay_rate*|xi|).

    Coefficients are Hermitian so both components are real fields; the
    draw is reproducible from the seed.
    """
    if decay_rate <= 0:
        raise ValueError("decay_rate must be positive")
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(2):
        xi_pos = np.arange(1, max_freq + 1)
        envelope = amplitude * np.exp(-decay_rate * xi_pos)
        z = (rng.standard_normal(max_freq) + 1j * rng.standard_normal(max_freq))
        z *= envelope
        c0 = amplitude * rng.standard_normal()
        pairs = [(0, c0)]
        pairs += [(int(x), v) for x, v in zip(xi_pos, z)]
        pairs += [(-int(x), np.conj(v)) for x, v in zip(xi_pos, z)]
        comps.append(SpectralField.from_pairs(lattice, pairs))
    if amplitude == 0:
        return InitialPair.zero(lattice)
    return InitialPair(comps[0], comps[1])


def perturbed_data(base: InitialPair, bump: BumpData) -> InitialPair:
    """Coefficient-wise sum base + bump."""
    if base.lattice != bump.phi.lattice:
        raise LatticeMismatchError("base data and bump on different lattices")
    return InitialPair(base.u0 + bump.phi.u0, base.u1 + bump.phi.u1)
