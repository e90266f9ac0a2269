"""Function-space norms evaluated on sparse spectral fields.

Families: Sobolev H^s, Fourier-Lebesgue FL^{s,q}, the pair variants, the
L2-cap-Linf space with smoothing weight s, and modulation / Wiener-amalgam
spaces built from a sharp unit-band partition of the dual variable.

On the integer dual lattice of the unit-period torus every band holds a
single frequency, so the modulation and amalgam norms collapse to the
Fourier-Lebesgue norm; on a scaled-torus line surrogate the bands hold
period-many points and the families genuinely differ.  The sharp indicator
partition replaces the textbook smooth one: on a lattice it is exact and
defines an equivalent norm.

The band weight is the Japanese bracket <n>^s.  (A literal reading of the
usual definition would use 1+|n|^s, which for s<0 tends to 1 and carries no
regularity; see the design notes in the README.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import InitialPair
from .lattice import SpectralField, bracket, convolve, synthesis_length, synthesize

FAMILIES = (
    "sobolev",
    "fourier_lebesgue",
    "sobolev_pair",
    "wiener_pair",
    "w_s2inf",
    "modulation",
    "wiener_amalgam",
)

# The families that apply to InitialPair inputs only.
PAIR_FAMILIES = ("sobolev_pair", "wiener_pair")

_LINF_OVERSAMPLE = 8


@dataclass(frozen=True)
class NormSpec:
    """Selector for one norm family.

    q is ignored by the families that do not use it; math.inf selects the
    supremum variant.  The pair families apply to InitialPair inputs.
    """

    family: str
    s: float = 0.0
    q: float = math.inf

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown norm family {self.family!r}")
        if self.q < 1:
            raise ValueError("q must be >= 1 (or inf)")


def _lq(values: np.ndarray, weights, q: float) -> float:
    """Weighted little-lq norm of non-negative values."""
    if values.size == 0:
        return 0.0
    if math.isinf(q):
        return float(np.max(values))
    return float(np.sum(weights * values**q) ** (1.0 / q))


def band_index(nu: np.ndarray) -> np.ndarray:
    """Half-open unit band n + [-1/2, 1/2) containing each dual point."""
    return np.floor(np.asarray(nu, dtype=float) + 0.5).astype(np.int64)


@dataclass
class BandPartition:
    """Sharp partition of a field's support into unit dual bands."""

    bands: dict  # n -> index array into the field's support

    def energies(self, f: SpectralField) -> dict:
        w = f.lattice.weight
        return {
            n: float(np.sum(np.abs(f.c[idx]) ** 2) * w)
            for n, idx in self.bands.items()
        }


def band_partition(f: SpectralField) -> BandPartition:
    if f.nnz == 0:
        return BandPartition(bands={})
    # xi is strictly increasing, so the band indices never decrease and
    # each band is one run of the support
    n = band_index(f.lattice.dual_points(f.xi))
    bands, starts = np.unique(n, return_index=True)
    runs = np.split(np.arange(n.size, dtype=np.int64), starts[1:])
    return BandPartition(bands={int(b): ix for b, ix in zip(bands, runs)})


def norm(obj, spec: NormSpec) -> float:
    """Evaluate one norm.  Empty fields give 0.

    The norms that need physical samples (w_s2inf of a spectrum that is
    not nonnegative, wiener_amalgam with multi-point bands) take them on
    lattice.synthesize's power-of-two grid with oversampling
    _LINF_OVERSAMPLE.
    """
    if isinstance(obj, InitialPair):
        if spec.family == "sobolev_pair":
            comp = NormSpec("sobolev", s=spec.s)
        elif spec.family == "wiener_pair":
            comp = NormSpec("fourier_lebesgue", s=0.0, q=1.0)
        elif spec.family in ("sobolev", "fourier_lebesgue", "w_s2inf",
                             "modulation", "wiener_amalgam"):
            comp = spec
        else:
            raise ValueError(f"{spec.family} does not apply to pairs")
        return norm(obj.u0, comp) + norm(obj.u1, comp)

    f: SpectralField = obj
    if spec.family in PAIR_FAMILIES:
        raise ValueError(f"{spec.family} applies to InitialPair inputs")
    if f.nnz == 0:
        return 0.0
    w = f.lattice.weight
    nu = f.lattice.dual_points(f.xi)
    mag = np.abs(f.c)

    if spec.family == "sobolev":
        return float(np.sqrt(np.sum(bracket(nu) ** (2 * spec.s) * mag**2) * w))

    if spec.family == "fourier_lebesgue":
        return _lq(bracket(nu) ** spec.s * mag, w, spec.q)

    if spec.family == "w_s2inf":
        g = f.weighted(bracket(nu) ** spec.s)
        l2 = g.l2()
        if np.all(g.c.real >= 0) and np.all(g.c.imag == 0):
            # nonnegative spectrum: the sup is attained exactly at x = 0,
            # so no synthesis grid is needed (works at any frequency scale)
            linf = float(np.sum(g.c.real)) * g.lattice.weight
        else:
            linf = synthesize(g, oversample=_LINF_OVERSAMPLE).max_abs()
        return max(l2, linf)

    if spec.family == "modulation":
        part = band_partition(f)
        ns = np.array(sorted(part.bands), dtype=float)
        vals = np.array([
            math.sqrt(float(np.sum(mag[part.bands[int(n)]] ** 2)) * w)
            for n in ns
        ])
        return _lq(bracket(ns) ** spec.s * vals, 1.0, spec.q)

    if spec.family == "wiener_amalgam":
        return _amalgam_norm(f, spec)

    raise ValueError(f"unhandled family {spec.family}")


def _amalgam_norm(f: SpectralField, spec: NormSpec) -> float:
    """L2 over the grid of the lq-over-bands of weighted band syntheses."""
    part = band_partition(f)
    ns = sorted(part.bands)
    if all(part.bands[n].size == 1 for n in ns):
        # single-point bands: |P_n f(x)| is constant in x, L2 drops out
        vals = np.array([abs(f.c[part.bands[n][0]]) for n in ns])
        wts = np.array([bracket(float(n)) ** spec.s for n in ns])
        return _lq(wts * vals, 1.0, spec.q) * math.sqrt(f.lattice.weight)
    rows = []
    for n in ns:
        idx = part.bands[n]
        piece = SpectralField(f.lattice, f.xi[idx], f.c[idx])
        rows.append(bracket(float(n)) ** spec.s
                    * np.abs(_common_grid_samples(piece, f)))
    stack = np.stack(rows)  # bands x gridpoints
    if math.isinf(spec.q):
        g = np.max(stack, axis=0)
    else:
        g = np.sum(stack**spec.q, axis=0) ** (1.0 / spec.q)
    return math.sqrt(float(np.mean(g**2)) * f.lattice.weight)


def _common_grid_samples(piece: SpectralField, full: SpectralField) -> np.ndarray:
    """Band synthesis on a grid sized from the full field's support, so all
    bands of one field share the same sample points: lattice.synthesize's
    power-of-two grid and memory guard, not the shorter _fft_length of the
    convolutions, since the length fixes the sample points behind the
    amalgam norms, which a change of length would move beyond rounding."""
    m = synthesis_length(full, _LINF_OVERSAMPLE)
    spectrum = np.zeros(m, dtype=np.complex128)
    spectrum[np.mod(piece.xi, m)] = piece.c
    return np.fft.ifft(spectrum) * m


# ----------------------------------------------------------------------
# structural inequality checks
# ----------------------------------------------------------------------

@dataclass
class InequalityMargin:
    name: str
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs == 0:
            return 0.0 if self.lhs == 0 else math.inf
        return self.lhs / self.rhs

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs * (1 + 1e-12)


def check_embeddings(f: SpectralField, s: float) -> list:
    """Evaluate the modulation/amalgam embedding chain on one field.

    The lq-monotonicity embeddings hold with constant 1; the cross
    embeddings (Minkowski) likewise; the band-limited L2->Linf inequality
    is reported with its measured constant as the ratio.
    """
    out = []
    m1 = norm(f, NormSpec("modulation", s, 1))
    m2 = norm(f, NormSpec("modulation", s, 2))
    mi = norm(f, NormSpec("modulation", s, math.inf))
    w1 = norm(f, NormSpec("wiener_amalgam", s, 1))
    w2 = norm(f, NormSpec("wiener_amalgam", s, 2))
    wi = norm(f, NormSpec("wiener_amalgam", s, math.inf))
    out.append(InequalityMargin("M(2,2) <= M(2,1)", m2, m1))
    out.append(InequalityMargin("M(2,inf) <= M(2,2)", mi, m2))
    out.append(InequalityMargin("W(2,2) <= W(2,1)", w2, w1))
    out.append(InequalityMargin("W(2,inf) <= W(2,2)", wi, w2))
    # sandwich M(2,min(2,q)) -> W(2,q) -> M(2,max(2,q)) at q = 1, 2, inf
    out.append(InequalityMargin("W(2,1) <= M(2,1)", w1, m1))
    out.append(InequalityMargin("M(2,2) <= W(2,1)", m2, w1))
    out.append(InequalityMargin("W(2,2) <= M(2,2)", w2, m2))
    out.append(InequalityMargin("M(2,2) <= W(2,2)", m2, w2))
    out.append(InequalityMargin("W(2,inf) <= M(2,2)", wi, m2))
    out.append(InequalityMargin("M(2,inf) <= W(2,inf)", mi, wi))
    # band-limited L2 -> Linf with measured constant
    grid = synthesize(f, oversample=_LINF_OVERSAMPLE)
    out.append(InequalityMargin("Linf vs L2 (measured C)", grid.max_abs(),
                                max(grid.l2(), 1e-300)))
    return out


def check_algebra(u: SpectralField, v: SpectralField) -> list:
    """Submultiplicativity in the Wiener algebra (constant 1, exact) and in
    the modulation algebra (measured constant reported as the ratio)."""
    fl = NormSpec("fourier_lebesgue", 0.0, 1.0)
    m21 = NormSpec("modulation", 0.0, 1.0)
    prod = convolve(u, v, prune=0.0)
    return [
        InequalityMargin("FL1 algebra", norm(prod, fl),
                         norm(u, fl) * norm(v, fl)),
        InequalityMargin("M(2,1) algebra (measured C)", norm(prod, m21),
                         max(norm(u, m21) * norm(v, m21), 1e-300)),
    ]
