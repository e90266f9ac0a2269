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
from .lattice import (GridField, SpectralField, bracket, convolve, grid_samples,
                      synthesis_length, synthesize)

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

    @classmethod
    def from_entry(cls, entry: dict, s: float = 0.0) -> "NormSpec":
        """Spec of a {family, q} entry (a config's families list) at
        regularity s; an absent, null or "inf" q is the supremum."""
        q = entry.get("q")
        return cls(entry["family"], s=s, q=math.inf if q in (None, "inf") else float(q))

    @property
    def label(self) -> str:
        """Name of the family's columns and report keys: the family, with
        _q<q> for the families that use q."""
        if self.family in ("sobolev", "w_s2inf"):
            return self.family
        return f"{self.family}_q{'inf' if math.isinf(self.q) else f'{self.q:g}'}"


def _lq(values: np.ndarray, weights, q: float) -> float:
    """Weighted little-lq norm of non-negative values."""
    if values.size == 0:
        return 0.0
    if math.isinf(q):
        return float(np.max(values))
    return float(np.sum(weights * values**q) ** (1.0 / q))


def band_index(xi: np.ndarray, lattice) -> np.ndarray:
    """Half-open unit band n + [-1/2, 1/2) containing the dual point
    xi / period of each frequency.  For an integer period P it is
    floor((2 xi + P) / 2P), exact in integers: xi itself on the unit
    torus.  Other periods take floor(nu + 0.5) in float64."""
    P = lattice.period
    if float(P).is_integer() and P < 2.0**63:  # an int64 period
        q, r = np.divmod(np.asarray(xi, dtype=np.int64), int(P))
        return q + (r >= int(P) - r)  # 2r >= P, without overflow
    return np.floor(lattice.dual_points(xi) + 0.5).astype(np.int64)


@dataclass(frozen=True)
class BandPartition:
    """Sharp partition of a field's support into unit dual bands.  The
    support is sorted, so the band indices never decrease and band ids[k]
    is the run starts[k]:starts[k + 1] of it (the last run ends at nnz)."""

    ids: np.ndarray
    starts: np.ndarray

    def energies(self, f: SpectralField) -> np.ndarray:
        """The squared L2 norm of each band's part of f, in band order."""
        return np.add.reduceat(np.abs(f.c) ** 2, self.starts) * f.lattice.weight


def band_partition(f: SpectralField) -> BandPartition:
    return BandPartition(*np.unique(band_index(f.xi, f.lattice), return_index=True))


def norm(obj, spec: NormSpec) -> float:
    """Evaluate one norm.  Empty fields give 0.

    The norms that need physical samples (w_s2inf of a spectrum that is
    not nonnegative, wiener_amalgam with multi-point bands) take them on
    lattice.synthesize's power-of-two grid with oversampling
    _LINF_OVERSAMPLE.
    """
    if isinstance(obj, InitialPair):
        if spec.family == "sobolev_pair":
            spec = NormSpec("sobolev", s=spec.s)
        elif spec.family == "wiener_pair":
            spec = NormSpec("fourier_lebesgue", q=1.0)
        return norm(obj.u0, spec) + norm(obj.u1, spec)

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

    if spec.family in ("modulation", "wiener_amalgam"):
        # norm() calls the module's band_partition by name, so a wrapper
        # installed on it sees every partition
        part = band_partition(f)
        wts = bracket(part.ids) ** spec.s
        if spec.family == "modulation":
            return _lq(wts * np.sqrt(part.energies(f)), 1.0, spec.q)
        return _amalgam_norm(f, part, wts, spec.q)

    raise ValueError(f"unhandled family {spec.family}")


def _amalgam_norm(f: SpectralField, part: BandPartition, wts: np.ndarray, q: float) -> float:
    """L2 over the grid of the lq-over-bands of the band syntheses |P_n f|
    weighted by wts."""
    if part.ids.size == f.nnz:
        # single-point bands: |P_n f(x)| is constant in x, L2 drops out
        return _lq(wts * np.abs(f.c), 1.0, q) * math.sqrt(f.lattice.weight)
    stops = np.append(part.starts[1:], f.nnz)
    multi = stops - part.starts > 1
    flat = wts[~multi] * np.abs(f.c[part.starts[~multi]])
    # the lq sum at each grid point: the max of the bands for q = inf, else
    # the sum of their q-th powers.  The single-point bands add a constant;
    # every other band is synthesized on the grid synthesize would take for
    # the whole field, so all bands share its sample points (see synthesize
    # for why that length stays a power of two)
    op, p = (np.maximum, 1.0) if math.isinf(q) else (np.add, q)
    g = np.full(synthesis_length(f, _LINF_OVERSAMPLE), op.reduce(flat**p, initial=0.0))
    for k in np.flatnonzero(multi):
        run = slice(part.starts[k], stops[k])
        op(g, (wts[k] * np.abs(grid_samples(f.xi[run], f.c[run], g.size))) ** p, out=g)
    return GridField(g ** (1.0 / p), f.lattice.weight).l2()


# ----------------------------------------------------------------------
# structural inequality checks
# ----------------------------------------------------------------------

@dataclass
class InequalityMargin:
    """lhs against rhs.  A measured margin reports the constant lhs / rhs
    of an inequality that has no bound to hold, so its holds says nothing."""

    name: str
    lhs: float
    rhs: float
    measured: bool = False

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
                                max(grid.l2(), 1e-300), measured=True))
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
                         max(norm(u, m21) * norm(v, m21), 1e-300), measured=True),
    ]
