"""Sparse Fourier representation of real fields on a torus.

Fields are stored as sorted integer frequency indices with complex
amplitudes.  A field with index xi on a lattice of period P represents the
mode exp(2*pi*i*xi*x/P), so the physical (radian) frequency is
omega = 2*pi*xi/P and the dual-variable used by norms is nu = xi/P.  On the
default period-1 torus the dual lattice is the integers and every
convolution is a finite exact sum.

The "line_approx" lattice kind is a scaled torus used as a surrogate for
the real line: dual points are spaced 1/P apart and quadrature-weighted
accordingly.  Exactness claims are only made for the torus.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffOverflowError, LatticeMismatchError

# Relative prune threshold applied after convolutions; see convolve().
PRUNE_REL = 1e-14

# Schoolbook accumulation below this many coefficient products, FFT above.
_EXACT_PRODUCT_CAP = 20_000
# Largest dense bounding box the FFT path will allocate.
_FFT_BOX_CAP = 1 << 23


@dataclass(frozen=True)
class FrequencyLattice:
    """Dual lattice of a torus (or of its scaled-torus line surrogate).

    period: circumference of the physical domain, > 0.
    cutoff: largest |frequency index| the lattice will represent.
    kind:   "torus" (counting measure on the dual) or "line_approx"
            (Riemann weight 1/period per dual point).
    """

    period: float = 1.0
    cutoff: int = 1 << 40
    kind: str = "torus"

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.kind not in ("torus", "line_approx"):
            raise ValueError(f"unknown lattice kind {self.kind!r}")

    @property
    def weight(self) -> float:
        """Measure weight of one dual lattice point."""
        return 1.0 if self.kind == "torus" else 1.0 / self.period

    def dual_points(self, xi: np.ndarray) -> np.ndarray:
        """Dual variable nu entering Japanese-bracket weights."""
        return np.asarray(xi, dtype=float) / self.period

    def radian_frequency(self, xi) -> np.ndarray:
        return 2.0 * math.pi * np.asarray(xi, dtype=float) / self.period


def lambda_symbol(xi, lattice: FrequencyLattice):
    """Dispersion symbol |omega|/(1+omega^2)^(1/2), bounded by 1.

    Vanishes at xi = 0 and increases monotonically in |xi|.
    """
    om = lattice.radian_frequency(xi)
    out = np.abs(om) / np.sqrt(1.0 + om * om)
    if np.ndim(xi) == 0:
        return float(out)
    return out


def bracket(nu) -> np.ndarray:
    """Japanese bracket (1 + |nu|^2)^(1/2)."""
    nu = np.asarray(nu, dtype=float)
    return np.sqrt(1.0 + nu * nu)


class SpectralField:
    """Immutable sparse frequency-indexed complex amplitudes.

    Invariants: indices sorted strictly increasing, |xi| <= lattice.cutoff,
    and no stored amplitude below the prune threshold used at construction.
    Real-valued physical fields satisfy c(-xi) == conj(c(xi)); this is
    preserved (to rounding) by all arithmetic here and checkable via
    is_hermitian().
    """

    __slots__ = ("lattice", "xi", "c")

    def __init__(self, lattice: FrequencyLattice, xi: np.ndarray, c: np.ndarray):
        xi = np.asarray(xi, dtype=np.int64)
        c = np.asarray(c, dtype=np.complex128)
        if xi.ndim != 1 or c.shape != xi.shape:
            raise ValueError("xi and c must be matching 1-d arrays")
        if xi.size and np.any(np.diff(xi) <= 0):
            raise ValueError("frequencies must be sorted strictly increasing")
        if xi.size:
            worst = int(xi[np.argmax(np.abs(xi))])
            if abs(worst) > lattice.cutoff:
                raise CutoffOverflowError(worst, lattice.cutoff)
        xi.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "c", c)

    def __setattr__(self, *_):
        raise AttributeError("SpectralField is immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, lattice: FrequencyLattice) -> "SpectralField":
        return cls(lattice, np.empty(0, np.int64), np.empty(0, np.complex128))

    @classmethod
    def from_pairs(cls, lattice: FrequencyLattice, pairs) -> "SpectralField":
        """Build from an iterable/dict of (xi, amplitude), merging duplicates."""
        if isinstance(pairs, dict):
            pairs = pairs.items()
        items = sorted(pairs)
        if not items:
            return cls.zero(lattice)
        xi = np.array([p[0] for p in items], dtype=np.int64)
        c = np.array([p[1] for p in items], dtype=np.complex128)
        uniq, inv = np.unique(xi, return_inverse=True)
        merged = np.zeros(uniq.size, dtype=np.complex128)
        np.add.at(merged, inv, c)
        keep = merged != 0
        return cls(lattice, uniq[keep], merged[keep])

    @classmethod
    def delta(cls, lattice: FrequencyLattice, xi: int, amplitude=1.0) -> "SpectralField":
        return cls(lattice, np.array([xi], np.int64), np.array([amplitude], np.complex128))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.xi.size)

    def get(self, xi: int) -> complex:
        i = np.searchsorted(self.xi, xi)
        if i < self.xi.size and self.xi[i] == xi:
            return complex(self.c[i])
        return 0.0 + 0.0j

    def support(self) -> set:
        return set(int(v) for v in self.xi)

    def l1(self) -> float:
        return float(np.sum(np.abs(self.c))) * self.lattice.weight

    def l2(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.c) ** 2)) * self.lattice.weight)

    def sup(self) -> float:
        return float(np.max(np.abs(self.c))) if self.nnz else 0.0

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """Check c(-xi) == conj(c(xi)) to absolute tolerance tol*max|c|."""
        if self.nnz == 0:
            return True
        scale = self.sup()
        mirror = np.searchsorted(self.xi, -self.xi[::-1])
        ok = (mirror < self.xi.size) & (self.xi[np.minimum(mirror, self.xi.size - 1)] == -self.xi[::-1])
        if not np.all(ok):
            return False
        diff = np.abs(self.c[mirror] - np.conj(self.c[::-1]))
        return bool(np.max(diff) <= tol * max(scale, 1e-300))

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_lattice(self, other)
        if self.nnz == 0:
            return other
        if other.nnz == 0:
            return self
        xi = np.concatenate([self.xi, other.xi])
        c = np.concatenate([self.c, other.c])
        uniq, inv = np.unique(xi, return_inverse=True)
        merged = np.zeros(uniq.size, dtype=np.complex128)
        np.add.at(merged, inv, c)
        keep = merged != 0
        return SpectralField(self.lattice, uniq[keep], merged[keep])

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self + other.scale(-1.0)

    def scale(self, a) -> "SpectralField":
        if a == 0:
            return SpectralField.zero(self.lattice)
        return SpectralField(self.lattice, self.xi, self.c * a)

    def weighted(self, values: np.ndarray) -> "SpectralField":
        """New field with amplitudes c * values (values aligned with self.xi)."""
        return SpectralField(self.lattice, self.xi, self.c * values)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        entries = [
            {"xi": int(x), "re": float(v.real), "im": float(v.imag)}
            for x, v in zip(self.xi, self.c)
        ]
        lat = self.lattice
        return json.dumps({"period": lat.period, "kind": lat.kind,
                           "cutoff": lat.cutoff, "entries": entries})

    @classmethod
    def from_json(cls, text: str, cutoff: int = 1 << 40, kind: str = "torus") -> "SpectralField":
        """Inverse of to_json; cutoff and kind are only used for documents
        written without them."""
        return cls.from_doc(json.loads(text), cutoff, kind)

    @classmethod
    def from_doc(cls, doc: dict, cutoff: int = 1 << 40, kind: str = "torus") -> "SpectralField":
        """Field of a parsed to_json document.  Entries in strictly
        increasing order, as to_json writes them, are read back to the bit
        (signed zeros included); any other order is merged by from_pairs."""
        lattice = FrequencyLattice(period=doc["period"],
                                   cutoff=doc.get("cutoff", cutoff),
                                   kind=doc.get("kind", kind))
        pairs = [(e["xi"], complex(e["re"], e["im"])) for e in doc["entries"]]
        xi = np.array([x for x, _ in pairs], dtype=np.int64)
        if np.all(np.diff(xi) > 0):
            return cls(lattice, xi, np.array([v for _, v in pairs], dtype=np.complex128))
        return cls.from_pairs(lattice, pairs)


def _check_same_lattice(f: SpectralField, g: SpectralField):
    if f.lattice != g.lattice:
        raise LatticeMismatchError(
            f"lattice mismatch: {f.lattice} vs {g.lattice}"
        )


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------

def _convolve_arrays(xi1, c1, xi2, c2):
    """Convolve two sorted sparse coefficient arrays.

    Returns (xi, c) sorted, zeros dropped, no pruning.  Small products use
    exact schoolbook accumulation on a dense bounding box; large products
    use an FFT over the box.  Both paths are deterministic for fixed inputs.
    """
    lo = int(xi1[0]) + int(xi2[0])
    hi = int(xi1[-1]) + int(xi2[-1])
    box = hi - lo + 1
    n_prod = xi1.size * xi2.size
    if box <= _FFT_BOX_CAP:
        if n_prod <= _EXACT_PRODUCT_CAP:
            out = np.zeros(box, dtype=np.complex128)
            idx = (xi1[:, None] + xi2[None, :] - lo).ravel()
            np.add.at(out, idx, (c1[:, None] * c2[None, :]).ravel())
        else:
            # box equals span(f) + span(g) - 1, the full linear conv length
            n2 = 1 << int(box - 1).bit_length()
            a = np.zeros(n2, dtype=np.complex128)
            b = np.zeros(n2, dtype=np.complex128)
            a[xi1 - int(xi1[0])] = c1
            b[xi2 - int(xi2[0])] = c2
            out = np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))[:box]
        keep = out != 0
        xi = lo + np.nonzero(keep)[0].astype(np.int64)
        return xi, out[keep]
    # Sparse supports spanning a huge index range: memory-bounded merging.
    acc_xi = np.empty(0, np.int64)
    acc_c = np.empty(0, np.complex128)
    chunk = max(1, 8 * _EXACT_PRODUCT_CAP // max(1, int(xi2.size)))
    for start in range(0, xi1.size, chunk):
        block = slice(start, start + chunk)
        s = (xi1[block][:, None] + xi2[None, :]).ravel()
        v = (c1[block][:, None] * c2[None, :]).ravel()
        uniq, inv = np.unique(np.concatenate([acc_xi, s]), return_inverse=True)
        merged = np.zeros(uniq.size, dtype=np.complex128)
        np.add.at(merged, inv, np.concatenate([acc_c, v]))
        acc_xi, acc_c = uniq, merged
    keep = acc_c != 0
    return acc_xi[keep], acc_c[keep]


def _prune_arrays(xi, c, prune_rel: float):
    if c.size == 0 or prune_rel <= 0:
        return xi, c
    thr = prune_rel * float(np.max(np.abs(c)))
    keep = np.abs(c) >= thr
    return xi[keep], c[keep]


def convolve(f: SpectralField, g: SpectralField, prune: float = PRUNE_REL) -> SpectralField:
    """Sparse convolution (f*g)(xi) = sum_{a+b=xi} f(a) g(b) * weight.

    On the torus the dual weight is one and the sum is exact; on the
    line surrogate the weight 1/period makes the sum a Riemann form of
    the continuum convolution, so the physical-space product transforms
    correctly on both lattice kinds.

    Coefficients below prune*max|output| are dropped afterwards to keep
    supports from filling with rounding dust; pass prune=0 to disable.
    Raises LatticeMismatchError / CutoffOverflowError per the contracts.
    """
    _check_same_lattice(f, g)
    if f.nnz == 0 or g.nnz == 0:
        return SpectralField.zero(f.lattice)
    xi, c = _convolve_arrays(f.xi, f.c, g.xi, g.c)
    if f.lattice.weight != 1.0:
        c = c * f.lattice.weight
    xi, c = _prune_arrays(xi, c, prune)
    if xi.size:
        worst = int(xi[np.argmax(np.abs(xi))])
        if abs(worst) > f.lattice.cutoff:
            raise CutoffOverflowError(worst, f.lattice.cutoff)
    return SpectralField(f.lattice, xi, c)


def power_k(f: SpectralField, k: int, prune: float = PRUNE_REL) -> SpectralField:
    """k-th convolution power, i.e. the transform of the physical u^k."""
    if k < 2:
        raise ValueError("power_k requires k >= 2")
    out = f
    for _ in range(k - 1):
        out = convolve(out, f, prune=prune)
    return out


# ----------------------------------------------------------------------
# physical-space synthesis
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridField:
    """Real samples at equispaced physical points over one period."""

    samples: np.ndarray
    period: float
    weight_scale: float = 1.0  # carries the lattice measure into L^p norms

    def __post_init__(self):
        self.samples.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.samples.size)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.samples))) if self.size else 0.0

    def l2(self) -> float:
        """Mean-square norm matching the frequency-side H^0 norm exactly."""
        return math.sqrt(float(np.mean(self.samples**2)) * self.weight_scale)

    def lp(self, p: float) -> float:
        if math.isinf(p):
            return self.max_abs()
        return float(np.mean(np.abs(self.samples) ** p) * self.weight_scale) ** (1.0 / p)

    def to_csv(self) -> str:
        xs = self.period * np.arange(self.size) / self.size
        lines = ["x,value"]
        lines += [f"{float(x)!r},{float(v)!r}" for x, v in zip(xs, self.samples)]
        return "\n".join(lines) + "\n"


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


_SYNTHESIS_GRID_CAP = 1 << 25


def synthesize(f: SpectralField, oversample: int = 2) -> GridField:
    """Exact trigonometric synthesis at equispaced points.

    The grid length is a power of two at least oversample*(2*max|xi|+1),
    so the synthesis is alias-free and Parseval holds to rounding.
    """
    if oversample < 2:
        raise ValueError("oversample must be >= 2")
    maxfreq = int(np.max(np.abs(f.xi))) if f.nnz else 0
    m = _next_pow2(max(oversample * (2 * maxfreq + 1), 2 * maxfreq + 2, 4))
    if m > _SYNTHESIS_GRID_CAP:
        raise ValueError(
            f"synthesis grid of {m} points exceeds the memory guard "
            f"{_SYNTHESIS_GRID_CAP}; the support reaches |xi| = {maxfreq}"
        )
    spectrum = np.zeros(m, dtype=np.complex128)
    if f.nnz:
        spectrum[np.mod(f.xi, m)] = f.c
    samples = np.fft.ifft(spectrum).real * m
    return GridField(samples=samples, period=f.lattice.period,
                     weight_scale=f.lattice.weight)

