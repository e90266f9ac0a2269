"""Sparse Fourier representation of real fields on a torus.

Fields are stored as sorted integer frequency indices with complex
amplitudes.  A field with index xi on a lattice of period P represents the
mode exp(2*pi*i*xi*x/P), so the physical (radian) frequency is
omega = 2*pi*xi/P and the dual-variable used by norms is nu = xi/P.  On the
default period-1 torus the dual lattice is the integers and every
convolution is a finite sum.

Every convolution runs through one engine, fold_product: the k-fold
product of sparse fields at many times at once, by one FFT convolution on
a grid of cells xi = m*B + r (the 1-D bounding box when B = 0, a dense
(m, r) grid for supports made of clusters spaced B apart).  convolve is
one fold of two fields; its support is exactly the Minkowski sum of the
input supports and its values are exact to rounding.  The Duhamel
operator of gibq.flow folds its k trajectories with the same engine.

The "line_approx" lattice kind is a scaled torus used as a surrogate for
the real line: dual points are spaced 1/P apart and quadrature-weighted
accordingly.  Exactness claims are only made for the torus.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, CutoffOverflowError, LatticeMismatchError

# Relative prune threshold applied after convolutions; see convolve().
PRUNE_REL = 1e-14

# Memory guard of the fold engine: the most padded cells of one factor's
# transforms at once, and of the product at all times; a larger product
# (e.g. cubes around huge frequencies that no split packs) raises CapacityError.
_FOLD_CAP = 1 << 23

# Version of the JSON documents of SpectralField and flow.Trajectory.
JSON_VERSION = 1
_DOC_KEYS = frozenset({"version", "period", "kind", "cutoff", "entries"})
_ENTRY_KEYS = frozenset({"xi", "re", "im"})


def _smooth_lengths(limit: int) -> list:
    """Every 2^a 3^b 5^c up to limit, sorted."""
    lengths = [1]
    for p in (2, 3, 5):
        for n in lengths:  # the list grows as it is read: n*p, n*p^2, ...
            if n * p <= limit:
                lengths.append(n * p)
    return sorted(lengths)


_FFT_LENGTHS = _smooth_lengths(1 << 31)


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, the transform length for n cells of a
    convolution: at most 15/13 of n, where the next power of two can be
    twice n.  Such lengths cost about as much per point as powers of two,
    while a length with a larger prime factor can cost many times more.
    Defined for n <= 2^31, far beyond any transform that fits in memory."""
    return _FFT_LENGTHS[bisect.bisect_left(_FFT_LENGTHS, n)]


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
        return json.dumps({"version": JSON_VERSION, "period": lat.period,
                           "kind": lat.kind, "cutoff": lat.cutoff,
                           "entries": entries})

    @classmethod
    def from_json(cls, text: str, cutoff: int = 1 << 40, kind: str = "torus") -> "SpectralField":
        """Inverse of to_json; cutoff and kind are only used for documents
        written without them."""
        return cls.from_doc(json.loads(text), cutoff, kind)

    @classmethod
    def from_doc(cls, doc: dict, cutoff: int = 1 << 40, kind: str = "torus") -> "SpectralField":
        """Field of a parsed to_json document.  Entries in strictly
        increasing order, as to_json writes them, are read back to the bit
        (signed zeros included); any other order is merged by from_pairs.
        Raises ValueError for an unknown version or key."""
        check_json_doc(doc, _DOC_KEYS, "SpectralField")
        if any(not _ENTRY_KEYS.issuperset(e) for e in doc["entries"]):
            raise ValueError("unknown keys in a SpectralField entry")
        lattice = FrequencyLattice(period=doc["period"],
                                   cutoff=doc.get("cutoff", cutoff),
                                   kind=doc.get("kind", kind))
        pairs = [(e["xi"], complex(e["re"], e["im"])) for e in doc["entries"]]
        xi = np.array([x for x, _ in pairs], dtype=np.int64)
        if np.all(np.diff(xi) > 0):
            return cls(lattice, xi, np.array([v for _, v in pairs], dtype=np.complex128))
        return cls.from_pairs(lattice, pairs)


def check_json_doc(doc: dict, keys, what: str):
    """Raise ValueError when doc has a key outside keys or a version other
    than JSON_VERSION; a document without a version is read as version 1,
    the format written before documents were versioned."""
    unknown = set(doc) - keys
    if unknown:
        raise ValueError(f"unknown keys in the {what} document: {sorted(unknown)}")
    version = doc.get("version", 1)
    if version != JSON_VERSION:
        raise ValueError(f"{what} document version {version!r}, "
                         f"this version reads {JSON_VERSION}")


def _check_same_lattice(f: SpectralField, g: SpectralField):
    if f.lattice != g.lattice:
        raise LatticeMismatchError(
            f"lattice mismatch: {f.lattice} vs {g.lattice}"
        )


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------

def _prune_arrays(xi, c, prune_rel: float):
    if c.size == 0 or prune_rel <= 0:
        return xi, c
    thr = prune_rel * float(np.max(np.abs(c)))
    keep = np.abs(c) >= thr
    return xi[keep], c[keep]


def convolve(f: SpectralField, g: SpectralField, prune: float = PRUNE_REL) -> SpectralField:
    """Sparse convolution (f*g)(xi) = sum_{a+b=xi} f(a) g(b) * weight.

    On the torus the dual weight is one and the sum is exact to rounding;
    on the line surrogate the weight 1/period makes the sum a Riemann form
    of the continuum convolution, so the physical-space product transforms
    correctly on both lattice kinds.

    The product is one fold (see fold_product) of f and g together with a
    row of ones each: that row counts the pairs a + b = xi, an integer, so
    the result lives exactly on the Minkowski sum of the supports and
    carries no FFT rounding dust outside it.  Coefficients below
    prune*max|output| are dropped afterwards; pass prune=0 to keep every
    nonzero sum.  Raises LatticeMismatchError, CutoffOverflowError and
    CapacityError per the contracts.
    """
    _check_same_lattice(f, g)
    if f.nnz == 0 or g.nnz == 0:
        return SpectralField.zero(f.lattice)
    rows = [(h.xi, np.stack([h.c, np.ones(h.nnz)])) for h in (f, g)]
    xi, (c, count) = fold_product(rows, 2, 0.0)
    keep = (count.real > 0.5) & (c != 0)
    xi, c = xi[keep], c[keep]
    if f.lattice.weight != 1.0:
        c = c * f.lattice.weight
    xi, c = _prune_arrays(xi, c, prune)
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
# the fold engine
# ----------------------------------------------------------------------

def fold_product(rows, batch: int, prune: float):
    """The product of k sparse fields at many times, on one FFT grid.

    rows holds one (support, times x values) pair per factor.  Returns
    (xi, values): the frequencies where the product is nonzero at some
    time and a (times x xi) matrix, each time pruned at prune times its
    largest coefficient.  It is built by one FFT convolution on a grid of
    cells xi = m*B + r (see _fold_layout), at most batch times per
    transform: a single row (the 1-D bounding box) for supports without
    wide gaps, a dense (m, r) grid for supports made of clusters spaced B
    apart.  Raises CapacityError when no grid fits under _FOLD_CAP padded
    cells, or when the product at all times holds more than _FOLD_CAP.
    """
    if any(sup.size == 0 for sup, _ in rows):
        return np.empty(0, np.int64), np.empty((rows[0][1].shape[0], 0), np.complex128)
    layout = _fold_layout([sup for sup, _ in rows])
    if layout is None:
        raise CapacityError(f"no fold grid of the product fits in {_FOLD_CAP} cells")
    return _product_grid(rows, layout, batch, prune)


def sum_on_union(parts):
    """The sum of (xi, times x xi) products, on the union of their supports.

    A single part is returned as it is; more are added into one that holds
    the whole union, overwriting it, or else into a new matrix.  Raises
    CapacityError, before any allocation, when the sum exceeds _FOLD_CAP cells.
    """
    if len(parts) == 1:
        return parts[0]
    xi = np.unique(np.concatenate([sup for sup, _ in parts]))
    n_times = parts[0][1].shape[0]
    if n_times * xi.size > _FOLD_CAP:
        raise CapacityError(f"the sum at {n_times} times holds more than {_FOLD_CAP} cells")
    out = next((values for sup, values in parts if sup.size == xi.size), None)
    if out is None:
        out = np.zeros((n_times, xi.size), dtype=np.complex128)
    for sup, values in parts:
        if values is out:
            continue
        if sup.size == xi.size:
            out += values
        else:
            out[:, np.searchsorted(xi, sup)] += values
    return xi, out


def _fold_layout(sups):
    """Grid for the product fold, or None when no padded transform fits
    under _FOLD_CAP cells.

    Returns (B, parts, (rows, cols)) with one (m, col, r0) per support:
    the support is xi = m*B + r0 + col, with row m and column col counted
    from zero, and rows x cols is the shape of the linear convolution.
    The two-scale grid of _cluster_split is used only when its padded
    transform is smaller than the padded 1-D box.  A support at least half
    full has no gaps that a split could remove, so when every support is,
    the 1-D box is taken without looking for clusters.
    """
    box = _box_layout(sups)
    box_padded = _padded(box[2][1])
    fits = box_padded <= _FOLD_CAP
    if all(2 * sup.size > int(sup[-1]) - int(sup[0]) for sup in sups):
        return box if fits else None
    split = _cluster_split(sups)
    if split is not None:
        n_rows, n_cols = split[2]
        padded = _padded(n_rows) * _padded(n_cols)
        if padded <= _FOLD_CAP and (not fits or padded < box_padded):
            return split
    return box if fits else None


def _padded(n):
    """_fft_length(n), or a length above _FOLD_CAP when n cells exceed it
    (a 1-D box at N = 2^40 spans about 2^43 cells)."""
    return _fft_length(min(n, _FOLD_CAP + 1))


def _box_layout(sups):
    """The 1-D bounding box: B = 0 and every support in row 0."""
    box_cells = sum(int(sup[-1]) - int(sup[0]) for sup in sups) + 1
    return 0, [(0, sup - sup[0], int(sup[0])) for sup in sups], (1, box_cells)


def _cluster_split(sups):
    """Two-scale split xi = m*B + r of supports made of spaced clusters.

    The supports are cut into clusters at their widest gaps: at the
    largest ratio between two successive distinct gap widths (counting
    width 1, no hole, as the smallest).  B is the closest spacing of two
    cluster midpoints within one support, and every cluster goes whole
    into the row m nearest to (its midpoint - the support's first
    midpoint) / B.  The split is exact for any B; B only sets the grid
    size.  Returns a layout as _fold_layout does, or None when no support
    has two clusters.
    """
    gaps = [np.diff(sup) for sup in sups]
    widths = np.unique(np.concatenate(gaps + [[1]]))
    cut_at = widths[np.argmax(widths[1:] / widths[:-1])] if widths.size > 1 else 1
    clusters = []
    spacing2 = None
    for sup, g in zip(sups, gaps):
        cut = np.flatnonzero(g > cut_at)
        starts = np.append(0, cut + 1)
        mid2 = sup[starts] + sup[np.append(cut, sup.size - 1)]
        clusters.append((mid2, np.diff(np.append(starts, sup.size))))
        if cut.size:
            closest = int(np.min(np.diff(mid2)))
            spacing2 = closest if spacing2 is None else min(spacing2, closest)
    if spacing2 is None:
        return None
    base = max(1, (spacing2 + 1) // 2)
    parts = []
    n_rows = n_cols = 1
    for sup, (mid2, sizes) in zip(sups, clusters):
        m = np.repeat((mid2 - mid2[0] + base) // (2 * base), sizes)
        r = sup - m * base
        r0 = int(r.min())
        parts.append((m, r - r0, r0))
        n_rows += int(m[-1])
        n_cols += int(r.max()) - r0
    return base, parts, (n_rows, n_cols)


def _product_grid(rows, layout, batch, prune):
    """Batched fold of all times on one FFT grid.

    Every argument is scattered into a (times, M, R) array of its cells
    xi = m*B + r, the transforms are multiplied, and the inverse holds the
    product at every time.  Where the r-span of the product reaches B,
    cells (m, r) and (m+1, r-B) are the same frequency and are added
    together (the carry).  The times are split into equal batches of at
    most batch times, one transform each, and fewer when one factor's
    transforms would hold more than _FOLD_CAP padded cells.  Each time's
    product is pruned at prune times its largest coefficient, and only
    the cells nonzero at some time are returned.
    """
    base, parts, (n_rows, n_cols) = layout
    n_times = rows[0][1].shape[0]
    width = base if base and n_cols > base else n_cols
    folds = -(-n_cols // width)
    if n_times * (n_rows + folds - 1) * width > _FOLD_CAP:
        raise CapacityError(f"the product at {n_times} times holds more than {_FOLD_CAP} cells")
    batch = max(1, min(batch, _FOLD_CAP // (_fft_length(n_rows) * _fft_length(n_cols))))
    product = np.zeros((n_times, n_rows + folds - 1, width), dtype=np.complex128)
    for times in np.array_split(np.arange(n_times), -(-n_times // batch)):
        _fold_batch(product[times[0]:times[-1] + 1], rows, layout, times[0], width, prune)
    product = product.reshape(n_times, -1)
    cells = np.flatnonzero(np.any(product != 0, axis=0))
    m_idx, col_idx = np.divmod(cells, width)
    xi = m_idx * base + (sum(r0 for _, _, r0 in parts) + col_idx)
    return xi, np.take(product, cells, axis=1)


def _fold_batch(out, rows, layout, lo, width, prune):
    """Add the product at times lo, lo+1, ... into out, carried rows of
    the given width, and prune it per time; the transform arrays are freed
    on return."""
    _, parts, (n_rows, n_cols) = layout
    grids = np.zeros((len(rows), out.shape[0], _fft_length(n_rows), _fft_length(n_cols)),
                     dtype=np.complex128)
    for grid, (_, mat), (m, col, _) in zip(grids, rows, parts):
        grid[:, m, col] = mat[lo:lo + out.shape[0]]
    # a single row takes plain transforms along its last axis
    fft, ifft = (np.fft.fft, np.fft.ifft) if n_rows == 1 else (np.fft.fft2, np.fft.ifft2)
    fft(grids, out=grids)
    prod = grids[0]
    for spec in grids[1:]:
        prod *= spec
    dense = ifft(prod, out=prod)[:, :n_rows, :n_cols]
    for f in range(out.shape[1] - n_rows + 1):
        cols = dense[:, :, f * width:(f + 1) * width]
        out[:, f:f + n_rows, :cols.shape[2]] += cols
    # drop each time's rounding dust: interpolated to an early output node,
    # the dust of the late times would outgrow the small product there and
    # fill the gaps of its support
    mags = np.abs(out)
    out[mags < prune * np.max(mags, axis=(1, 2), keepdims=True)] = 0


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
    so the synthesis is alias-free and Parseval holds to rounding.  It
    stays a power of two, not the shorter _fft_length of the convolutions:
    the length fixes the sample points, and so the sup norm, by more than
    rounding.
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

