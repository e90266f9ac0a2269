"""Linear propagator and multilinear Duhamel operator on trajectories.

Time-dependent spectral data is stored at Chebyshev-Gauss-Lobatto nodes on
[0, T] and evaluated anywhere by barycentric interpolation.  Every time
dependence produced here is a finite combination of cos/sin with radian
rates at most (k-1)j+1 (the symbol is bounded by 1), so degree-16 nodes
already give spectral accuracy on the horizons this package uses.

The Duhamel operator computes, per output frequency xi,

    integral_0^t sin((t-t') lam(xi)) lam(xi) [u_1(t') ... u_k(t')]^(xi) dt'

by Clenshaw-Curtis quadrature, with the k-fold product formed at many
times at once by one FFT convolution on a grid of cells xi = m*B + r: the
1-D bounding box for supports without wide gaps, a small dense (m, r) grid
for supports made of clusters spaced B apart.  A whole trajectory forms
the product once, on the Chebyshev grid of degree D = sum of the argument
degrees: the product of the arguments' interpolants is a polynomial of
degree D in time, so interpolating it from that grid to the quadrature
nodes of every output node is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import LatticeMismatchError
from .lattice import (
    PRUNE_REL,
    FrequencyLattice,
    SpectralField,
    _next_pow2,
    _prune_arrays,
    lambda_symbol,
)

DEFAULT_DEGREE = 16

# Below this |t*lam| the sine quotient switches to its Taylor series.
_SINC_SWITCH = 1e-4


def stable_sinc(x):
    """sin(x)/x with a 4-term Taylor series below the switch threshold."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    series = 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))
    out = np.where(np.abs(x) < _SINC_SWITCH, series, direct)
    return out if out.ndim else float(out)


def sin_over_lambda(t: float, lam: np.ndarray) -> np.ndarray:
    """sin(t*lam)/lam, equal to t at the removable singularity lam = 0."""
    return t * stable_sinc(t * lam)


def chebyshev_nodes(degree: int, horizon: float) -> np.ndarray:
    """Ascending Chebyshev-Gauss-Lobatto nodes on [0, horizon]."""
    i = np.arange(degree + 1)
    return horizon / 2.0 * (1.0 - np.cos(math.pi * i / degree))


def _barycentric_weights(degree: int) -> np.ndarray:
    w = np.ones(degree + 1)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def barycentric_coeffs(nodes: np.ndarray, t) -> np.ndarray:
    """Interpolation coefficients gamma with p(t) = sum gamma_i * values_i.

    For an array of times, one row per time (shape times.shape + nodes.shape).
    A time within rounding of a node gets the unit row of that node.
    """
    w = _barycentric_weights(nodes.size - 1)
    times = np.asarray(t, dtype=float)
    diff = times.reshape(-1, 1) - nodes
    scale = np.maximum(np.abs(times.reshape(-1, 1)), max(nodes[-1], 1e-300))
    exact = np.abs(diff) <= 1e-15 * scale
    g = w / np.where(exact, 1.0, diff)
    coeffs = g / g.sum(axis=1, keepdims=True)
    hit = np.flatnonzero(exact.any(axis=1))
    coeffs[hit] = 0.0
    coeffs[hit, exact[hit].argmax(axis=1)] = 1.0
    return coeffs.reshape(times.shape + nodes.shape)


@lru_cache(maxsize=None)
def clenshaw_curtis_weights(degree: int) -> np.ndarray:
    """Quadrature weights on [-1, 1] for the p+1 Lobatto nodes.

    Ordering matches chebyshev_nodes (ascending); weights are symmetric so
    the cos-descending ordering coincides.  Cached and frozen per degree.
    """
    n = degree
    if n == 0:
        w = np.array([2.0])
        w.setflags(write=False)
        return w
    theta = math.pi * np.arange(n + 1) / n
    w = np.ones(n + 1)
    jmax = n // 2
    for i in range(n + 1):
        acc = 0.0
        for j in range(1, jmax + 1):
            b = 1.0 if (2 * j == n) else 2.0
            acc += b / (4.0 * j * j - 1.0) * math.cos(2.0 * j * theta[i])
        w[i] = 1.0 - acc
    w *= 2.0 / n
    w[0] *= 0.5
    w[-1] *= 0.5
    w.setflags(write=False)
    return w


@dataclass
class InitialPair:
    """Initial displacement and velocity as spectral fields."""

    u0: SpectralField
    u1: SpectralField

    def __post_init__(self):
        if self.u0.lattice != self.u1.lattice:
            raise LatticeMismatchError("pair components on different lattices")

    @property
    def lattice(self) -> FrequencyLattice:
        return self.u0.lattice

    def fl1(self) -> float:
        """Summed Wiener-algebra norm of the pair."""
        return self.u0.l1() + self.u1.l1()

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return self.u0.is_hermitian(tol) and self.u1.is_hermitian(tol)

    @classmethod
    def zero(cls, lattice: FrequencyLattice) -> "InitialPair":
        z = SpectralField.zero(lattice)
        return cls(z, z)


@dataclass
class Trajectory:
    """SpectralField-valued function of time sampled at Chebyshev nodes."""

    lattice: FrequencyLattice
    horizon: float
    nodes: np.ndarray
    fields: list

    _support: np.ndarray = field(default=None, repr=False, compare=False)
    _matrix: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def degree(self) -> int:
        return self.nodes.size - 1

    def _ensure_matrix(self):
        if self._matrix is not None:
            return
        if all(f.nnz == 0 for f in self.fields):
            support = np.empty(0, np.int64)
        else:
            support = np.unique(np.concatenate([f.xi for f in self.fields if f.nnz]))
        mat = np.zeros((self.nodes.size, support.size), dtype=np.complex128)
        for i, f in enumerate(self.fields):
            if f.nnz:
                mat[i, np.searchsorted(support, f.xi)] = f.c
        self._support = support
        self._matrix = mat

    def support_and_matrix(self):
        self._ensure_matrix()
        return self._support, self._matrix

    def at(self, t: float) -> SpectralField:
        """Barycentric evaluation at any t in [0, horizon]."""
        support, mat = self.support_and_matrix()
        coeffs = barycentric_coeffs(self.nodes, t)
        c = coeffs @ mat
        keep = c != 0
        return SpectralField(self.lattice, support[keep], c[keep])

    def rows_at(self, times: np.ndarray):
        """Support plus a (len(times) x nnz) matrix of interpolated values."""
        support, mat = self.support_and_matrix()
        return support, barycentric_coeffs(self.nodes, times) @ mat

    def sup_l1(self) -> float:
        return max((f.l1() for f in self.fields), default=0.0)

    def sup_distance(self, other: "Trajectory") -> float:
        """Sup over nodes of the l1 distance between node fields."""
        if self.nodes.size != other.nodes.size:
            raise LatticeMismatchError("trajectory node grids differ")
        return max(
            (a - b).l1() for a, b in zip(self.fields, other.fields)
        )

    def __add__(self, other: "Trajectory") -> "Trajectory":
        if self.lattice != other.lattice:
            raise LatticeMismatchError("trajectory lattices differ")
        if abs(self.horizon - other.horizon) > 1e-15 * max(self.horizon, 1e-300):
            raise LatticeMismatchError("trajectory horizons differ")
        return Trajectory(
            self.lattice,
            self.horizon,
            self.nodes,
            [a + b for a, b in zip(self.fields, other.fields)],
        )

    def scale(self, a) -> "Trajectory":
        return Trajectory(self.lattice, self.horizon, self.nodes,
                          [f.scale(a) for f in self.fields])

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(f.is_hermitian(tol) for f in self.fields)

    def to_json(self) -> str:
        return json.dumps({
            "horizon": self.horizon,
            "nodes": [float(t) for t in self.nodes],
            "fields": [json.loads(f.to_json()) for f in self.fields],
        })

    @classmethod
    def from_json(cls, text: str) -> "Trajectory":
        """Inverse of to_json, exact to the bit; the lattice is read from
        the field documents."""
        doc = json.loads(text)
        fields = [SpectralField.from_doc(f) for f in doc["fields"]]
        return cls(fields[0].lattice, doc["horizon"],
                   np.array(doc["nodes"], dtype=float), fields)

    @classmethod
    def zero(cls, lattice: FrequencyLattice, horizon: float,
             degree: int = DEFAULT_DEGREE) -> "Trajectory":
        nodes = chebyshev_nodes(degree, horizon)
        z = SpectralField.zero(lattice)
        return cls(lattice, horizon, nodes, [z] * nodes.size)


def linear_flow(pair: InitialPair, horizon: float,
                degree: int = DEFAULT_DEGREE) -> Trajectory:
    """Free evolution cos(t*lam) u0 + (sin(t*lam)/lam) u1 at all nodes."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    lattice = pair.lattice
    nodes = chebyshev_nodes(degree, horizon)
    if pair.u0.nnz == 0 and pair.u1.nnz == 0:
        return Trajectory.zero(lattice, horizon, degree)
    support = np.unique(np.concatenate([pair.u0.xi, pair.u1.xi]))
    lam = lambda_symbol(support, lattice)
    c0 = np.zeros(support.size, dtype=np.complex128)
    c1 = np.zeros(support.size, dtype=np.complex128)
    if pair.u0.nnz:
        c0[np.searchsorted(support, pair.u0.xi)] = pair.u0.c
    if pair.u1.nnz:
        c1[np.searchsorted(support, pair.u1.xi)] = pair.u1.c
    fields = []
    for t in nodes:
        c = np.cos(t * lam) * c0 + sin_over_lambda(t, lam) * c1
        keep = c != 0
        fields.append(SpectralField(lattice, support[keep], c[keep]))
    return Trajectory(lattice, horizon, nodes, fields)


def _check_args(args):
    if not args:
        raise ValueError("duhamel needs at least one trajectory")
    first = args[0]
    for a in args[1:]:
        if a.lattice != first.lattice:
            raise LatticeMismatchError("duhamel arguments on different lattices")
        if abs(a.horizon - first.horizon) > 1e-15 * max(first.horizon, 1e-300):
            raise LatticeMismatchError("duhamel arguments with different horizons")


# Most cells per time the batched fold will allocate; supports whose
# smallest fold grid is larger (e.g. cubes around astronomically large
# frequencies that no two-scale split packs) take the sparse per-time path
# instead.
_DENSE_FOLD_CAP = 1 << 23


def duhamel(args: list, t_eval: float, quad_degree: int = DEFAULT_DEGREE,
            prune: float = PRUNE_REL) -> SpectralField:
    """Multilinear Duhamel integral of k trajectories at time t_eval.

    The k-fold product is formed at the quad_degree + 1 Clenshaw-Curtis
    nodes on [0, t_eval] (see _product_at), then integrated against the
    sine kernel (see _integrate).
    """
    _check_args(args)
    lattice = args[0].lattice
    if t_eval < 0 or t_eval > args[0].horizon * (1 + 1e-12):
        raise ValueError("t_eval outside [0, horizon]")
    if t_eval == 0.0:
        return SpectralField.zero(lattice)
    taus = chebyshev_nodes(quad_degree, t_eval)
    xi, values = _product_at(args, taus, taus.size, prune)
    return _integrate(lattice, len(args), xi, values, t_eval, quad_degree, prune)


def duhamel_trajectory(args: list, quad_degree: int = DEFAULT_DEGREE,
                       prune: float = PRUNE_REL) -> Trajectory:
    """Duhamel integral evaluated at every node of the first argument's grid.

    The k-fold product is formed once, on the Chebyshev-Lobatto grid of
    degree D = sum of the argument degrees on [0, T].  Each argument is a
    polynomial in time of its own degree, so the product is one of degree
    D, and interpolating it from that grid to the quadrature nodes of each
    output node is exact: every node gets the integral duhamel(args, t)
    would give, from one product instead of one per node.
    """
    _check_args(args)
    base = args[0]
    degree = sum(a.degree for a in args)
    # half as many times per transform as a single-time fold takes, so that
    # the product on the whole grid and one batch's transforms together
    # stay near the memory of one single-time fold
    xi, values = _product_at(args, chebyshev_nodes(degree, base.horizon),
                             max(1, (quad_degree + 1) // 2), prune)
    interp = _product_interpolation(base.degree, degree, quad_degree)
    fields = [
        _integrate(base.lattice, len(args), xi, mat @ values, float(t), quad_degree, prune)
        for t, mat in zip(base.nodes, interp)
    ]
    return Trajectory(base.lattice, base.horizon, base.nodes, fields)


@lru_cache(maxsize=None)
def _product_interpolation(node_degree: int, degree: int,
                           quad_degree: int) -> np.ndarray:
    """Barycentric rows from the degree-D product grid to the quadrature
    nodes of every output node, shape (nodes, quad nodes, grid nodes).

    Nodes, grid and quadrature all scale with the horizon, so the matrices
    are computed on [0, 1].  Cached and frozen per degree triple.
    """
    taus = chebyshev_nodes(quad_degree, chebyshev_nodes(node_degree, 1.0)[:, None])
    mats = barycentric_coeffs(chebyshev_nodes(degree, 1.0), taus)
    mats.setflags(write=False)
    return mats


def _integrate(lattice, k, xi, values, t_eval, quad_degree, prune) -> SpectralField:
    """Clenshaw-Curtis sum over [0, t_eval] of sin((t_eval-tau) lam) lam
    times the product values at the quadrature nodes, one row per node."""
    if xi.size == 0 or t_eval == 0.0:
        return SpectralField.zero(lattice)
    taus = chebyshev_nodes(quad_degree, t_eval)
    weights = clenshaw_curtis_weights(quad_degree) * (t_eval / 2.0)
    lam = lambda_symbol(xi, lattice)
    kernel = np.sin(np.outer(t_eval - taus, lam)) * lam[None, :]
    out = np.einsum("q,qm,qm->m", weights, kernel, values)
    if lattice.weight != 1.0:
        out = out * lattice.weight ** (k - 1)
    xi, out = _prune_arrays(xi, out, prune)
    keep = out != 0
    xi, out = xi[keep], out[keep]
    if xi.size:
        worst = int(xi[np.argmax(np.abs(xi))])
        if abs(worst) > lattice.cutoff:
            from .errors import CutoffOverflowError

            raise CutoffOverflowError(worst, lattice.cutoff)
    return SpectralField(lattice, xi, out)


def _product_at(args, times, batch, prune):
    """The k-fold product of the arguments at the given times.

    Returns (xi, values): the frequencies where the product is nonzero at
    some time and a (times x xi) matrix, each time pruned at prune times
    its largest coefficient.  It is built by one FFT
    convolution on a grid of cells xi = m*B + r (see _fold_layout), at
    most batch times per transform: a single row (the 1-D bounding box)
    for supports without wide gaps, a dense (m, r) grid for supports made
    of clusters spaced B apart.  Supports whose grid would exceed the
    dense cap fall back to per-time sparse convolutions.
    """
    rows = [traj.rows_at(times) for traj in args]
    if any(sup.size == 0 for sup, _ in rows):
        return np.empty(0, np.int64), np.empty((times.size, 0), np.complex128)
    layout = _fold_layout([sup for sup, _ in rows])
    if layout is None:
        return _product_sparse(rows, prune)
    return _product_grid(rows, layout, batch, prune)


def _fold_layout(sups):
    """Grid for the product fold, or None when none fits the dense cap.

    Returns (B, parts, (rows, cols)) with one (m, col, r0) per support:
    the support is xi = m*B + r0 + col, with row m and column col counted
    from zero, and rows x cols is the shape of the linear convolution.
    The two-scale grid of _cluster_split is used only when its padded
    transform is smaller than the padded 1-D box.  A support at least half
    full has no gaps that a split could remove, so when every support is,
    the 1-D box is taken without looking for clusters.
    """
    box = _box_layout(sups)
    box_cells = box[2][1]
    fits = box_cells <= _DENSE_FOLD_CAP
    if all(2 * sup.size > int(sup[-1]) - int(sup[0]) for sup in sups):
        return box if fits else None
    split = _cluster_split(sups)
    if split is not None:
        n_rows, n_cols = split[2]
        padded = _next_pow2(n_rows) * _next_pow2(n_cols)
        if n_rows * n_cols <= _DENSE_FOLD_CAP and (not fits or padded < _next_pow2(box_cells)):
            return split
    return box if fits else None


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
    most batch times, one transform each.  Each time's product is pruned
    at prune times its largest coefficient, and only the cells nonzero at
    some time are returned.
    """
    base, parts, (n_rows, n_cols) = layout
    n_times = rows[0][1].shape[0]
    width = base if base and n_cols > base else n_cols
    folds = -(-n_cols // width)
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
    grids = np.zeros((len(rows), out.shape[0], _next_pow2(n_rows), _next_pow2(n_cols)),
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
    # drop each time's rounding dust, as the sparse fold does: interpolated
    # to an early output node, the dust of the late times would outgrow the
    # small product there and fill the gaps of its support
    mags = np.abs(out)
    out[mags < prune * np.max(mags, axis=(1, 2), keepdims=True)] = 0


def _product_sparse(rows, prune):
    """Per-time sparse fold for supports whose fold grid exceeds the cap."""
    from .lattice import _convolve_arrays

    pieces = []
    for q in range(rows[0][1].shape[0]):
        xi, c = rows[0][0], rows[0][1][q]
        keep = c != 0
        xi, c = xi[keep], c[keep]
        for sup, mat in rows[1:]:
            cq = mat[q]
            keep = cq != 0
            if xi.size == 0 or not np.any(keep):
                xi, c = np.empty(0, np.int64), np.empty(0, np.complex128)
                break
            xi, c = _convolve_arrays(xi, c, sup[keep], cq[keep])
            xi, c = _prune_arrays(xi, c, prune)
        pieces.append((xi, c))
    support = np.unique(np.concatenate([xi for xi, _ in pieces]))
    values = np.zeros((len(pieces), support.size), dtype=np.complex128)
    for row, (xi, c) in zip(values, pieces):
        row[np.searchsorted(support, xi)] = c
    return support, values
