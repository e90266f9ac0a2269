"""Linear propagator and multilinear Duhamel operator on trajectories.

Time-dependent spectral data is stored at Chebyshev-Gauss-Lobatto nodes on
[0, T], as one (nodes x support) matrix over the frequencies nonzero at
some node, and evaluated anywhere by barycentric interpolation, one
matrix product for any number of times.  Every time dependence produced
here is a finite combination of cos/sin with radian rates at most
(k-1)j+1 (the symbol is bounded by 1), so degree-16 nodes already give
spectral accuracy on the horizons this package uses.

The Duhamel operator computes, per output frequency xi,

    integral_0^t sin((t-t') lam(xi)) lam(xi) [u_1(t') ... u_k(t')]^(xi) dt'

by Clenshaw-Curtis quadrature, with the k-fold product formed at many
times at once by the fold engine of gibq.lattice (fold_product: one FFT
convolution on a grid of cells xi = m*B + r).  A whole trajectory forms
the product once, on the Chebyshev grid of degree D = sum of the argument
degrees: the product of the arguments' interpolants is a polynomial of
degree D in time, so interpolating it from that grid to the quadrature
nodes of every output node is exact.  The integral is linear in the
product, so duhamel_sum adds the scaled products of a series generation's
compositions on that grid and interpolates and integrates the sum once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LatticeMismatchError
from .lattice import (
    JSON_VERSION,
    PRUNE_REL,
    FrequencyLattice,
    SpectralField,
    check_json_doc,
    fold_product,
    lambda_symbol,
    sum_on_union,
)

DEFAULT_DEGREE = 16

_DOC_KEYS = frozenset({"version", "horizon", "nodes", "fields"})

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
    """SpectralField-valued function of time sampled at Chebyshev nodes.

    support lists, sorted, the frequencies that are nonzero at some node,
    and values is the (nodes x support) complex matrix of node values; a
    zero entry is a mode absent at that node.  Node i as a SpectralField
    is field(i).  Norms of node values sum each row's nonzero entries in
    increasing-xi order, as SpectralField does, so they round alike.
    """

    lattice: FrequencyLattice
    horizon: float
    nodes: np.ndarray
    support: np.ndarray
    values: np.ndarray

    @classmethod
    def from_rows(cls, lattice, horizon, nodes, support, values) -> "Trajectory":
        """Trajectory of a (nodes x support) matrix, without the columns
        that are zero at every node; the matrix is not copied when every
        column is kept."""
        live = np.any(values != 0, axis=0)
        if not live.all():
            support, values = support[live], values.compress(live, axis=1)
        return cls(lattice, horizon, nodes, support, values)

    @classmethod
    def from_fields(cls, lattice, horizon, nodes, fields) -> "Trajectory":
        """Trajectory of one SpectralField per node."""
        support = np.unique(np.concatenate([f.xi for f in fields]))
        return cls(lattice, horizon, nodes, support,
                   np.stack([_scatter(support, f.xi, f.c) for f in fields]))

    @property
    def degree(self) -> int:
        return self.nodes.size - 1

    def field(self, i: int) -> SpectralField:
        """The value at node i."""
        row = self.values[i]
        keep = row != 0
        return SpectralField(self.lattice, self.support[keep], row[keep])

    @property
    def fields(self) -> list:
        """One SpectralField per node, built on each access."""
        return [self.field(i) for i in range(self.nodes.size)]

    def support_and_matrix(self):
        return self.support, self.values

    def at(self, t: float) -> SpectralField:
        """Barycentric evaluation at any t in [0, horizon]."""
        c = _interpolate(barycentric_coeffs(self.nodes, t), self.values)
        keep = c != 0
        return SpectralField(self.lattice, self.support[keep], c[keep])

    def rows_at(self, times: np.ndarray):
        """Support plus a (len(times) x nnz) matrix of interpolated values."""
        return self.support, _interpolate(barycentric_coeffs(self.nodes, times), self.values)

    def sup_l1(self) -> float:
        return self._sup_row_l1(self.values)

    def sup_distance(self, other: "Trajectory") -> float:
        """Sup over nodes of the l1 distance between node values."""
        _, a, b = self._on_union(other)
        return self._sup_row_l1(a - b)

    def _sup_row_l1(self, values) -> float:
        mags = np.abs(values)
        return max(float(np.sum(m[m != 0])) for m in mags) * self.lattice.weight

    def _on_union(self, other: "Trajectory"):
        """The union support and both value matrices on it."""
        if self.lattice != other.lattice:
            raise LatticeMismatchError("trajectory lattices differ")
        if self.nodes.size != other.nodes.size:
            raise LatticeMismatchError("trajectory node grids differ")
        support = np.union1d(self.support, other.support)
        return (support, _scatter(support, self.support, self.values),
                _scatter(support, other.support, other.values))

    def __add__(self, other: "Trajectory") -> "Trajectory":
        if abs(self.horizon - other.horizon) > 1e-15 * max(self.horizon, 1e-300):
            raise LatticeMismatchError("trajectory horizons differ")
        support, a, b = self._on_union(other)
        return Trajectory.from_rows(self.lattice, self.horizon, self.nodes, support, a + b)

    def scale(self, a) -> "Trajectory":
        return Trajectory.from_rows(self.lattice, self.horizon, self.nodes,
                                    self.support, self.values * a)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(f.is_hermitian(tol) for f in self.fields)

    def to_json(self) -> str:
        return json.dumps({
            "version": JSON_VERSION,
            "horizon": self.horizon,
            "nodes": [float(t) for t in self.nodes],
            "fields": [json.loads(f.to_json()) for f in self.fields],
        })

    @classmethod
    def from_json(cls, text: str) -> "Trajectory":
        """Inverse of to_json, exact to the bit; the lattice is read from
        the field documents.  Raises ValueError for an unknown version or
        key."""
        doc = json.loads(text)
        check_json_doc(doc, _DOC_KEYS, "Trajectory")
        fields = [SpectralField.from_doc(f) for f in doc["fields"]]
        return cls.from_fields(fields[0].lattice, doc["horizon"],
                               np.array(doc["nodes"], dtype=float), fields)


def linear_flow(pair: InitialPair, horizon: float,
                degree: int = DEFAULT_DEGREE) -> Trajectory:
    """Free evolution cos(t*lam) u0 + (sin(t*lam)/lam) u1 at all nodes."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    lattice = pair.lattice
    nodes = chebyshev_nodes(degree, horizon)
    support = np.union1d(pair.u0.xi, pair.u1.xi)
    lam = lambda_symbol(support, lattice)
    c0, c1 = (_scatter(support, f.xi, f.c) for f in (pair.u0, pair.u1))
    t = nodes[:, None]
    # t * sinc(t*lam) is sin(t*lam)/lam, and t at lam = 0
    values = np.cos(t * lam) * c0 + t * stable_sinc(t * lam) * c1
    return Trajectory.from_rows(lattice, horizon, nodes, support, values)


def _scatter(support, xi, values):
    """values (one entry per xi in the last axis) on a support holding xi."""
    if xi.size == support.size:
        return values
    out = np.zeros(values.shape[:-1] + support.shape, dtype=np.complex128)
    out[..., np.searchsorted(support, xi)] = values
    return out


def _check_args(args):
    if not args:
        raise ValueError("duhamel needs at least one trajectory")
    first = args[0]
    for a in args[1:]:
        if a.lattice != first.lattice:
            raise LatticeMismatchError("duhamel arguments on different lattices")
        if abs(a.horizon - first.horizon) > 1e-15 * max(first.horizon, 1e-300):
            raise LatticeMismatchError("duhamel arguments with different horizons")


def duhamel(args: list, t_eval: float, quad_degree: int = DEFAULT_DEGREE,
            prune: float = PRUNE_REL) -> SpectralField:
    """Multilinear Duhamel integral of k trajectories at time t_eval.

    The k-fold product is formed at the quad_degree + 1 Clenshaw-Curtis
    nodes on [0, t_eval] by lattice.fold_product, then integrated against
    the sine kernel (see _integrate).
    """
    _check_args(args)
    lattice = args[0].lattice
    if t_eval < 0 or t_eval > args[0].horizon * (1 + 1e-12):
        raise ValueError("t_eval outside [0, horizon]")
    taus = chebyshev_nodes(quad_degree, t_eval)
    xi, values = fold_product([a.rows_at(taus) for a in args], taus.size, prune)
    if lattice.weight != 1.0:
        values *= lattice.weight ** (len(args) - 1)
    # the product is already at the quadrature nodes: identity interpolation
    out = _integrate(lattice, xi, np.array([t_eval]), values,
                     np.eye(taus.size)[None], quad_degree, prune)[0]
    keep = out != 0
    return SpectralField(lattice, xi[keep], out[keep])


def duhamel_trajectory(args: list, quad_degree: int = DEFAULT_DEGREE,
                       prune: float = PRUNE_REL) -> Trajectory:
    """Duhamel integral at every node of the first argument's grid."""
    return duhamel_sum([(1, args)], quad_degree, prune)


def duhamel_sum(groups: list, quad_degree: int = DEFAULT_DEGREE,
                prune: float = PRUNE_REL) -> Trajectory:
    """Sum over groups (count, args) of count times the Duhamel integral
    of args, at every node of the first argument of the first group; the
    products share the grid of the largest degree sum D of a group."""
    _check_args([a for _, args in groups for a in args])
    base = groups[0][1][0]
    degree = max(sum(a.degree for a in args) for _, args in groups)
    grid = chebyshev_nodes(degree, base.horizon)
    parts = []
    for count, args in groups:
        rows = {id(a): a.rows_at(grid) for a in args}  # a factor may recur
        # half as many times per transform as a single-time fold takes, so
        # that the product on the whole grid and one batch's transforms
        # together stay near the memory of one single-time fold
        xi, values = fold_product([rows[id(a)] for a in args],
                                  max(1, (quad_degree + 1) // 2), prune)
        factor = count * base.lattice.weight ** (len(args) - 1)
        if factor != 1.0:
            values *= factor
        parts.append((xi, values))
    xi, product = sum_on_union(parts)
    del rows, parts, values  # the kernel pass needs only the sum
    out = _integrate(base.lattice, xi, base.nodes, product,
                     _product_interpolation(base.degree, degree, quad_degree),
                     quad_degree, prune)
    return Trajectory.from_rows(base.lattice, base.horizon, base.nodes, xi, out)


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


def _interpolate(coeffs, values):
    """coeffs @ values for real coeffs, as one product on the float view."""
    return (coeffs @ np.ascontiguousarray(values).view(np.float64)).view(np.complex128)


def _integrate(lattice, xi, times, product, interp, quad_degree, prune):
    """The (times x xi) matrix of Clenshaw-Curtis sums over [0, t] of
    sin((t-tau) lam) lam times the product at the quadrature nodes tau,
    each row with the entries below prune times its largest set to zero.

    interp[i] maps the rows of product to the quadrature nodes of
    times[i].  The times go in batches whose quadrature rows together fit
    in the rows of product, so no array outgrows the product.
    """
    out = np.zeros((times.size, xi.size), dtype=np.complex128)
    # the kernel depends on xi through lam alone, which is even in xi and
    # 1.0 in float64 beyond |omega| ~ 1e8: one sine per distinct lam
    lam, inverse = np.unique(lambda_symbol(xi, lattice), return_inverse=True)
    spans = times[:, None] - chebyshev_nodes(quad_degree, times[:, None])  # t - tau
    weights = clenshaw_curtis_weights(quad_degree) * (times[:, None] / 2.0)
    batch = max(1, product.shape[0] // (quad_degree + 1))
    for lo in range(int(times[0] == 0.0), times.size, batch):  # zero on [0, 0]
        kernel = np.sin(spans[lo:lo + batch, :, None] * lam) * lam
        kernel *= weights[lo:lo + batch, :, None]
        values = _interpolate(interp[lo:lo + batch].reshape(-1, interp.shape[2]), product)
        values = values.reshape(kernel.shape[:2] + (xi.size,))
        values *= kernel[..., inverse]
        rows = np.sum(values, axis=1, out=out[lo:lo + batch])
        mags = np.abs(rows)
        rows[mags < prune * np.max(mags, axis=1, keepdims=True, initial=0.0)] = 0
    return out
