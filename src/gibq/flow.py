"""Linear propagator and multilinear Duhamel operator on trajectories.

Time-dependent spectral data is stored at Chebyshev-Gauss-Lobatto nodes on
[0, T], as one (nodes x support) matrix over the frequencies nonzero at
some node, and evaluated anywhere by barycentric interpolation, one
matrix product for any number of times.  Every time dependence produced
here is a finite combination of cos/sin with radian rates at most
(k-1)j+1 (the symbol is bounded by 1), so its Chebyshev coefficients decay
geometrically.  Trajectory.resolved_degree measures where they reach
rounding: the N = 2^40 series terms of generations 0..4 resolve at degrees
2, 4, 6, 8 and 10 of 16, those at N = 2^11 at 6, 8, 10, 11 and 13.

The Duhamel operator computes, per output frequency xi,

    integral_0^t sin((t-t') lam(xi)) lam(xi) [u_1(t') ... u_k(t')]^(xi) dt'

by Clenshaw-Curtis quadrature, with the k-fold product formed at many
times at once by the fold engine of gibq.lattice (fold_product: one FFT
convolution on a grid of cells xi = m*B + r).  A whole trajectory forms
the product once, on the Chebyshev grid of degree D = sum of the
arguments' resolved degrees: each argument is a polynomial of its
resolved degree up to rounding, so their product is one of degree D and
interpolating it from that grid to the quadrature nodes of every output
node is exact to rounding.  The integral is linear in the product, so
duhamel_sum adds the scaled products of a series generation's
compositions on that grid and interpolates and integrates the sum once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import LatticeMismatchError
from .lattice import (
    JSON_VERSION,
    PRUNE_REL,
    FrequencyLattice,
    SpectralField,
    check_fold_cap,
    check_json_doc,
    fold_product,
    lambda_symbol,
    sum_on_union,
)

DEFAULT_DEGREE = 16

_DOC_KEYS = frozenset({"version", "horizon", "nodes", "fields"})

# Chebyshev coefficients at most this multiple of a trajectory's largest
# coefficient are rounding: the chop of Trajectory.resolved_degree.  The
# rounding of node values puts up to about 10 eps there for polynomials of
# degree 16 with coefficients of one size; the series terms, whose
# coefficients decay, show about 1 eps.
_CHOP_REL = 16 * np.finfo(np.float64).eps


def stable_sinc(x):
    """sin(x)/x, and 1 at x = 0.  Near 0 the quotient suffers no
    cancellation (sin(x) = x(1 - x^2/6 + ...)), so it needs no series."""
    x = np.asarray(x, dtype=float)
    out = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
    return out if out.ndim else float(out)


def chebyshev_nodes(degree: int, horizon: float) -> np.ndarray:
    """Ascending Chebyshev-Gauss-Lobatto nodes on [0, horizon]."""
    i = np.arange(degree + 1)
    # degree 0 (a constant) has the single node t = 0
    return horizon / 2.0 * (1.0 - np.cos(math.pi * i / max(degree, 1)))


def check_node_degree(degree: int) -> None:
    """ValueError unless a solution's node grid reaches the horizon: the
    single node of degree 0 is t = 0, whose value is the initial data."""
    if degree < 1:
        raise ValueError(f"node degree must be >= 1, not {degree}")


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

    @cached_property
    def resolved_degree(self) -> int:
        """The smallest d such that every Chebyshev coefficient of degree
        above d, at every mode, is at most _CHOP_REL times the largest
        coefficient of the trajectory; the node degree when no smaller d
        does.

        The coefficients of all modes come from one DCT-I of the node
        values, a real FFT of their even extension along the node axis
        (Aurentz & Trefethen, "Chopping a Chebyshev series", 2017).
        Computed on first use; the values must not change after it.
        """
        if self.degree == 0:
            return 0
        x = np.ascontiguousarray(self.values).view(np.float64)
        coeffs = np.abs(np.fft.rfft(np.concatenate([x, x[-2:0:-1]]), axis=0))
        coeffs[[0, -1]] /= 2.0  # the end coefficients count their node once
        top = np.max(coeffs, axis=1, initial=0.0)
        above = np.flatnonzero(top > _CHOP_REL * np.max(top))
        return int(above[-1]) if above.size else 0

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
            "fields": [f.to_doc() for f in self.fields],
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
    check_node_degree(degree)
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


def duhamel(args: list, t_eval: float,
            quad_degree: int = DEFAULT_DEGREE) -> SpectralField:
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
    rows = {id(a): a.rows_at(taus) for a in args}  # a factor may recur
    xi, values = fold_product([rows[id(a)] for a in args], taus.size, PRUNE_REL)
    if lattice.weight != 1.0:
        values *= lattice.weight ** (len(args) - 1)
    # the product is already at the quadrature nodes: identity interpolation
    out = _integrate(lattice, xi, np.array([t_eval]), values,
                     np.eye(taus.size)[None], quad_degree)[0]
    keep = out != 0
    return SpectralField(lattice, xi[keep], out[keep])


def duhamel_trajectory(args: list, quad_degree: int = DEFAULT_DEGREE) -> Trajectory:
    """Duhamel integral at every node of the first argument's grid."""
    return duhamel_sum([(1, args)], quad_degree)


def duhamel_sum(groups: list, quad_degree: int = DEFAULT_DEGREE) -> Trajectory:
    """Sum over groups (count, args) of count times the Duhamel integral
    of args, at every node of the first argument of the first group; the
    products share the grid of the largest sum D of a group's resolved
    degrees."""
    _check_args([a for _, args in groups for a in args])
    base = groups[0][1][0]
    degree = max(sum(a.resolved_degree for a in args) for _, args in groups)
    grid = chebyshev_nodes(degree, base.horizon)
    parts = []
    for count, args in groups:
        rows = {id(a): a.rows_at(grid) for a in args}  # a factor may recur
        # half as many times per transform as a single-time fold takes, so
        # that the product on the whole grid and one batch's transforms
        # together stay near the memory of one single-time fold
        xi, values = fold_product([rows[id(a)] for a in args],
                                  max(1, (quad_degree + 1) // 2), PRUNE_REL)
        factor = count * base.lattice.weight ** (len(args) - 1)
        if factor != 1.0:
            values *= factor
        parts.append((xi, values))
    xi, product = sum_on_union(parts)
    del rows, parts, values  # the kernel pass needs only the sum
    out = _integrate(base.lattice, xi, base.nodes, product,
                     _product_interpolation(base.degree, degree, quad_degree),
                     quad_degree)
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


def _integrate(lattice, xi, times, product, interp, quad_degree):
    """The (times x xi) matrix of Clenshaw-Curtis sums over [0, t] of
    sin((t-tau) lam) lam times the product at the quadrature nodes tau,
    each row with the entries below PRUNE_REL times its largest set to zero.

    interp[i] maps the rows of product to the quadrature nodes of
    times[i].  The kernel depends on xi through lam alone, which is even
    in xi and 1.0 in float64 beyond |omega| ~ 1e8, so there is one sine
    per distinct lam: 17 to 51 lams for 403 to 3,895 frequencies in the
    N = 2^40 series, about one per |xi| at N = 2^11.  Each time takes one
    pass: its kernel (quadrature nodes x lams) is contracted with its
    interpolation rows into one weight per product row and lam, the
    weights are gathered to the frequencies, and the time's row is their
    sum over the product rows against the product's real and imaginary
    parts, read through its float view.  The gathered weights hold half
    the product's floats, so no array outgrows the larger of the product
    and the quadrature rows of one time.  CapacityError is raised, before
    any allocation, when the larger of the output and the quadrature rows
    of one time exceeds _FOLD_CAP cells.
    """
    check_fold_cap(max(times.size, quad_degree + 1) * xi.size, "the kernel pass")
    lam, inverse = np.unique(lambda_symbol(xi, lattice), return_inverse=True)
    spans = times[:, None] - chebyshev_nodes(quad_degree, times[:, None])  # t - tau
    weights = clenshaw_curtis_weights(quad_degree) * (times[:, None] / 2.0)
    parts = np.ascontiguousarray(product).view(np.float64)
    out = np.zeros((times.size, xi.size), dtype=np.complex128)
    sums = out.view(np.float64)
    for i in range(int(times[0] == 0.0), times.size):  # zero on [0, 0]
        kernel = np.sin(spans[i, :, None] * lam) * lam
        kernel *= weights[i, :, None]
        w = np.take(interp[i].T @ kernel, inverse, axis=1)
        np.einsum("gx,gx->x", w, parts[:, 0::2], out=sums[i, 0::2])
        np.einsum("gx,gx->x", w, parts[:, 1::2], out=sums[i, 1::2])
    mags = np.abs(out)
    out[mags < PRUNE_REL * np.max(mags, axis=1, keepdims=True, initial=0.0)] = 0
    return out
