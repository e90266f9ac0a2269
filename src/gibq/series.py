"""Picard power-series terms, per-tree terms, partial sums and fixed point.

The generation-j term is computed through the composition recursion

    term(0) = linear flow,
    term(j) = sum over j1+...+jk = j-1 of duhamel(term(j1), ..., term(jk)),

with lower generations memoized, which costs O(J^(k-1)) Duhamel calls
instead of the Fuss-Catalan number of per-tree evaluations.  The per-tree
path (tree_term) exists for cross-validation of the identity
sum over generation-j trees of the tree terms == term(j).
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field

from .errors import DivergenceError
from .flow import (
    DEFAULT_DEGREE,
    InitialPair,
    Trajectory,
    duhamel_sum,
    duhamel_trajectory,
    linear_flow,
)
from .trees import compositions, is_terminal

FIXED_POINT_MAX_ITER = 64

# Sup-l1 tolerance of the fixed-point solves of run_inflation and gibq solve.
FIXED_POINT_TOL = 1e-9

# Distances at most this multiple of eps * sup l1 are rounding noise: the
# iteration has converged even if the absolute tol lies below them.
_ROUNDING_FLOOR = 64 * sys.float_info.epsilon


@dataclass
class SeriesTerm:
    generation: int
    trajectory: Trajectory
    degree: int  # multilinearity degree (k-1)*j + 1


@dataclass
class SeriesAccumulator:
    terms: list            # SeriesTerm for j = 0..J
    partial: Trajectory    # running sum of the term trajectories
    ledger: list = field(default_factory=list)  # per-j sup-in-time l1 norms

    def ratios(self) -> list:
        """Successive ledger ratios; the contraction diagnostic."""
        out = []
        for a, b in zip(self.ledger[1:], self.ledger[:-1]):
            out.append(a / b if b > 0 else float("inf"))
        return out


def xi_terms(pair: InitialPair, k: int, max_gen: int, horizon: float,
             degree: int = DEFAULT_DEGREE) -> list:
    """Trajectories of the series terms for generations 0..max_gen."""
    if k < 2:
        raise ValueError("arity must be >= 2")
    if max_gen < 0:
        raise ValueError("max generation must be >= 0")
    terms = [linear_flow(pair, horizon, degree)]
    for j in range(1, max_gen + 1):
        # products commute, so symmetric compositions share one fold
        groups = Counter(tuple(sorted(c)) for c in compositions(j - 1, k))
        terms.append(duhamel_sum(
            [(groups[rep], [terms[ji] for ji in rep]) for rep in sorted(groups)], degree))
    return terms


def xi_term(pair: InitialPair, k: int, j: int, horizon: float,
            degree: int = DEFAULT_DEGREE) -> SeriesTerm:
    traj = xi_terms(pair, k, j, horizon, degree)[j]
    return SeriesTerm(generation=j, trajectory=traj, degree=(k - 1) * j + 1)


def tree_term(pair: InitialPair, tree: tuple, horizon: float,
              degree: int = DEFAULT_DEGREE) -> Trajectory:
    """Structural recursion: leaves become the linear flow, internal nodes
    become Duhamel integrals of their children."""
    base = linear_flow(pair, horizon, degree)

    def walk(node) -> Trajectory:
        if is_terminal(node):
            return base
        return duhamel_trajectory([walk(ch) for ch in node], degree)

    return walk(tree)


def partial_sum(pair: InitialPair, k: int, max_gen: int, horizon: float,
                degree: int = DEFAULT_DEGREE) -> SeriesAccumulator:
    """Accumulate terms up to max_gen with the convergence ledger filled."""
    trajectories = xi_terms(pair, k, max_gen, horizon, degree)
    terms = [
        SeriesTerm(j, traj, (k - 1) * j + 1)
        for j, traj in enumerate(trajectories)
    ]
    total = sum(trajectories[1:], trajectories[0])
    ledger = [traj.sup_l1() for traj in trajectories]
    return SeriesAccumulator(terms=terms, partial=total, ledger=ledger)


def tail_residual(acc: SeriesAccumulator, pair: InitialPair, k: int,
                  degree: int = DEFAULT_DEGREE) -> float:
    """Sup-in-time l1 norm of U_J - [linear flow + duhamel(U_J,...,U_J)]."""
    u = acc.partial
    gamma = linear_flow(pair, u.horizon, u.degree) + duhamel_trajectory([u] * k, degree)
    return u.sup_distance(gamma)


def fixed_point(pair: InitialPair, k: int, horizon: float, tol: float,
                degree: int = DEFAULT_DEGREE,
                max_iter: int = FIXED_POINT_MAX_ITER) -> Trajectory:
    """Iterate u -> linear flow + duhamel(u,..,u) to a fixed point.

    Stops when the sup-l1 distance of two iterates is below tol or at the
    rounding floor of the fields' size, whichever is larger.  Requires the
    horizon to satisfy the contraction condition for the data size;
    expansion over three consecutive iterations raises DivergenceError
    carrying the measured contraction factor.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    base = linear_flow(pair, horizon, degree)
    if pair.u0.nnz == 0 and pair.u1.nnz == 0:
        return base
    current = base
    distances = []
    for _ in range(max_iter):
        nxt = base + duhamel_trajectory([current] * k, degree)
        dist = nxt.sup_distance(current)
        distances.append(dist)
        if dist < tol or dist <= _ROUNDING_FLOOR * nxt.sup_l1():
            return nxt
        if len(distances) >= 4 and all(
            distances[-i] > distances[-i - 1] for i in (1, 2, 3)
        ):
            factor = distances[-1] / distances[-4]
            raise DivergenceError(
                "fixed-point iteration expanding; measured growth over the "
                f"last three steps {factor:.3g}",
                factor ** (1.0 / 3.0),
            )
        current = nxt
    raise DivergenceError(
        f"no convergence below tol={tol:g} within {max_iter} iterations "
        f"(last distance {distances[-1]:.3g})",
        float("nan"),
    )
