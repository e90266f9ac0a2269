"""Ordered k-ary tree enumeration and counting.

A tree of generation j has j internal nodes, each with exactly k ordered
children, hence k*j+1 nodes total and (k-1)*j+1 leaves.  Generation counts
satisfy the convolution recursion

    count(j) = sum over j1+...+jk = j-1 of count(j1)*...*count(jk)

with count(0) = count(1) = 1, i.e. the Fuss-Catalan numbers.  Trees are
ordered structures: sibling order matters and no isomorphism quotient is
taken.  Counts use Python integers, so they never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapacityError

ENUMERATION_GUARD = 10**6

TERMINAL = ()  # a leaf is the empty tuple; internal nodes are k-tuples


def is_terminal(tree: tuple) -> bool:
    return tree == ()


def generation(tree: tuple) -> int:
    """Number of internal nodes."""
    if is_terminal(tree):
        return 0
    return 1 + sum(generation(ch) for ch in tree)


def node_count(tree: tuple) -> int:
    if is_terminal(tree):
        return 1
    return 1 + sum(node_count(ch) for ch in tree)


def terminal_count(tree: tuple) -> int:
    if is_terminal(tree):
        return 1
    return sum(terminal_count(ch) for ch in tree)


def compositions(total: int, parts: int):
    """All ordered tuples of `parts` non-negative ints summing to `total`.

    Lexicographic order, deterministic.
    """
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class TreeCountTable:
    arity: int
    counts: tuple  # counts[j] = number of generation-j trees, exact ints

    def __getitem__(self, j: int) -> int:
        return self.counts[j]


def count_trees(k: int, max_gen: int) -> TreeCountTable:
    """Exact generation counts for j = 0..max_gen via the recursion."""
    if k < 2:
        raise ValueError("arity must be >= 2")
    if max_gen < 0:
        raise ValueError("max generation must be >= 0")
    counts = [1]
    for j in range(1, max_gen + 1):
        total = 0
        for comp in compositions(j - 1, k):
            prod = 1
            for ji in comp:
                prod *= counts[ji]
            total += prod
        counts.append(total)
    return TreeCountTable(arity=k, counts=tuple(counts))


def fuss_catalan(k: int, j: int) -> int:
    """Closed form binom(k*j, j)/((k-1)*j + 1); independent count oracle."""
    return math.comb(k * j, j) // ((k - 1) * j + 1)


def enumerate_trees(k: int, j: int) -> list:
    """All generation-j trees with arity k, canonically ordered.

    Subtrees are shared between results, so memory stays near the number
    of distinct subtrees.  Guarded at ENUMERATION_GUARD trees.
    """
    if count_trees(k, j)[j] > ENUMERATION_GUARD:
        raise CapacityError(
            f"enumeration of {count_trees(k, j)[j]} trees exceeds guard "
            f"{ENUMERATION_GUARD}"
        )

    @lru_cache(maxsize=None)
    def build(gen: int) -> tuple:
        if gen == 0:
            return (TERMINAL,)
        out = []
        for comp in compositions(gen - 1, k):
            child_lists = [build(ji) for ji in comp]
            stack = [()]
            for lst in child_lists:
                stack = [partial + (t,) for partial in stack for t in lst]
            out.extend(tuple(s) for s in stack)
        return tuple(out)

    return list(build(j))


def verify_count_bound(k: int, max_gen: int):
    """Smallest C0 with count(j)*(1+j)^2 <= C0^j for 1 <= j <= max_gen.

    Returns (C0, holds) where holds[j] reports the per-generation check at
    that C0 (so holds is all-True by construction; it documents the data).
    """
    table = count_trees(k, max_gen)
    c0 = 1.0
    for j in range(1, max_gen + 1):
        c0 = max(c0, (table[j] * (1 + j) ** 2) ** (1.0 / j))
    holds = [table[j] * (1 + j) ** 2 <= c0**j * (1 + 1e-12) for j in range(max_gen + 1)]
    return c0, holds

