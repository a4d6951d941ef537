"""Ordered Hamming scheme built from first principles.

Points of X^n are n blocks of mixed-radix coordinates; the relation of a
pair (x, y) is the shape of x - y, taken blockwise mod q_j. Adjacency
matrices here come straight from that definition, with no spectral input,
so they can serve as an independent cross-check for the lifted
constructions elsewhere.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import chain, product
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .exact_linalg import Orbitals, RatMatrix

if TYPE_CHECKING:
    from .terwilliger import Instance

DEFAULT_MAX_POINTS = 256

Shape = tuple[int, ...]


class SizeBound(ValueError):
    """|X^n| exceeds the configured bound for matrix-producing operations."""


# a NamedTuple may not define __new__, so the checks live on the subclass below
class _SchemeFields(NamedTuple):
    q: tuple[int, ...]
    n: int


class SchemeParams(_SchemeFields):
    """Alphabet sizes q_1..q_m (each >= 2) and word length n >= 1."""

    __slots__ = ()

    def __new__(cls, q, n):
        q = tuple(int(x) for x in q)
        if not q:
            raise ValueError("need at least one alphabet")
        if any(x < 2 for x in q):
            raise ValueError("alphabet sizes must be at least 2")
        if n < 1:
            raise ValueError("word length must be at least 1")
        return super().__new__(cls, q, n)

    @property
    def m(self) -> int:
        return len(self.q)

    @property
    def base_size(self) -> int:
        return math.prod(self.q)

    @property
    def num_points(self) -> int:
        return self.base_size**self.n

    @property
    def class_count(self) -> int:
        return math.comb(self.m + self.n, self.n)

    def reversed(self) -> SchemeParams:
        return SchemeParams(tuple(reversed(self.q)), self.n)

    def label(self) -> str:
        return f"X({self.m},{self.n};{','.join(map(str, self.q))})"


def require_within_bound(params: SchemeParams, max_points: int | None) -> None:
    bound = DEFAULT_MAX_POINTS if max_points is None else max_points
    if params.num_points > bound:
        raise SizeBound(
            f"{params.label()} has {params.num_points} points, over the bound "
            f"{bound}; raise --max-points to allow it"
        )


@lru_cache(maxsize=None)
def compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """All tuples of `parts` non-negative integers summing to `total`.

    Ordered lexicographically decreasing, so (total, 0, ..., 0) comes first.
    """
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_shapes(params: SchemeParams) -> list[Shape]:
    """All shapes of points in X^n; count is C(m+n, n)."""
    return list(compositions(params.n, params.m + 1))


def block_sums(table: Sequence[Sequence[int]], n: int) -> Iterable[Sequence[int]]:
    """The rows of the n-fold Kronecker sum of a square table over pairs of blocks.

    Entry (x, y), for points of n blocks (the first slowest), is the sum over
    b of table[x_b][y_b]. A row at depth n is a row at depth n - 1 plus each
    row of the table, so one row per depth is held at a time.
    """
    rows: Iterable[Sequence[int]] = table
    for _ in range(n - 1):
        rows = ([s + t for s in row for t in last] for row in rows for last in table)
    return rows


def pair_shapes(params: SchemeParams) -> list[Shape]:
    """The shape of x - y for every pair of points, row-major.

    Entry j of the shape counts the blocks whose last differing coordinate
    is j (0 where the blocks agree). With (n + 1)**j for that j in a table
    over pairs of blocks, the shape read in base n + 1 is the pair's
    `block_sums` entry. Equal shapes are one tuple object, so the N^2
    entries hold only pointers.
    """
    base = params.n + 1
    blocks = list(product(*(range(qj) for qj in params.q)))

    def last_differing(a: tuple[int, ...], b: tuple[int, ...]) -> int:
        return max((j for j, (u, v) in enumerate(zip(a, b), 1) if u != v), default=0)

    digit = [[base ** last_differing(a, b) for b in blocks] for a in blocks]
    shared = {sum(c * base**j for j, c in enumerate(lam)): lam for lam in enumerate_shapes(params)}
    return [shared[s] for row in block_sums(digit, params.n) for s in row]


def relation_matrix(lam: Shape, sweep: Sequence[Shape]) -> RatMatrix:
    """0/1 matrix of the relation `lam`, read from the `pair_shapes` sweep."""
    npts = math.isqrt(len(sweep))
    flags = [int(s == lam) for s in sweep]
    return RatMatrix(flags[i : i + npts] for i in range(0, len(flags), npts))


def triple_orbitals(sweep: Sequence[Shape]) -> Orbitals:
    """Orbitals of one-block points, keyed by (shape(0 - x), shape(0 - y), shape(x - y)).

    The points are the leaves of a tree with q_j children per node at level j,
    and shape(x - y) is the level at which x and y part. G1, generated by the
    swaps of two children of a node (not the child on the path of 0), fixes 0
    and keeps every shape, so each triple class is a union of orbitals. G1 is
    the whole stabilizer of leaf 0 among the tree's automorphisms, transitive
    on the leaf pairs with one triple of levels by induction on m.
    """
    npts = math.isqrt(len(sweep))  # row 0 of the `pair_shapes` sweep is shape(0 - x)
    return Orbitals(npts, zip(product(sweep[:npts], repeat=2), sweep))


def multiset_orbitals(base: Orbitals, n: int) -> Orbitals:
    """Orbitals of n-block points, keyed by the multiset of `base` orbitals of their block pairs.

    The stabilizer of 0 is G1 wr S_n: a block permutation, which keeps the
    shape as it counts blocks, and one depth-one element per block. Pairs
    with equal multisets are related by such an element, so the keys are
    its orbitals. The key sum_b (n + 1)**label(x_b, y_b) is exact, as no
    label occurs n + 1 times, and streams from `block_sums` (no N^2 list).
    """
    side, weight = base.side, [(n + 1) ** label for label in base.labels]
    table = [weight[x * side : (x + 1) * side] for x in range(side)]
    return Orbitals(side**n, chain.from_iterable(block_sums(table, n)))


def intersection_counts(sweep: Sequence[Shape]) -> dict[Shape, Counter] | None:
    """p^k_ij as {k: Counter({(i, j): p})}, counted from the `pair_shapes` sweep.

    Entry (x, y) of A_i A_j is #{z : sweep[x, z] = i, sweep[z, y] = j}. With
    the C relations labelled 0..C-1, counting C * row x + column y gives that
    entry for every pair of labels at once. Relation k keeps the counts of
    its first pair in row-major order; None if any other pair of k counts
    differently, since then p^k_ij is not defined.
    """
    npts = math.isqrt(len(sweep))
    shapes = list(dict.fromkeys(sweep))
    label = {lam: a for a, lam in enumerate(shapes)}
    c = len(shapes)
    rows = [[label[lam] for lam in sweep[x * npts : (x + 1) * npts]] for x in range(npts)]
    cols = list(zip(*rows))
    first: dict[int, Counter] = {}
    for row in rows:
        scaled = [c * a for a in row]
        for k, col in zip(row, cols):
            counts = Counter([a + b for a, b in zip(scaled, col)])
            if first.setdefault(k, counts) != counts:
                return None
    pairs = [(i, j) for i in shapes for j in shapes]
    return {shapes[k]: Counter({pairs[ij]: p for ij, p in cnt.items()}) for k, cnt in first.items()}


def verify_axioms(inst: Instance) -> dict[str, bool | None]:
    """Check the five association-scheme axioms on every pair of the sweep.

    R5 is None (vacuous) when R4 fails, as the p^k_ij are then undefined.
    """
    sweep = inst.pair_shapes
    shapes = inst.shapes
    npts = inst.params.num_points
    counts = inst.intersection_counts
    transposed = [s for y in range(npts) for s in sweep[y::npts]]
    return {
        "R1_diagonal_relation": all(
            (lam == shapes[0]) == (r % (npts + 1) == 0) for r, lam in enumerate(sweep)
        ),
        "R2_partition": set(sweep) <= set(shapes),
        "R3_symmetric": transposed == list(sweep),
        "R4_constants_well_defined": counts is not None,
        "R5_constants_commute": None
        if counts is None
        else all(c[i, j] == c[j, i] for c in counts.values() for i in shapes for j in shapes),
    }


def intersection_numbers(inst: Instance) -> dict[tuple[Shape, Shape, Shape], int] | None:
    """Table of p^k_{ij} over the relations that have a pair, or None if R4 fails."""
    counts = inst.intersection_counts
    if counts is None:
        return None
    shapes = inst.shapes
    return {
        (i, j, k): counts[k][i, j] for i in shapes for j in shapes for k in shapes if k in counts
    }


def intersection_table_json(table: dict[tuple[Shape, Shape, Shape], int]) -> list[dict]:
    return [
        {"i": list(i), "j": list(j), "k": list(k), "p": p}
        for (i, j, k), p in table.items()
    ]
