"""Ordered Hamming scheme built from first principles.

Points of X^n are n blocks of mixed-radix coordinates; the relation of a
pair (x, y) is the shape of x - y, taken blockwise mod q_j. The
`pair_shapes` sweep here comes straight from that definition, with no
spectral input, so it can serve as an independent cross-check for the
lifted constructions elsewhere.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, product
from operator import add, sub
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .exact_linalg import Orbitals

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
    is j (0 where the blocks agree). A table over pairs of blocks holds
    (n + 1)**j for that j, grown one coordinate at a time, the new one
    fastest; the shape read in base n + 1 is the pair's `block_sums` entry.
    Equal shapes are one tuple object, so the N^2 entries hold only pointers.
    """
    base = params.n + 1
    digit = [[1]]
    for j, qj in enumerate(params.q, 1):
        grown = []
        for row, u in product(digit, range(qj)):
            new = [base**j] * (len(row) * qj)  # the new coordinates differ: level j
            new[u::qj] = row  # they agree: the earlier digit stands
            grown.append(new)
        digit = grown
    shared = {sum(c * base**j for j, c in enumerate(lam)): lam for lam in enumerate_shapes(params)}
    return [shared[s] for row in block_sums(digit, params.n) for s in row]


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


def intersection_counts(
    sweep: Sequence[Shape], shapes: Sequence[Shape]
) -> dict[tuple[Shape, Shape, Shape], int] | None:
    """p^k_ij as {(i, j, k): p} over `shapes`, checked on the `pair_shapes` sweep.

    The relations are the orbitals of `Orbitals(N, sweep)`, labelled by first
    pair. R4, A_i A_j = sum_k p^k_ij A_k, is checked per pair (i, j) on every
    row x at once: row z of A_b is packed as sum_y [label(z, y) = b] 2**(w y),
    w = N.bit_length(), so row x of A_i A_j, the left list, is the sum of the
    rows z of A_j with label(x, z) = i; no entry (at most N) carries. p^k_ij
    is field y of left[x], (x, y) the first pair of relation k, and the right
    list sum_k p^k_ij A_k equals the left exactly when A_i A_j is constant on
    every relation. The relations partition the pairs, so the left lists of
    one i sum to |{z : label(x, z) = i}| * sum_y 2**(w y) in row x: if relation
    i holds at least N (c - 1) pairs, of c relations, its last list is that
    less the others, which saves at least the additions it costs. None at the
    first (i, j) whose lists differ; keys run over i, j, then the k with a pair.
    """
    npts = math.isqrt(len(sweep))
    relations = Orbitals(npts, sweep)
    label = {sweep[rep]: a for a, rep in enumerate(relations.reps)}
    c, w = relations.count, npts.bit_length()
    related = [[[] for _ in range(c)] for _ in range(npts)]  # [x][b]: z with label(x, z) = b
    for zs, r in zip(related, range(0, npts * npts, npts)):
        for z, b in enumerate(relations.labels[r : r + npts]):
            zs[b].append(z)
    bits = [1 << w * y for y in range(npts)]
    packed = [[sum(map(bits.__getitem__, zs[b])) for zs in related] for b in range(c)]
    at = [(x, w * y) for x, y in (divmod(rep, npts) for rep in relations.reps)]
    full, mask = sum(bits), (1 << w) - 1
    p = {}
    for i in range(c):
        sizes = [len(zs[i]) for zs in related]
        rest = [n * full for n in sizes] if sum(sizes) >= npts * (c - 1) else None
        for j in range(c):
            if rest is not None and j == c - 1:
                left = rest  # the others have been taken off
            else:
                left = [sum(map(packed[j].__getitem__, zs[i])) for zs in related]
                if rest is not None:
                    rest = list(map(sub, rest, left))
            right = [0] * npts
            for k, (x, shift) in enumerate(at):
                p[i, j, k] = n = left[x] >> shift & mask
                if n:
                    right = list(map(add, right, map(n.__mul__, packed[k])))
            if left != right:
                return None
    return {
        (i, j, k): p.get((label.get(i), label.get(j), label[k]), 0)
        for i, j, k in product(shapes, repeat=3)
        if k in label
    }


def verify_axioms(inst: Instance) -> dict[str, bool | None]:
    """Check the five association-scheme axioms on every pair of the sweep.

    R5 is None (vacuous) when R4 fails, as the p^k_ij are then undefined.
    """
    sweep = inst.pair_shapes
    shapes = inst.shapes
    npts = inst.params.num_points
    counts = inst.intersection_counts
    return {
        "R1_diagonal_relation": sweep.count(shapes[0]) == npts
        and sweep[:: npts + 1].count(shapes[0]) == npts,
        "R2_partition": set(sweep) <= set(shapes),
        "R3_symmetric": all(
            sweep[x * npts : (x + 1) * npts] == sweep[x::npts] for x in range(npts)
        ),
        "R4_constants_well_defined": counts is not None,
        "R5_constants_commute": None
        if counts is None
        else all(p == counts[j, i, k] for (i, j, k), p in counts.items()),
    }


def intersection_table_json(table: dict[tuple[Shape, Shape, Shape], int]) -> list[dict]:
    return [
        {"i": list(i), "j": list(j), "k": list(k), "p": p}
        for (i, j, k), p in table.items()
    ]
