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
from itertools import product
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .exact_linalg import InternalMismatch, Orbitals, RatMatrix

if TYPE_CHECKING:
    from .terwilliger import Instance

DEFAULT_MAX_POINTS = 256

Shape = tuple[int, ...]
Point = tuple[tuple[int, ...], ...]


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


def iter_points(params: SchemeParams) -> list[Point]:
    """Every point of X^n in flat-index order (last coordinate fastest)."""
    blocks = [tuple(b) for b in product(*(range(qj) for qj in params.q))]
    return [tuple(p) for p in product(blocks, repeat=params.n)]


def pair_shapes(params: SchemeParams) -> list[Shape]:
    """The shape of x - y for every pair of points, row-major.

    Entry j of the shape counts the blocks whose last differing coordinate
    is j (0 where the blocks agree). One table over pairs of blocks holds
    (n + 1)**j for that j, so the shape of a pair, read in base n + 1, is a
    sum of n lookups. Equal shapes are one tuple object, so the N^2 entries
    hold only pointers.
    """
    base = params.n + 1
    blocks = list(product(*(range(qj) for qj in params.q)))

    def last_differing(a: tuple[int, ...], b: tuple[int, ...]) -> int:
        return max((j for j, (u, v) in enumerate(zip(a, b), 1) if u != v), default=0)

    digit = [[base ** last_differing(a, b) for b in blocks] for a in blocks]
    shared = {sum(c * base**j for j, c in enumerate(lam)): lam for lam in enumerate_shapes(params)}
    pts = list(product(range(len(blocks)), repeat=params.n))
    return [shared[sum(digit[a][b] for a, b in zip(x, y))] for x in pts for y in pts]


def relation_matrix(lam: Shape, sweep: Sequence[Shape]) -> RatMatrix:
    """0/1 matrix of the relation `lam`, read from the `pair_shapes` sweep."""
    npts = math.isqrt(len(sweep))
    flags = [int(s == lam) for s in sweep]
    return RatMatrix(flags[i : i + npts] for i in range(0, len(flags), npts))


def _swap_values(block: tuple[int, ...], j: int, above: tuple[int, ...], a: int):
    """Swap the values a and a + 1 at coordinate j, if the coordinates above j are `above`."""
    if block[j + 1 :] == above and block[j] in (a, a + 1):
        return block[:j] + (2 * a + 1 - block[j],) + block[j + 1 :]
    return block


def stabilizer_maps(params: SchemeParams) -> list[tuple[int, ...]]:
    """Point permutations, as flat-index tuples, that fix 0 and keep every relation.

    - When n > 1, the transposition of blocks 0 and 1 and the n-cycle of
      blocks; the shape of x - y counts blocks, so their order is free.
    - In block 0, the triangular value swaps: at coordinate j, for one
      setting of the coordinates above j, swap the values a and a + 1 and
      leave the coordinates below j alone. A swap changes coordinate j
      only, by a bijection of its values that depends only on the
      coordinates above j, so two blocks keep the last coordinate at which
      they differ. When the setting above j is all zeros, a starts at 1,
      so the zero point stays put.

    They generate a group of scheme automorphisms fixing 0, so each
    commutes with every A_lam and E*_lam. `stabilizer_orbitals` checks
    each map before it uses them.
    """
    q = params.q
    pts = iter_points(params)
    index = {x: i for i, x in enumerate(pts)}

    def as_perm(move) -> tuple[int, ...]:
        return tuple(index[move(x)] for x in pts)

    maps = []
    if params.n > 1:
        maps.append(as_perm(lambda x: (x[1], x[0]) + x[2:]))
        if params.n > 2:  # for n = 2 the n-cycle is the transposition
            maps.append(as_perm(lambda x: x[1:] + x[:1]))
    for j in range(params.m):
        for above in product(*(range(qi) for qi in q[j + 1 :])):
            for a in range(0 if any(above) else 1, q[j] - 1):
                maps.append(as_perm(lambda x: (_swap_values(x[0], j, above, a),) + x[1:]))
    return maps


def stabilizer_orbitals(params: SchemeParams, sweep: Sequence[Shape]) -> Orbitals:
    """The orbitals on pairs of points of the group `stabilizer_maps` generates.

    Every map is checked on every point and pair before use: it must be a
    permutation of the points, fix the zero point, and keep the shape of x - y
    for all N^2 pairs, read from the `pair_shapes` sweep. A map that fails
    raises InternalMismatch.
    """
    npts = params.num_points
    maps = stabilizer_maps(params)
    for k, perm in enumerate(maps):
        if sorted(perm) != list(range(npts)):
            raise InternalMismatch(f"stabilizer map {k} is not a permutation of the points")
        if perm[0] != 0:
            raise InternalMismatch(f"stabilizer map {k} moves the zero point")
        for x, px in enumerate(perm):
            image = sweep[px * npts : (px + 1) * npts]
            if [image[py] for py in perm] != list(sweep[x * npts : (x + 1) * npts]):
                raise InternalMismatch(
                    f"stabilizer map {k} changes the shape of a difference from point {x}"
                )
    return Orbitals(npts, maps)


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
