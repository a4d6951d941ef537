"""Ordered Hamming scheme built from first principles.

Points of X^n are n blocks of mixed-radix coordinates; the relation of a
pair (x, y) is the shape of x - y, taken blockwise mod q_j. Adjacency
matrices here come straight from that definition, with no spectral input,
so they can serve as an independent cross-check for the lifted
constructions elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Sequence

from .exact_linalg import InternalMismatch, Orbitals, RatMatrix, mat_sum

if TYPE_CHECKING:
    from .terwilliger import Instance

DEFAULT_MAX_POINTS = 256

Shape = tuple[int, ...]
Point = tuple[tuple[int, ...], ...]


class SizeBound(ValueError):
    """|X^n| exceeds the configured bound for matrix-producing operations."""


class AxiomViolation(ValueError):
    """A quantity that must be relation-constant is not."""


@dataclass(frozen=True)
class SchemeParams:
    """Alphabet sizes q_1..q_m (each >= 2) and word length n >= 1."""

    q: tuple[int, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(int(x) for x in self.q))
        if not self.q:
            raise ValueError("need at least one alphabet")
        if any(x < 2 for x in self.q):
            raise ValueError("alphabet sizes must be at least 2")
        if self.n < 1:
            raise ValueError("word length must be at least 1")

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


def point_sub(x: Point, y: Point, params: SchemeParams) -> Point:
    return tuple(
        tuple((a - b) % qj for a, b, qj in zip(bx, by, params.q))
        for bx, by in zip(x, y)
    )


def shape_of(x: Point, params: SchemeParams) -> Shape:
    """Shape of a point: entry j counts blocks whose last nonzero coordinate sits at j."""
    m = params.m
    lam = [0] * (m + 1)
    for block in x:
        last = 0
        for j in range(m, 0, -1):
            if block[j - 1] != 0:
                last = j
                break
        lam[last] += 1
    return tuple(lam)


def pair_shapes(params: SchemeParams) -> list[Shape]:
    """shape_of(x - y) for every pair of points, row-major.

    Equal shapes are one tuple object, so the N^2 entries hold only pointers.
    """
    pts = iter_points(params)
    shared = {lam: lam for lam in enumerate_shapes(params)}
    return [shared[shape_of(point_sub(x, y, params), params)] for x in pts for y in pts]


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
    permutation of the points, fix the zero point, and keep shape_of(x - y)
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


def _decompose_product(
    mats: dict[Shape, RatMatrix],
    samples: dict[Shape, tuple[int, int]],
    i: Shape,
    j: Shape,
) -> dict[Shape, int] | None:
    """Write A_i A_j as a relation-constant combination, or None if impossible.

    `samples[k]` is one pair in relation k; relations without a pair are left out.
    """
    prod = mats[i] * mats[j]
    coeffs: dict[Shape, int] = {}
    terms = []
    for k, sample in samples.items():
        p = prod[sample]
        if p.denominator != 1:
            return None
        coeffs[k] = int(p)
        if p:
            terms.append(mats[k].scale(p))
    recon = mat_sum(terms) if terms else RatMatrix.zeros(prod.nrows)
    if recon != prod:
        return None
    return coeffs


def decompose_products(
    mats: dict[Shape, RatMatrix],
) -> dict[tuple[Shape, Shape], dict[Shape, int] | None]:
    """Every ordered product A_i A_j as relation coefficients, None where impossible."""
    # sample the first pair in each relation, once for all products
    firsts = {k: ak.first_nonzero() for k, ak in mats.items()}
    samples = {k: pos for k, pos in firsts.items() if pos is not None}
    return {(i, j): _decompose_product(mats, samples, i, j) for i in mats for j in mats}


def verify_axioms(inst: Instance) -> dict[str, bool]:
    """Exhaustively check the five association-scheme axioms."""
    mats = inst.relations
    shapes = inst.shapes
    npts = inst.params.num_points
    diag = mats[shapes[0]] == RatMatrix.identity(npts)
    partition = mat_sum(mats.values()) == RatMatrix.ones(npts) and all(
        mats[lam].is_zero_one() for lam in shapes
    )
    symmetric = all(mats[lam].is_symmetric() for lam in shapes)
    tables = inst.products
    well_defined = None not in tables.values()
    commute = not well_defined or all(
        tables[(i, j)] == tables[(j, i)] for i in shapes for j in shapes
    )
    return {
        "R1_diagonal_relation": diag,
        "R2_partition": partition,
        "R3_symmetric": symmetric,
        "R4_constants_well_defined": well_defined,
        "R5_constants_commute": commute,
    }


def intersection_numbers(inst: Instance) -> dict[tuple[Shape, Shape, Shape], int]:
    """Table of p^k_{ij}, sampled per relation and verified against A_i A_j."""
    table: dict[tuple[Shape, Shape, Shape], int] = {}
    for (i, j), coeffs in inst.products.items():
        if coeffs is None:
            raise AxiomViolation(
                f"A_{i} A_{j} is not relation-constant on {inst.params.label()}"
            )
        for k, p in coeffs.items():
            table[(i, j, k)] = p
    return table


def intersection_table_json(table: dict[tuple[Shape, Shape, Shape], int]) -> list[dict]:
    return [
        {"i": list(i), "j": list(j), "k": list(k), "p": p}
        for (i, j, k), p in table.items()
    ]
