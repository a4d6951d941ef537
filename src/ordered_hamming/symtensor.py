"""Symmetrized Kronecker sums.

The workhorse is `lifted_sum` (written L_op elsewhere in the docs): given
matrices v_1..v_k with multiplicities i_1..i_k summing to n, it returns the
sum over all distinct arrangements of the n-fold Kronecker product, one
term per arrangement. Enumerating arrangements directly avoids both the
n!-term symmetrizer average and any rational division.

`lifted_sum` is the only symmetric-tensor builder: the symmetric product of
two lifted sums is one `lifted_sum` over the combined multiset of factors,
so no coordinate permutation is ever applied to a built matrix.
"""

from __future__ import annotations

import math
from typing import Sequence

from .exact_linalg import DimensionMismatch, EmptyInput, RatMatrix, kron_all, mat_sum


def multinomial(multiplicities: Sequence[int]) -> int:
    n = sum(multiplicities)
    out = math.factorial(n)
    for c in multiplicities:
        out //= math.factorial(c)
    return out


def multiset_arrangements(multiplicities: Sequence[int]) -> list[tuple[int, ...]]:
    """All distinct index sequences with the given multiplicities, in lex order."""
    counts = list(multiplicities)
    if any(c < 0 for c in counts):
        raise ValueError("multiplicities must be non-negative")
    n = sum(counts)
    if n < 1:
        raise EmptyInput("arrangements need total multiplicity at least 1")
    out: list[tuple[int, ...]] = []
    seq: list[int] = []

    def extend():
        if len(seq) == n:
            out.append(tuple(seq))
            return
        for idx, c in enumerate(counts):
            if c:
                counts[idx] -= 1
                seq.append(idx)
                extend()
                seq.pop()
                counts[idx] += 1

    extend()
    return out


def lifted_sum(parts: Sequence[tuple[RatMatrix, int]]) -> RatMatrix:
    """Sum of Kronecker products over all arrangements of the given parts.

    Parts with multiplicity zero are dropped before enumeration.
    """
    kept = [(m, c) for m, c in parts if c]
    if not kept:
        raise EmptyInput("total multiplicity must be at least 1")
    side = kept[0][0].nrows
    for m, _ in kept:
        if m.nrows != m.ncols or m.nrows != side:
            raise DimensionMismatch("all factors must be square with one common side")
    mats = [m for m, _ in kept]
    counts = [c for _, c in kept]
    return mat_sum(
        kron_all([mats[i] for i in arrangement])
        for arrangement in multiset_arrangements(counts)
    )
