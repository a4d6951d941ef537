"""Symmetrized Kronecker sums.

The workhorse is `lifted_sum` (written L_op elsewhere in the docs): given
matrices v_1..v_k with multiplicities c_1..c_k summing to n, it returns the
sum over all distinct arrangements of the n-fold Kronecker product. Grouping
the arrangements by their first factor, L(c) = sum_{i: c_i > 0} v_i (x)
L(c - e_i), avoids the n!-term symmetrizer average and any rational division.

`lifted_sum` is the only symmetric-tensor builder: the symmetric product of
two lifted sums is one `lifted_sum` over the combined multiset of factors,
so no coordinate permutation is ever applied to a built matrix.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Sequence

from .exact_linalg import DimensionMismatch, EmptyInput, RatMatrix, kron, mat_sum


def multinomial(multiplicities: Sequence[int]) -> int:
    n = sum(multiplicities)
    out = math.factorial(n)
    for c in multiplicities:
        out //= math.factorial(c)
    return out


def lifted_sum(parts: Sequence[tuple[RatMatrix, int]]) -> RatMatrix:
    """Sum of Kronecker products over all arrangements of the given parts.

    Parts with multiplicity zero are dropped first. The first-factor recursion
    is memoized on the remaining counts, so the work is one Kronecker product
    per nonzero count in each of at most prod(c_i + 1) count states; a state
    with one factor left, or a lone factor, is that factor. Without the memo
    the calls would walk the whole prefix tree of arrangements.
    """
    kept = [(m, c) for m, c in parts if c]
    if not kept:
        raise EmptyInput("total multiplicity must be at least 1")
    side = kept[0][0].nrows
    for m, _ in kept:
        if m.nrows != m.ncols or m.nrows != side:
            raise DimensionMismatch("all factors must be square with one common side")
    mats, counts = zip(*kept)
    if counts == (1,):
        return mats[0]

    @cache
    def lift(rest: tuple[int, ...]) -> RatMatrix:
        if sum(rest) == 1:
            return mats[rest.index(1)]
        return mat_sum(
            kron(mats[i], lift(rest[:i] + (c - 1,) + rest[i + 1 :]))
            for i, c in enumerate(rest)
            if c
        )

    return lift(counts)
