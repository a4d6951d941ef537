"""Symmetrized Kronecker sums, in orbital coordinates.

The workhorse is `lifted_sum` (written L_op elsewhere in the docs): given
depth-one matrices v_1..v_k with multiplicities c_1..c_k summing to n, it
returns the sum over all distinct arrangements of the n-fold Kronecker
product, as L(c) = sum_{i: c_i > 0} v_i (x) L(c - e_i), with no n!-term
symmetrizer average and no rational division. Factors and sum are
`OrbitalMatrix` values: the depth-n orbitals are orbits of G_1 wr S_n, G_1
the depth-one group, so the sum is constant on them, and its entry at a
representative (x, z) is read from the depth-one orbitals of the block
pairs (x_b, z_b).
"""

from __future__ import annotations

import math
from functools import cache
from typing import Sequence

from .exact_linalg import DimensionMismatch, EmptyInput, OrbitalMatrix, Orbitals


def multinomial(multiplicities: Sequence[int]) -> int:
    n = sum(multiplicities)
    out = math.factorial(n)
    for c in multiplicities:
        out //= math.factorial(c)
    return out


def lifted_sum(parts: Sequence, orbitals: Orbitals, blocks: Sequence) -> OrbitalMatrix:
    """Sum of Kronecker products over all arrangements of the (OrbitalMatrix, count) parts.

    blocks[o] holds the depth-one orbitals of the n block pairs of orbital
    o's representative, first block first. Zero counts are dropped, and a
    lone factor of count one on `orbitals` is returned as it is. Entries are
    over prod den_i^c_i; the first-factor recursion is memoized on the
    remaining counts and block labels, and skips factors zero on the next.
    """
    kept = [(m, c) for m, c in parts if c]
    if not kept:
        raise EmptyInput("total multiplicity must be at least 1")
    mats, counts = zip(*kept)
    if any(m.orbitals is not mats[0].orbitals for m in mats) or len(blocks[0]) != sum(counts):
        raise DimensionMismatch("the parts need one set of orbitals and one block per factor")
    if counts == (1,) and mats[0].orbitals is orbitals:
        return mats[0]
    vecs = [m.vec for m in mats]

    @cache
    def lift(rest: tuple[int, ...], labels: tuple[int, ...]) -> int:
        head = labels[0]
        if len(labels) == 1:
            return vecs[rest.index(1)][head]
        return sum(
            vecs[i][head] * lift(rest[:i] + (c - 1,) + rest[i + 1 :], labels[1:])
            for i, c in enumerate(rest)
            if c and vecs[i][head]
        )

    den = math.prod(m.den**c for m, c in kept)
    return OrbitalMatrix(orbitals, [lift(counts, b) for b in blocks], den)
