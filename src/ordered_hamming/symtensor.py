"""Symmetrized Kronecker sums, in orbital coordinates.

`lifted_family` takes depth-one matrices v_1..v_k to every lifted sum L(c),
c summing to n: the sum of the n-fold Kronecker products over all distinct
arrangements with v_i taken c_i times. The depth-n orbitals are orbits of
G_1 wr S_n, G_1 the depth-one group, so each L(c) is an `OrbitalMatrix`.
At a representative with block labels l_1..l_n, L(c) is the coefficient of
t^c in the one product prod_b (sum_i t_i v_i[l_b]), so one expansion per
orbital gives every c, with no symmetrizer average and no division.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import cache
from typing import Sequence

from .exact_linalg import DimensionMismatch, EmptyInput, OrbitalMatrix, Orbitals


def multinomial(multiplicities: Sequence[int]) -> int:
    n = sum(multiplicities)
    out = math.factorial(n)
    for c in multiplicities:
        out //= math.factorial(c)
    return out


def lifted_family(mats: Sequence[OrbitalMatrix], orbitals: Orbitals, blocks: Sequence) -> dict:
    """Every nonzero lifted sum of `mats`, keyed by its multiplicity tuple c; absent keys read 0.

    blocks[o] holds the depth-one orbitals of the n block pairs of orbital
    o's representative. The product over blocks commutes, so each orbital
    expands its sorted labels, memoized on the sorted prefix: orbitals that
    share a prefix share its polynomial. Entries of key c are over
    prod den_i^c_i. A key is kept when each v_i it takes is nonzero at some
    block: over all multisets of depth-one orbitals, exactly when L(c) is
    nonzero, since summed over orderings the expansion is the product of the
    nonzero linear forms sum_x v_i[x] X_x.
    """
    if not mats:
        raise EmptyInput("lifting needs at least one depth-one matrix")
    if any(m.frame is not mats[0].frame for m in mats):
        raise DimensionMismatch("the parts need one set of orbitals")
    width = len(blocks[0]) + 1  # t^c is held as the integer sum_i c_i width^i
    steps = [width**i for i in range(len(mats))]
    # the nonzero (t_i's step, v_i entry) pairs at each depth-one orbital
    terms = [[(s, w) for s, w in zip(steps, col) if w] for col in zip(*(m.vec for m in mats))]

    @cache
    def expand(labels: tuple[int, ...]) -> dict[int, int]:
        prefix = expand(labels[:-1]).items() if len(labels) > 1 else [(0, 1)]
        out: dict[int, int] = {}
        for step, weight in terms[labels[-1]]:
            for mono, coeff in prefix:
                key = mono + step
                out[key] = out.get(key, 0) + weight * coeff
        return out

    vecs: dict[int, list[int]] = defaultdict(lambda: [0] * len(blocks))
    for o, labels in enumerate(blocks):
        for mono, coeff in expand(tuple(sorted(labels))).items():
            vecs[mono][o] = coeff
    family = defaultdict(lambda: OrbitalMatrix(orbitals, [0] * len(blocks)))
    for mono, vec in vecs.items():
        c = tuple(mono // step % width for step in steps)
        family[c] = OrbitalMatrix(orbitals, vec, math.prod(m.den**e for m, e in zip(mats, c)))
    return family
