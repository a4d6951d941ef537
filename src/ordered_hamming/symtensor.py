"""Symmetrized Kronecker sums.

The workhorse is `lifted_sum` (written L_op elsewhere in the docs): given
matrices v_1..v_k with multiplicities i_1..i_k summing to n, it returns the
sum over all distinct arrangements of the n-fold Kronecker product, one
term per arrangement. Enumerating arrangements directly avoids both the
n!-term symmetrizer average and any rational division.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

from .exact_linalg import DimensionMismatch, EmptyInput, RatMatrix, kron, kron_all, mat_sum


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


def lifted_sum_grid(grid: Sequence[Sequence[RatMatrix]], counts: Sequence[Sequence[int]]) -> RatMatrix:
    """`lifted_sum` over a grid of matrices with a grid of multiplicities."""
    parts = []
    for grow, crow in zip(grid, counts):
        for mat, c in zip(grow, crow):
            if c:
                parts.append((mat, c))
    return lifted_sum(parts)


def _digits(index: int, base: int, length: int) -> list[int]:
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        out[pos] = index % base
        index //= base
    return out


def permute_positions(mat: RatMatrix, perm: Sequence[int], base: int) -> RatMatrix:
    """Conjugate by the coordinate permutation sending input slot r to output position perm[r].

    Indices of `mat` are read as len(perm) digits in the given base, first
    digit slowest, matching the Kronecker convention.
    """
    n = len(perm)
    size = base**n
    if mat.nrows != size or mat.ncols != size:
        raise DimensionMismatch(f"matrix side must be {base}^{n}")
    # output index x gathers digit perm^{-1}... build source index per output index
    source = [0] * size
    for x in range(size):
        dx = _digits(x, base, n)
        s = 0
        for r in range(n):
            s = s * base + dx[perm[r]]
        source[x] = s
    rows = mat.rows
    return RatMatrix([[rows[source[i]][source[j]] for j in range(size)] for i in range(size)])


def sym_product(u: RatMatrix, n1: int, w: RatMatrix, n2: int, base: int) -> RatMatrix:
    """Symmetric product of symmetric tensors u (n1 factors) and w (n2 factors).

    Computed as the sum over all C(n1+n2, n1) interleavings of the factor
    positions, which for symmetric inputs agrees with the binomially scaled
    symmetrizer average.
    """
    if n1 == 0:
        return w
    if n2 == 0:
        return u
    joined = kron(u, w)
    n = n1 + n2
    # u-factor slots land on `positions` in order, w-factor slots on the rest
    targets = (
        list(positions) + [t for t in range(n) if t not in positions]
        for positions in combinations(range(n), n1)
    )
    return mat_sum(permute_positions(joined, target, base) for target in targets)


def sym_product_spanset(
    u_list: Sequence[RatMatrix],
    n1: int,
    w_list: Sequence[RatMatrix],
    n2: int,
    base: int,
) -> list[RatMatrix]:
    """Spanning set {u (.) w} of the symmetric product of two spanned spaces."""
    if n1 == 0:
        return list(w_list)
    if n2 == 0:
        return list(u_list)
    return [sym_product(u, n1, w, n2, base) for u in u_list for w in w_list]

