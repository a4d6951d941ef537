"""Closed-form spectral data for the ordered Hamming scheme.

The depth-one scheme (n = 1) has explicit Kronecker-product adjacency
matrices, primitive idempotents and dual idempotents, each returned as its
list of factors spliced from one cached table of per-letter factors and never
built as an N x N matrix: `Instance` streams each once into orbital
coordinates, checks it there against the valencies, multiplicities or
relation diagonal, and lifts each family to depth n in one `lifted_family`
expansion. The depth-n eigenmatrices are the coefficient tables of a product
generating function (multivariate Krawtchouk polynomials), each one
`RatMatrix` built degree by degree.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .exact_linalg import OrbitalMatrix, RatMatrix, mat_sum
from .scheme import SchemeParams, Shape, compositions
from .symtensor import multinomial

if TYPE_CHECKING:
    from .terwilliger import Instance


class LetterFactors(NamedTuple):
    """The q x q factors of one letter; a depth-one closed form lists one of them per letter.

    Jt is J / q and D the matrix unit at (0, 0). H and H* are the rank-one
    idempotents q/(q-1) (I - Jt) D (I - Jt) and q/(q-1) (I - D) Jt (I - D),
    supported away from the uniform vector and away from the base letter;
    Z = I - Jt - H is zero exactly when q = 2.
    """

    I: RatMatrix
    J: RatMatrix
    Jt: RatMatrix
    D: RatMatrix
    H: RatMatrix
    Hstar: RatMatrix
    Z: RatMatrix


@lru_cache(maxsize=None)
def letter_factors(qj: int) -> LetterFactors:
    """The per-letter table, built once per alphabet size."""
    I = RatMatrix.identity(qj)
    J = RatMatrix.ones(qj)
    Jt = J.scale(Fraction(1, qj))
    D = RatMatrix.diagonal([1] + [0] * (qj - 1))
    H = ((I - Jt) * D * (I - Jt)).scale(Fraction(qj, qj - 1))
    Hstar = ((I - D) * Jt * (I - D)).scale(Fraction(qj, qj - 1))
    return LetterFactors(I, J, Jt, D, H, Hstar, I - Jt - H)


def factor_columns(q: tuple[int, ...]) -> LetterFactors:
    """The per-letter table read across q: each field holds that factor for every letter, in order."""
    return LetterFactors._make(zip(*map(letter_factors, q)))


def splice(
    left: Sequence[RatMatrix], pivot: RatMatrix, right: Sequence[RatMatrix], p: int
) -> list[RatMatrix]:
    """left[:p] + [pivot] + right[p+1:]: the factor list of every depth-one closed form."""
    return [*left[:p], pivot, *right[p + 1 :]]


def base_valencies(params: SchemeParams) -> tuple[int, ...]:
    q = params.q
    out = [1]
    for j in range(1, params.m + 1):
        out.append((q[j - 1] - 1) * math.prod(q[: j - 1]))
    return tuple(out)


def base_multiplicities(params: SchemeParams) -> tuple[int, ...]:
    q = params.q
    m = params.m
    out = [1]
    for j in range(1, m + 1):
        out.append((q[m - j] - 1) * math.prod(q[m - j + 1 :]))
    return tuple(out)


def base_adjacency(params: SchemeParams) -> tuple[list[RatMatrix], ...]:
    """A_0 = identity; A_j flips coordinate j and frees everything before it."""
    c = factor_columns(params.q)
    return (list(c.I),) + tuple(splice(c.J, c.J[p] - c.I[p], c.I, p) for p in range(params.m))


def base_idempotents(params: SchemeParams) -> tuple[list[RatMatrix], ...]:
    """E_0 is the normalized all-ones product; E_j has its (I - Jt) factor at slot m - j."""
    c = factor_columns(params.q)
    return (list(c.Jt),) + tuple(
        splice(c.Jt, c.I[p] - c.Jt[p], c.I, p) for p in reversed(range(params.m))
    )


def base_dual_idempotents(params: SchemeParams) -> tuple[list[RatMatrix], ...]:
    """Diagonal indicators of the depth-one relation classes seen from 0."""
    c = factor_columns(params.q)
    return (list(c.D),) + tuple(splice(c.I, c.I[p] - c.D[p], c.D, p) for p in range(params.m))


def _base_eigenmatrix(weights: Sequence[int], alphabet: Sequence[int]) -> RatMatrix:
    """Entry (i, j) is w_j above the antidiagonal i + j = m + 1, -w_j / (a_j - 1) on it, else 0."""
    m = len(alphabet)
    return RatMatrix(
        [
            [
                w if i + j <= m else Fraction(-w, alphabet[j - 1] - 1) if i + j == m + 1 else 0
                for j, w in enumerate(weights)
            ]
            for i in range(m + 1)
        ]
    )


def base_eigenmatrix_P(params: SchemeParams) -> RatMatrix:
    """First eigenmatrix at depth one: the valencies, with q in order."""
    return _base_eigenmatrix(base_valencies(params), params.q)


def base_eigenmatrix_Q(params: SchemeParams) -> RatMatrix:
    """Second eigenmatrix at depth one: the multiplicities, with q reversed."""
    return _base_eigenmatrix(base_multiplicities(params), params.reversed().q)


def verify_base_duality(params: SchemeParams) -> dict[str, bool | None]:
    """Reversing the alphabet order swaps the two eigenmatrices.

    `self_dual` is None when q is not palindromic.
    """
    rev = params.reversed()
    P, Q = base_eigenmatrix_P(params), base_eigenmatrix_Q(params)
    Pr, Qr = base_eigenmatrix_P(rev), base_eigenmatrix_Q(rev)
    k, mult = base_valencies(params), base_multiplicities(params)
    kr = base_valencies(rev)
    palindromic = params.q == rev.q
    size = params.base_size
    return {
        "p_equals_reversed_q": Pr == Q,
        "q_equals_reversed_p": Qr == P,
        "valencies_swap_with_multiplicities": kr == mult and base_multiplicities(rev) == k,
        "pq_product_is_size_identity": P * Q == RatMatrix.identity(params.m + 1).scale(size),
        "self_dual": (P == Q) if palindromic else None,
    }


def krawchouk_table(params: SchemeParams) -> RatMatrix:
    """The depth-n first eigenmatrix: rows lam and columns mu in shape order.

    Entry (lam, mu) is the z^mu coefficient of prod_j (sum_i P[j][i] z_i)^lam_j,
    P the depth-one first eigenmatrix. Taking one factor off the first j with
    lam_j > 0 gives K(lam, mu) = sum_i P[j][i] K(lam - e_j, mu - e_i), built
    from K(0, 0) = 1 one total degree at a time on P's integer grid, so the
    denominator is divided out once at the end. The table of
    `params.reversed()` is the second eigenmatrix of `params`.
    """
    P = base_eigenmatrix_P(params)
    parts = params.m + 1
    weights = P.vec  # row-major, parts by parts
    shapes = compositions(0, parts)
    table = [[1]]
    for degree in range(1, params.n + 1):
        below = {s: k for k, s in enumerate(shapes)}
        shapes = compositions(degree, parts)
        # per shape s, the pairs (i, index of s - e_i one degree below) over
        # every i with s_i > 0; the first pair has the first such i
        lowered = [
            [(i, below[s[:i] + (c - 1,) + s[i + 1 :]]) for i, c in enumerate(s) if c]
            for s in shapes
        ]
        table = [
            [sum(weights[j * parts + i] * table[k][t] for i, t in down) for down in lowered]
            for (j, k), *_ in lowered
        ]
    return RatMatrix(table).scale(Fraction(1, P.den**params.n))


def valency_n(lam: Shape, params: SchemeParams) -> int:
    k = base_valencies(params)
    return multinomial(lam) * math.prod(kj**c for kj, c in zip(k, lam))


def multiplicity_n(lam: Shape, params: SchemeParams) -> int:
    mult = base_multiplicities(params)
    return multinomial(lam) * math.prod(mj**c for mj, c in zip(mult, lam))


def eigen_n(params: SchemeParams) -> tuple[RatMatrix, RatMatrix]:
    """First and second eigenmatrices at depth n, rows and columns in shape order."""
    return krawchouk_table(params), krawchouk_table(params.reversed())


def verify_spectral_n(inst: Instance) -> dict[str, bool]:
    """Exact spectral verification at depth n, in the orbital coordinates of `inst`.

    Checks, for all shape pairs: the eigenvalue equations
    A_mu E_lam = P[lam][mu] E_lam, the Hadamard counterparts
    E_mu o A_lam = |X^n|^-1 Q[lam][mu] A_lam, the valencies as A_lam J = k J,
    the multiplicities as traces, and that each lifted A_lam is the 0/1
    indicator of lam in the brute-force `pair_shapes` sweep, read through
    the orbital labels with no relation matrix. Only P Q is a dense product.
    """
    params = inst.params
    shapes = inst.shapes
    adj = inst.adjacency
    idem = inst.idempotents
    P, Q = eigen_n(params)
    npts = params.num_points

    eig_ok = True
    had_ok = True
    for li, lam in enumerate(shapes):
        for mi, mu in enumerate(shapes):
            if adj[mu] * idem[lam] != idem[lam].scale(P[li, mi]):
                eig_ok = False
            if idem[mu].hadamard(adj[lam]) != adj[lam].scale(Q[li, mi] / npts):
                had_ok = False

    ones = OrbitalMatrix(inst.orbitals, [1] * inst.orbitals.count)
    val_ok = all(adj[lam] * ones == ones.scale(valency_n(lam, params)) for lam in shapes)
    mult_ok = all(idem[lam].trace() == multiplicity_n(lam, params) for lam in shapes)
    lift_ok = all(adj[lam].is_indicator([s == lam for s in inst.pair_shapes]) for lam in shapes)
    resolve_ok = mat_sum(idem.values()) == OrbitalMatrix.identity(inst.orbitals)
    pq_ok = P * Q == RatMatrix.identity(len(shapes)).scale(npts)

    return {
        "eigenvalue_equations": eig_ok,
        "hadamard_equations": had_ok,
        "valencies_match_row_sums": val_ok,
        "multiplicities_match_traces": mult_ok,
        "lifted_matches_bruteforce": lift_ok,
        "idempotents_resolve_identity": resolve_ok,
        "pq_product_is_size_identity": pq_ok,
    }
