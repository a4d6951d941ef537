import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordered_hamming import (
    RatMatrix,
    SchemeParams,
    algebra_closure,
    base_spectral,
    kron,
    kron_all,
    lifted_sum,
    lifted_sum_grid,
    multinomial,
    multiset_arrangements,
    span_basis,
    sym_product,
    sym_product_spanset,
    terw_basis,
)
from ordered_hamming.exact_linalg import mat_sum
from ordered_hamming.symtensor import permute_positions

A = RatMatrix([[1, 2], [3, 4]])
B = RatMatrix([[0, 1], [1, 1]])
C = RatMatrix([[2, 0], [5, "1/2"]])


def test_arrangements_small_cases():
    assert multiset_arrangements((1, 2)) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert multiset_arrangements((3,)) == [(0, 0, 0)]
    assert multiset_arrangements((1, 1, 1)) == [
        (0, 1, 2),
        (0, 2, 1),
        (1, 0, 2),
        (1, 2, 0),
        (2, 0, 1),
        (2, 1, 0),
    ]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3).filter(lambda c: 1 <= sum(c) <= 5))
def test_arrangement_count_is_multinomial(counts):
    assert len(multiset_arrangements(counts)) == multinomial(counts)


def test_lifted_sum_two_singletons():
    assert lifted_sum([(A, 1), (B, 1)]) == kron(A, B) + kron(B, A)


def test_lifted_sum_pure_power():
    assert lifted_sum([(A, 3)]) == kron_all([A, A, A])


def test_lifted_sum_three_term_example():
    got = lifted_sum([(A, 1), (B, 2)])
    expected = kron_all([A, B, B]) + kron_all([B, A, B]) + kron_all([B, B, A])
    assert got == expected


def test_lifted_sum_drops_zero_multiplicities():
    assert lifted_sum([(A, 1), (B, 0), (C, 1)]) == lifted_sum([(A, 1), (C, 1)])


def test_lifted_sum_part_order_invariant():
    assert lifted_sum([(A, 2), (B, 1)]) == lifted_sum([(B, 1), (A, 2)])


def symmetrizer_average(mat: RatMatrix, n: int, base: int) -> RatMatrix:
    """Average of all n! coordinate permutations of `mat`: the plain oracle for lifted_sum."""
    total = mat_sum(permute_positions(mat, perm, base) for perm in permutations(range(n)))
    return total.scale(Fraction(1, math.factorial(n)))


def test_lifted_sum_is_scaled_symmetrizer_average():
    lifted = lifted_sum([(A, 1), (B, 2)])
    ordered = kron_all([A, B, B])
    assert symmetrizer_average(ordered, 3, 2).scale(multinomial((1, 2))) == lifted


def test_grid_form_reduces_to_power():
    grid = [[A, B], [C, A]]
    counts = [[0, 0], [0, 2]]
    assert lifted_sum_grid(grid, counts) == kron(A, A)


def test_permute_positions_three_cycle():
    m = kron_all([A, B, C])
    # slot 0 -> position 1, slot 1 -> position 2, slot 2 -> position 0
    assert permute_positions(m, (1, 2, 0), 2) == kron_all([C, A, B])


def test_sym_product_of_singletons():
    assert sym_product(A, 1, B, 1, 2) == kron(A, B) + kron(B, A)
    assert sym_product_spanset([A], 1, [B], 1, 2) == [kron(A, B) + kron(B, A)]


def test_sym_product_matches_lifted_concatenation():
    # (sum over arrangements of A) (.) (sum over arrangements of B, C twice)
    left = sym_product(lifted_sum([(A, 1)]), 1, lifted_sum([(B, 1), (C, 1)]), 2, 2)
    assert left == lifted_sum([(A, 1), (B, 1), (C, 1)])
    power = sym_product(lifted_sum([(A, 2)]), 2, lifted_sum([(B, 1)]), 1, 2)
    assert power == lifted_sum([(A, 2), (B, 1)])


def test_sym_product_with_scalar_factor_counts():
    assert sym_product(A, 1, B, 0, 2) == A
    assert sym_product_spanset([A, B], 2, [], 0, 2) == [A, B]


def test_identity_symmetric_product_is_scaled_identity():
    i4 = RatMatrix.identity(4)
    out = sym_product(i4, 2, RatMatrix.identity(2), 1, 2)
    assert out == RatMatrix.identity(8).scale(3)


@pytest.mark.parametrize("q", [(2, 2), (2, 3)])
def test_lifted_idempotents_are_orthogonal(q):
    params = SchemeParams(q, 2)
    data = base_spectral(SchemeParams(q, 1))
    from ordered_hamming import compositions

    shapes = compositions(2, params.m + 1)
    lifted = {lam: lifted_sum(list(zip(data.E, lam))) for lam in shapes}
    for lam in shapes:
        for mu in shapes:
            prod = lifted[lam] * lifted[mu]
            assert prod == (lifted[lam] if lam == mu else prod.scale(0))


def test_rank_one_lifts_generate_the_symmetric_algebra():
    # closure of the multiplicity-one lifts equals the span of all lifts
    params1 = SchemeParams((2, 2), 1)
    data = base_spectral(params1)
    n = 2
    ident = RatMatrix.identity(4)
    gens = [lifted_sum([(e, 1), (ident, n - 1)]) for e in data.E]
    from ordered_hamming import compositions

    shapes = compositions(n, params1.m + 1)
    full_span = span_basis([lifted_sum(list(zip(data.E, lam))) for lam in shapes])
    assert algebra_closure(gens, unital=True) == full_span


@pytest.mark.parametrize("q,expected", [((2, 2), 3), ((2, 3), 6)])
def test_sym_product_span_dimension_multiplies(q, expected):
    params = SchemeParams(q, 1)
    tw = terw_basis(base_spectral(params))
    f_span = span_basis(list(tw.F))
    g_span = span_basis([g for g in tw.G if not g.is_zero()])
    pairs = sym_product_spanset(
        f_span.basis_matrices(), 1, g_span.basis_matrices(), 1, params.base_size
    )
    assert span_basis(pairs).dimension == f_span.dimension * g_span.dimension == expected
