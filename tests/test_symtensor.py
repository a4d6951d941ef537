import math
from fractions import Fraction
from functools import cache
from itertools import permutations
from typing import Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_oracle
from ordered_hamming import (
    Instance,
    RatMatrix,
    SchemeParams,
    algebra_closure,
    compositions,
    lifted_family,
    multinomial,
)
from ordered_hamming.exact_linalg import DimensionMismatch, EmptyInput, OrbitalMatrix, mat_sum

from dense_oracle import (
    basis_matrices,
    dense_lifted_sum,
    dense_spectral,
    kron,
    kron_all,
    lifted_sum,
    span_basis,
)

A = RatMatrix([[1, 2], [3, 4]])
B = RatMatrix([[0, 1], [1, 1]])
C = RatMatrix([[2, 0], [5, "1/2"]])


def multiset_arrangements(multiplicities: Sequence[int]) -> list[tuple[int, ...]]:
    """All distinct index sequences with the given multiplicities, in lex order.

    The reference that `dense_lifted_sum` is checked against: one Kronecker
    chain per arrangement.
    """
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


def test_lifted_sum_makes_one_kron_per_nonzero_count_per_state(monkeypatch):
    # counts (4, 4): 16 states with both counts nonzero make 2 products each,
    # 8 with one nonzero make 1, except the leaves (1, 0) and (0, 1), which
    # are the factors themselves; one chain per arrangement would make 70 * 7
    calls = []

    def counting_kron(a, b):
        calls.append(1)
        return kron(a, b)

    monkeypatch.setattr(dense_oracle, "kron", counting_kron)
    dense_lifted_sum([(A, 4), (B, 4)])
    assert len(calls) == 16 * 2 + 6 * 1


def test_lifted_sum_two_singletons():
    assert dense_lifted_sum([(A, 1), (B, 1)]) == kron(A, B) + kron(B, A)


def test_lifted_sum_pure_power():
    assert dense_lifted_sum([(A, 3)]) == kron_all([A, A, A])


def test_lifted_sum_three_term_example():
    got = dense_lifted_sum([(A, 1), (B, 2)])
    expected = kron_all([A, B, B]) + kron_all([B, A, B]) + kron_all([B, B, A])
    assert got == expected


def test_lifted_sum_drops_zero_multiplicities():
    assert dense_lifted_sum([(A, 1), (B, 0), (C, 1)]) == dense_lifted_sum([(A, 1), (C, 1)])
    assert dense_lifted_sum([(A, 0), (B, 0), (C, 0), (A, 2)]) == kron(A, A)


def test_lifted_sum_part_order_invariant():
    assert dense_lifted_sum([(A, 2), (B, 1)]) == dense_lifted_sum([(B, 1), (A, 2)])


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
    assert mat.nrows == mat.ncols == size
    source = []
    for x in range(size):
        dx = _digits(x, base, n)
        s = 0
        for r in range(n):
            s = s * base + dx[perm[r]]
        source.append(s)
    return RatMatrix([[mat[source[i], source[j]] for j in range(size)] for i in range(size)])


def symmetrizer_average(mat: RatMatrix, n: int, base: int) -> RatMatrix:
    """Average of all n! coordinate permutations of `mat`: the plain oracle for dense_lifted_sum."""
    total = mat_sum(permute_positions(mat, perm, base) for perm in permutations(range(n)))
    return total.scale(Fraction(1, math.factorial(n)))


def test_lifted_sum_is_scaled_symmetrizer_average():
    lifted = dense_lifted_sum([(A, 1), (B, 2)])
    ordered = kron_all([A, B, B])
    assert symmetrizer_average(ordered, 3, 2).scale(multinomial((1, 2))) == lifted


def test_permute_positions_three_cycle():
    m = kron_all([A, B, C])
    # slot 0 -> position 1, slot 1 -> position 2, slot 2 -> position 0
    assert permute_positions(m, (1, 2, 0), 2) == kron_all([C, A, B])


_entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_factors = st.lists(_entries, min_size=4, max_size=4).map(
    lambda e: RatMatrix([e[:2], e[2:]])
)


_parts = st.lists(
    st.tuples(_factors, st.integers(min_value=0, max_value=3)), min_size=1, max_size=2
).filter(lambda ps: 1 <= sum(c for _, c in ps) <= 3)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(_factors, st.integers(min_value=0, max_value=5)), min_size=1, max_size=3
    ).filter(lambda ps: 1 <= sum(c for _, c in ps) <= 5)
)
def test_lifted_sum_is_the_sum_over_arrangements(parts):
    mats = [m for m, _ in parts]
    counts = [c for _, c in parts]
    expected = mat_sum(
        kron_all([mats[i] for i in arr]) for arr in multiset_arrangements(counts)
    )
    assert dense_lifted_sum(parts) == expected


@settings(max_examples=20, deadline=None)
@given(_parts, _parts)
def test_lifted_concatenation_is_scaled_symmetrized_kron(pu, pw):
    # one lifted_sum over the joined parts is the symmetric product of the two lifts
    n1 = sum(c for _, c in pu)
    n = n1 + sum(c for _, c in pw)
    assume(n <= 4)
    joined = kron(dense_lifted_sum(pu), dense_lifted_sum(pw))
    assert dense_lifted_sum(pu + pw) == symmetrizer_average(joined, n, 2).scale(math.comb(n, n1))


def test_identity_symmetric_product_is_scaled_identity():
    i2 = RatMatrix.identity(2)
    assert dense_lifted_sum([(i2, 2), (i2, 1)]) == RatMatrix.identity(8).scale(3)


@pytest.mark.parametrize("q", [(2, 2), (2, 3)])
def test_lifted_idempotents_are_orthogonal(q):
    params = SchemeParams(q, 2)
    data = dense_spectral(SchemeParams(q, 1))
    from ordered_hamming import compositions

    shapes = compositions(2, params.m + 1)
    lifted = {lam: dense_lifted_sum(list(zip(data.E, lam))) for lam in shapes}
    for lam in shapes:
        for mu in shapes:
            prod = lifted[lam] * lifted[mu]
            assert prod == (lifted[lam] if lam == mu else prod.scale(0))


def test_rank_one_lifts_generate_the_symmetric_algebra():
    # closure of the multiplicity-one lifts equals the span of all lifts
    params1 = SchemeParams((2, 2), 1)
    data = dense_spectral(params1)
    n = 2
    ident = RatMatrix.identity(4)
    gens = [dense_lifted_sum([(e, 1), (ident, n - 1)]) for e in data.E]
    from ordered_hamming import compositions

    shapes = compositions(n, params1.m + 1)
    full_span = span_basis([dense_lifted_sum(list(zip(data.E, lam))) for lam in shapes])
    orbitals = Instance(SchemeParams((2, 2), n)).orbitals
    eye = OrbitalMatrix.identity(orbitals)
    closure = algebra_closure([eye, *(OrbitalMatrix.of(orbitals, g) for g in gens)])
    assert basis_matrices(closure) == basis_matrices(full_span)


@pytest.mark.parametrize("q,expected", [((2, 2), 3), ((2, 3), 6)])
def test_sym_product_span_dimension_multiplies(q, expected):
    params = SchemeParams(q, 1)
    tw = Instance(params).basis
    f_span = span_basis([f.matrix() for f in tw.F])
    g_span = span_basis([g.matrix() for g in tw.G if not g.is_zero()])
    pairs = [
        dense_lifted_sum([(f, 1), (g, 1)])
        for f in basis_matrices(f_span)
        for g in basis_matrices(g_span)
    ]
    assert span_basis(pairs).dimension == f_span.dimension * g_span.dimension == expected


# The lift in orbital coordinates against the dense oracle. The depth-one
# parts are random orbital vectors, so they are neither symmetric nor equal
# on an orbital and its transpose, over random denominators.
_LIFT_INSTANCES = [((3,), 3), ((2, 2), 2), ((2, 3), 2), ((2, 2), 3), ((2, 2, 2), 2)]


@cache
def _lift_instance(q, n):
    return Instance(SchemeParams(q, n))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbital_lift_matches_the_dense_lift(data):
    """Every key of the one-expansion lift is the per-count recursion and the dense lift.

    Entries are drawn mostly zero, so some lifts vanish, through a zero
    factor or by cancellation; those, and only those, are absent keys.
    """
    q, n = data.draw(st.sampled_from(_LIFT_INSTANCES))
    inst = _lift_instance(q, n)
    base = inst.base.orbitals
    k = data.draw(st.integers(min_value=1, max_value=3))
    entries = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=base.count, max_size=base.count)
    mats = [OrbitalMatrix(base, data.draw(entries), data.draw(st.integers(1, 6))) for _ in range(k)]
    family = lifted_family(mats, inst.orbitals, inst.blocks)
    counts = compositions(n, k)
    assert set(family) <= set(counts)
    for c in counts:
        parts = list(zip(mats, c))
        expected = lifted_sum(parts, inst.orbitals, inst.blocks)
        dense = dense_lifted_sum([(m.matrix(), e) for m, e in parts])
        assert expected == OrbitalMatrix.of(inst.orbitals, dense)
        assert family.get(c) == (None if expected.is_zero() else expected)


def test_orbital_lift_of_a_lone_factor_is_that_factor():
    inst = _lift_instance((2, 3), 1)
    a, d = inst.adjacency[inst.shapes[1]], inst.duals[inst.shapes[0]]
    lifted = inst.lift([a, d])
    assert lifted[(1, 0)] == a and lifted[(0, 1)] == d


def test_orbital_lift_checks_its_parts():
    inst = _lift_instance((2, 2), 2)
    a, b = inst.base.adjacency[(1, 0, 0)], inst.adjacency[(2, 0, 0)]
    with pytest.raises(EmptyInput):
        inst.lift([])
    with pytest.raises(DimensionMismatch, match="one set of orbitals"):
        inst.lift([a, b])
    # A_(1,0,0) is I, so I (x) I is the one nonzero lift; the absent keys read as 0
    lifted = inst.lift([a, a.scale(0)])
    assert set(lifted_family([a, a.scale(0)], inst.orbitals, inst.blocks)) == {(2, 0)}
    assert lifted[(2, 0)] == OrbitalMatrix.identity(inst.orbitals)
    assert lifted[(1, 1)].is_zero() and lifted[(0, 2)].is_zero()


@pytest.mark.parametrize("q,n", [((2,), 3), ((2, 3), 2), ((3, 2), 2)], ids=str)
def test_families_are_the_dense_lifts(q, n):
    inst = _lift_instance(q, n)
    data = dense_spectral(inst.base.params)
    for fam, closed in ((inst.adjacency, data.A), (inst.idempotents, data.E), (inst.duals, data.Estar)):
        dense = dense_oracle.dense_family(inst, closed)
        assert all(fam[lam].matches(dense[lam]) for lam in inst.shapes)
