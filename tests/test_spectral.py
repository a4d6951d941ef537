import inspect
import sys
from fractions import Fraction

import pytest
import sympy

from ordered_hamming import (
    Instance,
    RatMatrix,
    SchemeParams,
    eigen_n,
    enumerate_shapes,
    krawchouk_table,
    multiplicity_n,
    valency_n,
    verify_base_duality,
    verify_spectral_n,
)
from ordered_hamming.cli import SUITE_INSTANCES
from ordered_hamming.spectral import base_eigenmatrix_P, base_eigenmatrix_Q, factor_columns

from dense_oracle import dense_spectral, dense_spectral_n, kron, relation_matrices


def test_base_data_for_mixed_alphabets():
    params = SchemeParams((2, 3), 1)
    data = dense_spectral(params)
    assert data.k == (1, 1, 4)
    assert data.mult == (1, 2, 3)
    assert base_eigenmatrix_P(params) == RatMatrix([[1, 1, 4], [1, 1, -2], [1, -1, 0]])
    assert base_eigenmatrix_Q(params) == RatMatrix([[1, 2, 3], [1, 2, -3], [1, -1, 0]])


def test_binary_base_idempotent():
    data = dense_spectral(SchemeParams((2,), 1))
    assert data.E[1] == RatMatrix([["1/2", "-1/2"], ["-1/2", "1/2"]])


@pytest.mark.parametrize("q", [(2,), (3,), (2, 3), (2, 2), (2, 2, 2), (5, 2, 4)])
def test_base_idempotent_axioms(q):
    params = SchemeParams(q, 1)
    data = dense_spectral(params)
    size = params.base_size
    total = None
    for e in data.E:
        total = e if total is None else total + e
    assert total == RatMatrix.identity(size)
    assert data.E[0].scale(size) == RatMatrix.ones(size)
    for i, ei in enumerate(data.E):
        for j, ej in enumerate(data.E):
            assert ei * ej == (ei if i == j else ei.scale(0))


@pytest.mark.parametrize("q", [(2, 3), (2, 2), (2, 2, 2), (3, 4)])
def test_base_duality(q):
    checks = verify_base_duality(SchemeParams(q, 1))
    assert False not in checks.values()


def test_base_duality_spot_values():
    assert base_eigenmatrix_P(SchemeParams((3, 2), 1)) == base_eigenmatrix_Q(
        SchemeParams((2, 3), 1)
    )
    palindromic = verify_base_duality(SchemeParams((2, 2), 1))
    assert palindromic["self_dual"] is True
    p = base_eigenmatrix_P(SchemeParams((2, 3), 1))
    q = base_eigenmatrix_Q(SchemeParams((2, 3), 1))
    assert p * q == RatMatrix.identity(3).scale(6)


def _sympy_krawchouk(params, lam):
    """Independent expansion of the product generating function."""
    P = base_eigenmatrix_P(params)
    m = params.m
    zs = sympy.symbols(f"z0:{m + 1}")
    poly = sympy.Integer(1)
    for j, power in enumerate(lam):
        row = sum(sympy.Rational(P[j, i].numerator, P[j, i].denominator) * zs[i] for i in range(m + 1))
        poly *= row**power
    poly = sympy.expand(poly)
    out = {}
    for mu in enumerate_shapes(params):
        coeff = poly
        for z, e in zip(zs, mu):
            coeff = coeff.coeff(z, e)
        out[mu] = Fraction(int(sympy.nsimplify(coeff).p), int(sympy.nsimplify(coeff).q))
    return out


@pytest.mark.parametrize(
    "q,n",
    [((2,), 2), ((2, 3), 2), ((3,), 2), ((2,), 4), ((2, 2, 2), 3), ((3, 2), 3), ((4, 3, 2), 2)],
)
def test_krawchouk_table_against_sympy(q, n):
    params = SchemeParams(q, n)
    table = krawchouk_table(params)
    shapes = enumerate_shapes(params)
    for li, lam in enumerate(shapes):
        expected = _sympy_krawchouk(params, lam)
        for mi, mu in enumerate(shapes):
            assert table[li, mi] == expected[mu]


def test_krawchouk_spot_values():
    # shapes in order (2, 0), (1, 1), (0, 2); row (1, 1)
    table = krawchouk_table(SchemeParams((2,), 2))
    assert table[1, 0] == 1
    assert table[1, 1] == 0
    assert table[1, 2] == -1


@pytest.mark.parametrize("q,n", [((2,), 2), ((2, 3), 2), ((2, 2), 2)])
def test_krawchouk_degenerate_rows_and_columns(q, n):
    params = SchemeParams(q, n)
    table = krawchouk_table(params)
    shapes = enumerate_shapes(params)
    for li in range(len(shapes)):
        assert table[li, 0] == 1
    for mi, mu in enumerate(shapes):
        assert table[0, mi] == valency_n(mu, params)


def test_krawchouk_table_recursion_depth_does_not_grow_with_n():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        table = krawchouk_table(SchemeParams((2,), 60))
    finally:
        sys.setrecursionlimit(limit)
    assert table.nrows == table.ncols == 61


def test_four_cycle_eigenmatrix():
    P, Q = eigen_n(SchemeParams((2,), 2))
    assert P == RatMatrix([[1, 2, 1], [1, 0, -1], [1, -2, 1]])
    assert P == Q  # palindromic alphabet sequence


@pytest.mark.parametrize("q,n", [((2,), 2), ((2, 3), 1), ((2, 2), 2), ((2,), 3)])
def test_eigen_product_identity(q, n):
    params = SchemeParams(q, n)
    P, Q = eigen_n(params)
    assert P * Q == RatMatrix.identity(params.class_count).scale(params.num_points)


@pytest.mark.parametrize("q,n", [((2, 3), 2), ((2, 2, 2), 1)])
def test_eigen_duality_at_depth(q, n):
    params = SchemeParams(q, n)
    P, Q = eigen_n(params)
    P_rev, Q_rev = eigen_n(params.reversed())
    assert P_rev == Q and Q_rev == P


def test_lifted_adjacency_identity_case():
    assert Instance(SchemeParams((2, 3), 2)).adjacency[(2, 0, 0)].matches(RatMatrix.identity(36))


def test_lifted_adjacency_two_letter_case():
    inst = Instance(SchemeParams((2,), 2))
    A = dense_spectral(inst.base.params).A
    expected = kron(A[1], A[0]) + kron(A[0], A[1])
    assert inst.adjacency[(1, 1)].matches(expected)
    assert inst.adjacency[(1, 1)].matches(relation_matrices(inst)[(1, 1)])


def test_lifted_idempotents_resolve_identity():
    total = None
    for e in Instance(SchemeParams((2, 2), 2)).idempotents.values():
        total = e if total is None else total + e
    assert total.matches(RatMatrix.identity(16))


@pytest.mark.parametrize(
    "q,n",
    [((2, 3), 1), ((2,), 2), ((2, 2), 2), ((3,), 1), ((2, 2, 2), 1)],
)
def test_spectral_verification_passes(q, n):
    checks = verify_spectral_n(Instance(SchemeParams(q, n)))
    assert all(checks.values()), checks


def test_zero_eigenvalue_example():
    inst = Instance(SchemeParams((2,), 2))
    P, _ = eigen_n(inst.params)
    i = inst.shapes.index((1, 1))
    assert P[i, i] == 0
    assert (inst.adjacency[(1, 1)] * inst.idempotents[(1, 1)]).is_zero()


def test_multiplicity_formula_matches_traces():
    inst = Instance(SchemeParams((2, 3), 2))
    for lam, e in inst.idempotents.items():
        assert e.trace() == multiplicity_n(lam, inst.params)


@pytest.mark.parametrize("q,n", [((2,), 2), ((2, 3), 1), ((2, 2), 2)])
def test_adjacency_span_is_already_closed(q, n):
    from ordered_hamming import MatrixSubspace, algebra_closure

    params = SchemeParams(q, n)
    inst = Instance(params)
    mats = list(inst.adjacency.values())
    span = MatrixSubspace.span(inst.orbitals, (a.vec for a in mats))
    closed = algebra_closure(mats)  # A_0 = I is among them
    assert span == closed
    assert closed.dimension == params.class_count


@pytest.mark.parametrize("q,n", list(SUITE_INSTANCES) + [((2, 3), 2)], ids=str)
def test_spectral_verification_matches_the_dense_oracle(q, n):
    inst = Instance(SchemeParams(q, n))
    assert list(verify_spectral_n(inst).items()) == list(dense_spectral_n(inst).items())


def test_spectral_verification_makes_one_dense_product(monkeypatch):
    """Only P Q, of side the class count, is dense; every family product is orbital."""
    inst = Instance(SchemeParams((2, 3), 2))
    factor_columns(inst.params.q)  # the per-letter table is shared by every instance
    shapes = []
    plain_mul = RatMatrix.__mul__

    def counting_mul(self, other):
        if isinstance(other, RatMatrix):
            shapes.append((self.nrows, self.ncols, other.ncols))
        return plain_mul(self, other)

    monkeypatch.setattr(RatMatrix, "__mul__", counting_mul)
    assert all(verify_spectral_n(inst).values())
    assert shapes == [(6, 6, 6)] and inst.params.class_count == 6


def _false_checks(inst) -> list[str]:
    return [name for name, ok in verify_spectral_n(inst).items() if not ok]


def test_swapped_idempotents_fail_the_eigenvalue_and_hadamard_equations(monkeypatch):
    inst = Instance(SchemeParams((2,), 2))
    lam, mu = inst.shapes[1:]
    idem = inst.idempotents
    monkeypatch.setattr(inst, "idempotents", {**idem, lam: idem[mu], mu: idem[lam]})
    failed = _false_checks(inst)
    assert "eigenvalue_equations" in failed and "hadamard_equations" in failed


def test_a_changed_relation_cell_fails_the_bruteforce_match():
    # X(1,2;2): the pair (00, 01) has shape (1, 1); read it as (0, 2) instead
    inst = Instance(SchemeParams((2,), 2))
    sweep = list(inst.pair_shapes)
    assert sweep[1] == (1, 1)
    sweep[1] = (0, 2)
    inst.__dict__["pair_shapes"] = tuple(sweep)
    assert _false_checks(inst) == ["lifted_matches_bruteforce"]


def test_a_doubled_adjacency_fails_the_valencies(monkeypatch):
    inst = Instance(SchemeParams((2,), 2))
    lam = inst.shapes[1]
    monkeypatch.setitem(inst.adjacency, lam, inst.adjacency[lam].scale(2))
    assert "valencies_match_row_sums" in _false_checks(inst)
