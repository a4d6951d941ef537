import math
from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordered_hamming.terwilliger as terwilliger_module
from ordered_hamming import (
    InternalMismatch,
    DimensionMismatch,
    EmptyInput,
    Instance,
    Orbitals,
    RatMatrix,
    SchemeParams,
    algebra_closure,
    center_dimension,
    terwilliger_closure,
)
from ordered_hamming.cli import SUITE_INSTANCES
from ordered_hamming.exact_linalg import MatrixSubspace, OrbitalMatrix, _kron_entries, _RowReducer

from dense_oracle import (
    DenseRowReducer,
    _flat,
    basis_matrices,
    contains,
    dense_family,
    dense_spectral,
    discrete,
    hadamard,
    is_zero_one,
    kron,
    kron_all,
    relation_matrices,
    rows_in_one_block,
    span_basis,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def grids(nrows, ncols):
    """Plain list[list[Fraction]] matrices: the reference representation."""
    return st.lists(
        st.lists(rationals, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    )


sides = st.integers(min_value=1, max_value=3)
matrices = st.tuples(sides, sides).flatmap(lambda shape: grids(*shape)).map(RatMatrix)
squares = sides.flatmap(lambda side: grids(side, side)).map(RatMatrix)


def mat2x2():
    return st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=2).map(
        RatMatrix
    )


def test_identity_is_multiplicative_unit():
    m = RatMatrix([[1, 2, 3], [4, 5, 6], [7, 8, "9/2"]])
    assert RatMatrix.identity(3) * m == m
    assert m * RatMatrix.identity(3) == m


def test_all_ones_is_hadamard_unit():
    ones, m = discrete([RatMatrix.ones(2), RatMatrix([["1/3", 2], [-5, "7/11"]])])
    assert ones.hadamard(m) == m


def test_trace_of_normalized_ones():
    jt = RatMatrix.ones(3).scale(Fraction(1, 3))
    assert jt.trace() == 1


def test_transpose_and_row_sums():
    m = RatMatrix([[1, 2], [3, 4]])
    assert Orbitals(2).transpose(_flat(m)) == [1, 3, 2, 4]


def test_dimension_mismatch_raises():
    a = RatMatrix([[1, 2]])
    b = RatMatrix([[1], [2], [3]])
    with pytest.raises(DimensionMismatch):
        a + RatMatrix([[1], [2]])
    with pytest.raises(DimensionMismatch):
        a * RatMatrix([[1, 2]])
    with pytest.raises(DimensionMismatch):
        b.trace()


def test_kron_block_structure():
    i2 = RatMatrix.identity(2)
    j2 = RatMatrix.ones(2)
    expected = RatMatrix(
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
    )
    assert kron(i2, j2) == expected
    d = RatMatrix.diagonal([1, 0])
    assert kron(d, d) == RatMatrix.diagonal([1, 0, 0, 0])


@settings(max_examples=30, deadline=None)
@given(mat2x2(), mat2x2(), mat2x2(), mat2x2())
def test_kron_mixed_product(a, b, c, d):
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


@settings(max_examples=15, deadline=None)
@given(mat2x2(), mat2x2(), mat2x2())
def test_kron_associative_under_flat_indexing(a, b, c):
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


@settings(max_examples=60, deadline=None)
@given(st.lists(squares, min_size=1, max_size=3), st.data())
def test_kron_stream_matches_the_dense_kronecker_product(factors, data):
    """A factor list's streamed entries are the oracle's `kron_all`, up to the common factor."""
    zeroed = data.draw(st.integers(min_value=-1, max_value=len(factors) - 1))
    if zeroed >= 0:
        factors[zeroed] = factors[zeroed].scale(0)
    flat, den = _kron_entries(factors)
    want = kron_all(factors)
    common, rest = divmod(den, want.den)
    assert rest == 0 and common == math.gcd(den, *flat)
    assert flat == [common * a for a in _flat(want)]
    orbitals = Orbitals(want.nrows)
    target = OrbitalMatrix.of(orbitals, want)
    assert OrbitalMatrix.of(orbitals, *factors) == target and orbitals.vector(*factors) == flat
    assert target.matches(*factors)
    assert target.is_zero() or not target.scale(2).matches(*factors)


def test_span_of_proportional_matrices():
    i2 = RatMatrix.identity(2)
    sub = span_basis([i2, i2.scale(2)])
    assert sub.dimension == 1


def test_span_of_independent_supports():
    i3 = RatMatrix.identity(3)
    sub = span_basis([i3, RatMatrix.ones(3) - i3])
    assert sub.dimension == 2


def test_span_of_adjacency_matrices_has_class_count_dimension():
    mats = list(relation_matrices(Instance(SchemeParams((2, 2), 1))).values())
    assert span_basis(mats).dimension == 3


def test_span_errors():
    with pytest.raises(EmptyInput):
        span_basis([])
    with pytest.raises(DimensionMismatch):
        span_basis([RatMatrix.identity(2), RatMatrix.identity(3)])


@settings(max_examples=20, deadline=None)
@given(st.lists(mat2x2(), min_size=1, max_size=4))
def test_span_basis_is_idempotent(mats):
    sub = span_basis(mats)
    if sub.dimension == 0:
        return
    assert span_basis(basis_matrices(sub)) == sub


@settings(max_examples=20, deadline=None)
@given(st.permutations(list(range(4))), st.lists(mat2x2(), min_size=4, max_size=4))
def test_span_basis_order_invariant(perm, mats):
    assert span_basis(mats) == span_basis([mats[i] for i in perm])


def test_closure_of_triangle_adjacency():
    a = RatMatrix.ones(3) - RatMatrix.identity(3)
    sub = algebra_closure(discrete([RatMatrix.identity(3), a]))
    assert sub.dimension == 2


def test_closure_is_multiplication_closed_and_order_invariant():
    inst = Instance(SchemeParams((3,), 1))
    relations = [OrbitalMatrix.of(inst.orbitals, r) for r in relation_matrices(inst).values()]
    gens = [OrbitalMatrix.identity(inst.orbitals), *relations, *inst.duals.values()]
    sub = algebra_closure(gens)
    assert sub.dimension == 5
    basis = basis_matrices(sub)
    assert all(contains(sub, x * y) for x in basis for y in basis)
    assert algebra_closure(list(reversed(gens))) == sub


def test_closure_requires_generators():
    with pytest.raises(EmptyInput):
        algebra_closure([])


def _matrix_unit(n, i, j):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return RatMatrix(rows)


def test_center_of_full_matrix_algebra():
    units = [_matrix_unit(2, i, j) for i in range(2) for j in range(2)]
    assert center_dimension(algebra_closure(discrete(units))) == 1


def test_center_of_diagonal_algebra_is_its_dimension():
    mats = [RatMatrix.diagonal([1, 0, 0]), RatMatrix.diagonal([0, 1, 0]), RatMatrix.diagonal([0, 0, 1])]
    assert center_dimension(algebra_closure(discrete(mats))) == 3


def test_center_of_commutative_closure_equals_dimension():
    inst = Instance(SchemeParams((2, 2), 1))
    gens = [OrbitalMatrix.of(inst.orbitals, r) for r in relation_matrices(inst).values()]
    sub = algebra_closure([OrbitalMatrix.identity(inst.orbitals), *gens])
    assert center_dimension(sub) == sub.dimension == 3


def test_center_needs_a_closure():
    """A plain span has no generating set S, so its center is not measured."""
    (unit,) = discrete([RatMatrix.identity(2)])
    with pytest.raises(ValueError, match="algebra_closure"):
        center_dimension(MatrixSubspace.span(unit.frame, [unit.vec]))


def test_matrix_json_round_trip():
    m = RatMatrix([[Fraction(-3, 2), 5], [0, Fraction(7, 3)]])
    blob = m.to_json()
    assert blob["entries"][0][0] == "-3/2"
    assert blob["entries"][0][1] == "5"
    assert blob == {"rows": 2, "cols": 2, "entries": [["-3/2", "5"], ["0", "7/3"]]}


def _entries(m):
    return [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)]


def _ref_matmul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _ref_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_operations_match_fraction_reference(data):
    r, k, c = data.draw(sides), data.draw(sides), data.draw(sides)
    a, b, w = data.draw(grids(r, k)), data.draw(grids(r, k)), data.draw(grids(k, c))
    sq = data.draw(grids(k, k))
    s = data.draw(rationals)
    A, B, W, SQ = RatMatrix(a), RatMatrix(b), RatMatrix(w), RatMatrix(sq)
    cases = [
        (A + B, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]),
        (A - B, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]),
        (-A, [[-x for x in row] for row in a]),
        (A * W, _ref_matmul(a, w)),
        (A.scale(s), [[s * x for x in row] for row in a]),
        (kron(A, W), _ref_kron(a, w)),
    ]
    for got, want in cases:
        assert _entries(got) == want
        assert got == RatMatrix(want) and hash(got) == hash(RatMatrix(want))
    assert SQ.trace() == sum((sq[i][i] for i in range(k)), Fraction(0))
    assert all(A[i, j] == a[i][j] for i in range(r) for j in range(k))
    assert A.to_json() == {"rows": r, "cols": k, "entries": [[str(x) for x in row] for row in a]}


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_lowest_terms_make_equality_structural(m):
    for got, want in [
        (m - m, RatMatrix([[0] * m.ncols] * m.nrows)),
        (m.scale(6).scale(Fraction(1, 6)), m),
        ((m + m) - m, m),
    ]:
        assert got == want
        assert hash(got) == hash(want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dense_and_orbital_matrices_share_one_exact_form(data):
    """On the discrete partition an `OrbitalMatrix` holds a square `RatMatrix`'s own (vec, den)."""
    k = data.draw(sides)
    a = data.draw(grids(k, k))
    b = data.draw(st.one_of(st.just(a), grids(k, k)))
    s = data.draw(rationals)
    A, B = RatMatrix(a), RatMatrix(b)
    X, Y, X2 = discrete([A, B, RatMatrix(a)])
    assert (A == B) == (X == Y) and X == X2
    cases = [(A, X), (A + B, X + Y), (A - B, X - Y), (-A, -X), (A.scale(s), X.scale(s))]
    for dense, orbital in cases:
        assert (orbital.vec, orbital.den) == (dense.vec, dense.den)
        assert dense.den > 0 and math.gcd(dense.den, *dense.vec) == 1
        assert orbital.is_zero() == dense.is_zero() == (dense.den == 1 and not any(dense.vec))
        assert orbital.matrix() == dense


def test_the_frame_tells_shapes_and_kinds_apart():
    """A 2x3 and a 3x2 have vectors of one length, and so can a square `RatMatrix` and an
    `OrbitalMatrix`: only the frame tells them apart."""
    wide, tall = RatMatrix([[1, 2, 3], [4, 5, 6]]), RatMatrix([[1, 2], [3, 4], [5, 6]])
    assert wide.vec == tall.vec and wide != tall
    square = RatMatrix([[1, "1/2"], [3, 4]])
    (orbital,) = discrete([square])
    assert (orbital.vec, orbital.den) == (square.vec, square.den)
    assert orbital != square and square != orbital
    for x, y in ((wide, tall), (square, orbital), (orbital, square)):
        for op in (add, sub):
            with pytest.raises(DimensionMismatch):
                op(x, y)
    for x, y in ((orbital, square), (square, orbital), (square, 2)):
        with pytest.raises(DimensionMismatch):
            x * y
    with pytest.raises(DimensionMismatch):
        OrbitalMatrix.hadamard(orbital, square)
    with pytest.raises(TypeError):
        2 * square
    assert square.scale(2) == RatMatrix([[2, 1], [6, 8]])


def test_entries_must_be_exact():
    with pytest.raises(TypeError):
        RatMatrix([[0.5]])
    with pytest.raises(TypeError):
        RatMatrix([[1, 0.0]])
    with pytest.raises(TypeError):
        RatMatrix.diagonal([1, 0.5])
    with pytest.raises(TypeError):
        RatMatrix.identity(2).scale(0.5)


def test_integer_rows_make_no_fraction(monkeypatch):
    """A relation matrix is integer rows throughout: no Fraction is made."""
    made = 0
    plain_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return plain_new(cls, *args, **kwargs)

    inst = Instance(SchemeParams((5, 6), 1))
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    relations = relation_matrices(inst)
    monkeypatch.undo()
    assert len(relations) == 3 and all(map(is_zero_one, relations.values()))
    assert made == 0


int3x3 = st.lists(
    st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
    min_size=3,
    max_size=3,
).map(RatMatrix)


def _vec(m):
    return [m[i, j] for i in range(m.nrows) for j in range(m.ncols)]


@settings(max_examples=40, deadline=None)
@given(st.lists(int3x3, min_size=1, max_size=4))
def test_span_dimension_matches_sympy_rank(mats):
    sympy = pytest.importorskip("sympy")
    assert span_basis(mats).dimension == sympy.Matrix([_vec(m) for m in mats]).rank()


@settings(max_examples=25, deadline=None)
@given(st.lists(int3x3, min_size=1, max_size=4))
def test_center_dimension_matches_sympy_commutant_rank(mats):
    sympy = pytest.importorskip("sympy")
    alg = closure3(mats, unital=True)
    basis = [sympy.Matrix(3, 3, _vec(b)) for b in basis_matrices(alg)]
    d = len(basis)
    # column k stacks vec(B_k B_j - B_j B_k) over every basis element B_j
    columns = [
        [x for bj in basis for x in (bk * bj - bj * bk)] for bk in basis
    ]
    commutators = sympy.Matrix(columns).T
    assert center_dimension(alg) == d - commutators.rank()


def pool_closure(generators, unital):
    """Reference closure: every new pool element times the whole pool, both sides.

    About dim**2 products; used only to cross-check `algebra_closure`.
    """
    gens = list(generators)
    side = gens[0].nrows
    red = DenseRowReducer(side * side)
    pool = []

    def try_add(mat):
        if red.insert(_flat(mat)):
            pool.append(mat)

    if unital:
        try_add(RatMatrix.identity(side))
    for g in gens:
        try_add(g)
    new_lo = 0
    while new_lo < len(pool):
        new_hi = len(pool)
        for li in range(new_lo, new_hi):
            left = pool[li]
            for ri in range(new_hi):
                right = pool[ri]
                try_add(left * right)
                if ri != li:
                    try_add(right * left)
        new_lo = new_hi
    return MatrixSubspace(Orbitals(side), red)


def dense_closure(generators, unital):
    """Reference closure: the spinning walk on dense matrices, with `RatMatrix` products.

    Ungraded: each pool element is multiplied on the left by every accepted
    generator, with no classes, no lazy admission and no full-rank stop, over
    row-major vectorizations of N-by-N matrices instead of orbital vectors.
    `algebra_closure` takes one graded walk, and holds I only when it is
    passed I; this walk, which seeds I itself when `unital`, is used only to
    cross-check it.
    """
    gens = list(generators)
    side = gens[0].nrows
    red = DenseRowReducer(side * side)
    pool = []

    def try_add(mat):
        if red.insert(_flat(mat)):
            pool.append(mat)
            return True
        return False

    if unital:
        try_add(RatMatrix.identity(side))
    spin = [g for g in gens if try_add(g)]
    for b in pool:
        for g in spin:
            try_add(g * b)
    return MatrixSubspace(Orbitals(side), red)


def closure3(gens, unital):
    """`algebra_closure` of the generators, passed I first when `unital`."""
    eye = [RatMatrix.identity(gens[0].nrows)] * unital
    return algebra_closure(discrete([*eye, *gens]))


@settings(max_examples=40, deadline=None)
@given(st.lists(int3x3, min_size=1, max_size=4), st.booleans())
def test_closure_matches_pool_reference(mats, unital):
    got = closure3(mats, unital)
    assert got == pool_closure(mats, unital) == dense_closure(mats, unital)
    assert rows_in_one_block(got)


diag3 = (
    st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3)
    .filter(lambda entries: len(set(entries)) > 1)
    .map(RatMatrix.diagonal)
)


@settings(max_examples=60, deadline=None)
@given(diag3, st.lists(st.one_of(int3x3, diag3), max_size=3))
def test_graded_closure_matches_pool_reference(diagonal, rest):
    """A non-scalar diagonal generator after I is always accepted, so the walk is graded."""
    mats = [diagonal, *rest]
    got = closure3(mats, unital=True)
    assert got == pool_closure(mats, unital=True) == dense_closure(mats, unital=True)
    assert got.spin[:2] == [g.vec for g in discrete([RatMatrix.identity(3), diagonal])]
    assert rows_in_one_block(got)


def test_closure_of_nilpotent_matrix_unit():
    """A closure holds I only when it is passed I."""
    e12 = _matrix_unit(2, 0, 1)
    assert algebra_closure(discrete([e12])).dimension == 1
    assert algebra_closure(discrete([RatMatrix.identity(2), e12])).dimension == 2


def test_closure_seeds_only_the_classes_where_a_diagonal_generator_is_nonzero():
    """diag(1,0,0) splits the points into {0} and {1, 2}; the closure holds e_0 =
    diag(1,0,0) but not diag(0,1,1), on which every diagonal generator is 0."""
    gens = [RatMatrix.diagonal([1, 0, 0]), _matrix_unit(3, 0, 1)]
    got = algebra_closure(discrete(gens))
    assert got.dimension == 2
    assert got == pool_closure(gens, unital=False) == dense_closure(gens, unital=False)
    assert not contains(got, RatMatrix.diagonal([0, 1, 1]))


def test_closure_skips_zero_generator():
    zero = RatMatrix([[0] * 3] * 3)
    a = RatMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for unital in (False, True):
        got = closure3([zero, a], unital)
        assert got == closure3([a], unital) == pool_closure([zero, a], unital)
        assert got.dimension == 3


def test_non_unital_closure_walks_only_generators_outside_the_span(monkeypatch):
    """The cyclic shift P generates {P, P^2, I}: P walks, and P^2 joins S unwalked.

    Spinning under both accepted generators made 6 products.
    """
    p = RatMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    gens = [p, p * p]
    calls = 0
    plain_product = Orbitals.product

    def counting_product(self, a, b):
        nonlocal calls
        calls += 1
        return plain_product(self, a, b)

    monkeypatch.setattr(Orbitals, "product", counting_product)
    got = closure3(gens, unital=False)
    monkeypatch.undo()
    assert calls == 3
    assert got.spin == [g.vec for g in discrete(gens)]
    assert got.dimension == 3
    assert got == pool_closure(gens, unital=False)


def test_closure_of_multiple_of_identity():
    two_i = RatMatrix.identity(3).scale(2)
    e11 = _matrix_unit(3, 0, 0)
    assert closure3([two_i], unital=False).dimension == 1
    assert closure3([two_i], unital=True).dimension == 1
    for unital in (False, True):
        got = closure3([two_i, e11], unital)
        assert got == pool_closure([two_i, e11], unital)
        assert got.dimension == 2


def test_closure_with_all_later_generators_dependent():
    a = RatMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    gens = [a, a.scale(3), -a, RatMatrix([[0] * 3] * 3)]
    for unital in (False, True):
        got = closure3(gens, unital)
        assert got == closure3([a], unital) == pool_closure(gens, unital)
    assert closure3(gens, unital=False).dimension == 2
    assert closure3(gens, unital=True).dimension == 3


@pytest.mark.parametrize(
    "q,n",
    [((2,), 3), ((3,), 2), ((2, 2, 2), 1), ((2,), 1), ((3,), 1)]
    + [((2,), 2), ((2, 2), 1), ((2, 3), 1), ((2, 2), 2), ((2,), 4)],
)
def test_terwilliger_closure_matches_pool_reference(q, n):
    """The dense oracle's instances up to 16 points: the pool engine takes 8 s on
    X(1,5;2) and 13 s on X(2,2;2,3), which are left to the dense walk alone."""
    inst = Instance(SchemeParams(q, n))
    data = dense_spectral(inst.base.params)
    duals = list(dense_family(inst, data.Estar).values())
    for generators, base in (("bm", data.A), ("idem", data.E)):
        reference = pool_closure(list(dense_family(inst, base).values()) + duals, unital=True)
        assert basis_matrices(terwilliger_closure(inst, generators)) == basis_matrices(reference)


def test_component_closures_match_pool_reference(monkeypatch):
    calls = []
    plain_closure = terwilliger_module.algebra_closure

    def recording_closure(gens):
        sub = plain_closure(gens)
        calls.append(([g.matrix() for g in gens], sub))
        return sub

    monkeypatch.setattr(terwilliger_module, "algebra_closure", recording_closure)
    terwilliger_module.component_dims(Instance(SchemeParams((3,), 2)))
    assert calls
    for gens, sub in calls:
        assert basis_matrices(sub) == basis_matrices(pool_closure(gens, unital=False))


def test_discrete_orbitals_are_the_row_major_vectorization():
    m = RatMatrix([[1, "1/2"], [0, -3]])
    orbitals = Orbitals(2)
    assert orbitals.count == 4 and orbitals.reps == [0, 1, 2, 3]
    assert orbitals.vector(m) == _flat(m) == [2, 1, 0, -6]
    assert orbitals.matrix(orbitals.vector(m), 2) == m


@pytest.mark.parametrize("q,n", [((2,), 3), ((3,), 2), ((2, 2), 2), ((2, 3), 1)])
def test_orbitals_are_labelled_by_first_pair(q, n):
    orbitals = Instance(SchemeParams(q, n)).orbitals
    assert orbitals.reps == sorted(orbitals.reps)
    assert all(orbitals.labels[rep] == o for o, rep in enumerate(orbitals.reps))
    assert all(orbitals.reps[label] <= p for p, label in enumerate(orbitals.labels))
    side = orbitals.side
    assert orbitals.diagonal == [orbitals.labels[x * (side + 1)] for x in range(side)]
    assert Orbitals(3).diagonal == [0, 4, 8]


def test_a_diagonal_orbital_holding_another_pair_is_refused():
    """Every off-diagonal pair is read: a stray pair in any row, its diagonal point's or not."""
    with pytest.raises(InternalMismatch, match="off-diagonal"):
        OrbitalMatrix.identity(Orbitals(2, [0, 0, 0, 0]))
    with pytest.raises(InternalMismatch, match="off-diagonal"):
        OrbitalMatrix(Orbitals(2, [0, 0, 0, 0]), [1]).trace()
    side = 4
    for x in range(side):
        for stray in (p for p in range(side * side) if p % (side + 1)):
            keys = [p // side if p % (side + 1) == 0 else "off" for p in range(side * side)]
            keys[stray] = x  # the pair stray joins the diagonal orbital of point x
            with pytest.raises(InternalMismatch, match="off-diagonal"):
                Orbitals(side, keys).diagonal
    apart = [p // side if p % (side + 1) == 0 else "off" for p in range(side * side)]
    assert Orbitals(side, apart).diagonal == [0, 2, 3, 4]  # "off" is orbital 1


@pytest.mark.parametrize("q,n", [((2,), 3), ((3,), 2), ((2, 3), 1)])
def test_orbital_product_matches_dense_product(q, n):
    inst = Instance(SchemeParams(q, n))
    orbitals = inst.orbitals
    npts = inst.params.num_points
    data = dense_spectral(inst.base.params)
    # integer multiples of T elements: A, E* and N * E
    mats = (
        list(dense_family(inst, data.A).values())
        + list(dense_family(inst, data.Estar).values())
        + [e.scale(npts) for e in dense_family(inst, data.E).values()]
    )
    for a in mats:
        for b in mats:
            got = orbitals.product(orbitals.vector(a), orbitals.vector(b))
            assert orbitals.matrix(got) == a * b


@pytest.mark.parametrize("q,n", [((2,), 3), ((3,), 2), ((2, 3), 1)])
def test_orbital_transpose_and_products_of_non_symmetric_elements(q, n):
    """E*_lam A_mu is not symmetric; products with a sparse right factor go through transposes."""
    inst = Instance(SchemeParams(q, n))
    orbitals = inst.orbitals
    data = dense_spectral(inst.base.params)
    duals, adjacency = (dense_family(inst, base) for base in (data.Estar, data.A))
    mats = [e * a for e in duals.values() for a in adjacency.values()]
    mats.append(RatMatrix.ones(inst.params.num_points))
    for a in mats:
        transposed = RatMatrix([list(col) for col in zip(*_entries(a))])
        assert orbitals.matrix(orbitals.transpose(orbitals.vector(a))) == transposed
        for b in mats:
            got = orbitals.product(orbitals.vector(a), orbitals.vector(b))
            assert orbitals.matrix(got) == a * b


def test_closure_keeps_its_spin_generators_and_a_span_only_its_rows():
    a = RatMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    sub = algebra_closure(discrete([a, a.scale(3), RatMatrix([[0] * 3] * 3)]))
    orbitals = sub.orbitals
    assert sub.spin == [orbitals.vector(a)]
    span = span_basis([a, a * a])
    assert span.spin is None
    assert span == sub


def test_vector_rejects_a_matrix_not_constant_on_an_orbital():
    orbitals = Instance(SchemeParams((2,), 2)).orbitals
    # 01 and 10 share the orbital of (01, 01), so a point mass at 01 is not constant
    with pytest.raises(InternalMismatch, match="not constant on orbital"):
        orbitals.vector(RatMatrix.diagonal([0, 1, 0, 0]))
    with pytest.raises(DimensionMismatch):
        orbitals.vector(RatMatrix.identity(3))


def test_is_indicator_reads_row_major_flags():
    inst = Instance(SchemeParams((2,), 2))
    for lam, a in inst.adjacency.items():
        flags = [s == lam for s in inst.pair_shapes]
        assert a.is_indicator(flags)
        assert not a.scale(2).is_indicator(flags)
        # the same grid over denominator 2 is not 0/1
        assert not a.scale(Fraction(1, 2)).is_indicator(flags)
        with pytest.raises(DimensionMismatch):
            a.is_indicator(flags[:-1])
    # flags not constant on an orbital match nothing
    assert not any(a.is_indicator([True] + [False] * 15) for a in inst.adjacency.values())


def test_subspace_equality_across_coordinates():
    inst = Instance(SchemeParams((3,), 2))
    eye = OrbitalMatrix.identity(inst.orbitals)
    orbital = algebra_closure([eye, *inst.adjacency.values(), *inst.duals.values()])
    data = dense_spectral(inst.base.params)
    dense_gens = [*dense_family(inst, data.A).values(), *dense_family(inst, data.Estar).values()]
    dense = dense_closure(dense_gens, unital=True)
    assert orbital.orbitals.count == 15 < dense.orbitals.count == 81
    # spans compare only in one coordinate system; their dense bases agree
    assert orbital != dense and basis_matrices(orbital) == basis_matrices(dense)
    assert contains(orbital, RatMatrix.identity(9))
    assert not contains(orbital, RatMatrix.diagonal([0, 1] + [0] * 7))


class _UnreadLabels(list):
    """Labels that fail any comparison, to show a reader compared them."""

    def __eq__(self, other):
        raise AssertionError("labels were compared")

    __ne__ = __eq__


def test_subspace_equality_on_one_orbitals_reads_no_labels():
    """Spans on one `Orbitals` compare their rows without comparing the N^2 labels."""
    inst = Instance(SchemeParams((3,), 2))
    a, b = (terwilliger_closure(inst, which) for which in ("bm", "idem"))
    orbitals = inst.orbitals
    unit = MatrixSubspace.span(orbitals, [OrbitalMatrix.identity(orbitals).vec])
    # spans on another `Orbitals` still compare its labels
    assert MatrixSubspace(Orbitals(orbitals.side, orbitals.labels), a._reducer) == a
    assert MatrixSubspace(Orbitals(orbitals.side), a._reducer) != a
    orbitals.labels = _UnreadLabels(orbitals.labels)
    assert a == b and a != unit


def _label(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize(
    "q,n", list(SUITE_INSTANCES) + [((2,), 4), ((2,), 5), ((2, 3), 2)], ids=_label
)
def test_terwilliger_closure_matches_dense_oracle(q, n):
    """Both generator sets, expanded from orbital coordinates, row for row."""
    inst = Instance(SchemeParams(q, n))
    data = dense_spectral(inst.base.params)
    duals = list(dense_family(inst, data.Estar).values())
    for generators, base in (("bm", data.A), ("idem", data.E)):
        got = terwilliger_closure(inst, generators)
        assert got.orbitals is inst.orbitals
        want = dense_closure(list(dense_family(inst, base).values()) + duals, unital=True)
        assert basis_matrices(got) == basis_matrices(want)


@pytest.mark.parametrize("q,n", [((3,), 2), ((2, 2), 2), ((3,), 3)], ids=_label)
def test_component_closures_match_dense_oracle(monkeypatch, q, n):
    calls = []
    plain_closure = terwilliger_module.algebra_closure

    def recording_closure(gens):
        sub = plain_closure(gens)
        calls.append(([g.matrix() for g in gens], sub))
        return sub

    monkeypatch.setattr(terwilliger_module, "algebra_closure", recording_closure)
    terwilliger_module.component_dims(Instance(SchemeParams(q, n)))
    assert len(calls) == n + 1
    for gens, sub in calls:
        assert basis_matrices(sub) == basis_matrices(dense_closure(gens, unital=False))


@pytest.mark.parametrize("q,n", [((2,), 3), ((2, 2), 2)], ids=_label)
def test_orbital_hadamard_trace_and_identity_match_the_dense_definitions(q, n):
    inst = Instance(SchemeParams(q, n))
    fams = [*inst.adjacency.values(), *inst.idempotents.values(), *inst.duals.values()]
    for a in fams:
        dense_a = a.matrix()
        assert a.trace() == dense_a.trace()
        assert a.trace() == sum((dense_a[x, x] for x in range(dense_a.nrows)), Fraction(0))
        for b in fams:
            assert a.hadamard(b).matrix() == hadamard(dense_a, b.matrix())
    identity = OrbitalMatrix.identity(inst.orbitals)
    assert identity.matrix() == RatMatrix.identity(inst.params.num_points)
    assert identity.trace() == inst.params.num_points
    assert all(identity * a == a == a * identity for a in fams)


def test_closure_rejects_generators_on_two_orbitals():
    a = RatMatrix.ones(3) - RatMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        algebra_closure(discrete([a]) + discrete([a]))
    inst = Instance(SchemeParams((2,), 2))
    with pytest.raises(DimensionMismatch):
        algebra_closure([*inst.adjacency.values(), *inst.base.duals.values()])


def test_orbital_arithmetic_rejects_operands_on_two_orbitals():
    """X(2,2;2,2): a depth-two matrix (55 orbitals) never meets a depth-one one (10)."""
    inst = Instance(SchemeParams((2, 2), 2))
    deep, shallow = next(iter(inst.adjacency.values())), next(iter(inst.base.adjacency.values()))
    assert deep.frame.count == 55 and shallow.frame.count == 10
    for x, y in ((deep, shallow), (shallow, deep)):
        for op in (add, sub, mul, OrbitalMatrix.hadamard):
            with pytest.raises(DimensionMismatch):
                op(x, y)


@st.composite
def reducer_inputs(draw):
    """Small vectors, mostly zeros, with repeats and combinations of earlier ones mixed in."""
    width = draw(st.integers(min_value=1, max_value=12))
    entry = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 6])
    vector = st.lists(entry, min_size=width, max_size=width)
    base = draw(st.lists(vector, min_size=1, max_size=8))
    index = st.integers(min_value=0, max_value=len(base) - 1)
    coeff = st.integers(min_value=-3, max_value=3)
    mixes = draw(st.lists(st.tuples(index, index, coeff, coeff), max_size=6))
    vecs = base + [[a * x + b * y for x, y in zip(base[i], base[j])] for i, j, a, b in mixes]
    return width, draw(st.permutations(vecs)), draw(st.lists(vector, max_size=3))


@settings(max_examples=300, deadline=None)
@given(reducer_inputs())
def test_sparse_reducer_matches_dense_oracle(case):
    width, vecs, probes = case
    sparse, dense = _RowReducer(), DenseRowReducer(width)
    for vec in vecs:
        assert sparse.insert(vec) == dense.insert(vec)
        assert sparse._rows == dense._rows
        assert sparse.dimension == dense.dimension
        for probe in probes + vecs:
            assert sparse.residual(probe) == dense.residual(probe)
