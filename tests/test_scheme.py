import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordered_hamming.exact_linalg as exact_linalg
import ordered_hamming.terwilliger as terwilliger_module
from ordered_hamming.cli import main
from ordered_hamming.scheme import (
    block_sums,
    intersection_counts,
    multiset_orbitals,
    pair_shapes,
)
from ordered_hamming import (
    Instance,
    InternalMismatch,
    RatMatrix,
    SchemeParams,
    SizeBound,
    enumerate_shapes,
    Orbitals,
    valency_n,
    verify_axioms,
)

import dense_oracle
from dense_oracle import (
    dense_scheme_checks,
    dense_stabilizer_maps,
    is_symmetric,
    is_zero_one,
    iter_points,
    point_sub,
    profile_intersection_counts,
    relation_matrices,
    row_sums,
    searched_orbitals,
    shape_of,
    stabilizer_maps,
    stabilizer_orbitals,
)


def reference_pair_shapes(params):
    """The definition, pair by pair: shape_of(x - y) for all N^2 pairs, row-major."""
    pts = iter_points(params)
    return [shape_of(point_sub(x, y, params), params) for x in pts for y in pts]


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams((1, 2), 2)
    with pytest.raises(ValueError):
        SchemeParams((2,), 0)
    with pytest.raises(ValueError):
        SchemeParams((), 1)


def test_shape_enumeration_order_and_counts():
    assert enumerate_shapes(SchemeParams((2, 2), 2)) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]
    assert enumerate_shapes(SchemeParams((2,), 3)) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert len(enumerate_shapes(SchemeParams((2, 2, 2), 1))) == 4


def test_shape_of_examples():
    params = SchemeParams((2, 2), 2)
    assert shape_of(((0, 0), (0, 0)), params) == (2, 0, 0)
    assert shape_of(((1, 0), (0, 1)), params) == (0, 1, 1)
    assert shape_of(((1, 1), (1, 1)), params) == (0, 0, 2)


def test_diagonal_relation_is_identity():
    assert relation_matrices(Instance(SchemeParams((2, 3), 1)))[(1, 0, 0)] == RatMatrix.identity(6)


def test_single_block_relation_of_triangle():
    triangle = relation_matrices(Instance(SchemeParams((3,), 1)))[(0, 1)]
    assert triangle == RatMatrix.ones(3) - RatMatrix.identity(3)


def test_binary_pair_swap_relation():
    # points in order: 00, 01, 10, 11; the all-flips relation swaps 00<->11, 01<->10
    expected = RatMatrix(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    )
    assert relation_matrices(Instance(SchemeParams((2,), 2)))[(0, 2)] == expected


@pytest.mark.parametrize("q,n", [((3,), 1), ((2, 2), 2), ((2, 2, 2), 1), ((2, 3), 1)])
def test_axioms_hold(q, n):
    assert all(verify_axioms(Instance(SchemeParams(q, n))).values())


@pytest.mark.parametrize("q,n", [((2, 3), 1), ((2,), 2), ((2, 2), 2)])
def test_relations_partition_all_pairs(q, n):
    params = SchemeParams(q, n)
    mats = relation_matrices(Instance(params))
    total = None
    for mat in mats.values():
        assert is_symmetric(mat)
        assert is_zero_one(mat)
        total = mat if total is None else total + mat
    assert total == RatMatrix.ones(params.num_points)


@pytest.mark.parametrize("q,n", [((2, 3), 1), ((2,), 2), ((2, 2), 2)])
def test_relation_row_sums_match_valency_formula(q, n):
    params = SchemeParams(q, n)
    for lam, mat in relation_matrices(Instance(params)).items():
        assert set(row_sums(mat)) == {valency_n(lam, params)}


def test_intersection_numbers_on_triangle():
    table = Instance(SchemeParams((3,), 1)).intersection_counts
    assert table[((0, 1), (0, 1), (0, 1))] == 1


def test_intersection_number_of_four_cycle():
    table = Instance(SchemeParams((2,), 2)).intersection_counts
    assert table[((1, 1), (1, 1), (2, 0))] == 2


@pytest.mark.parametrize("q,n", [((2, 3), 1), ((2,), 2)])
def test_valency_diagonal_identity(q, n):
    params = SchemeParams(q, n)
    table = Instance(params).intersection_counts
    shapes = enumerate_shapes(params)
    diag = shapes[0]
    for lam in shapes:
        assert table[(lam, lam, diag)] == valency_n(lam, params)
        for mu in shapes:
            if mu != lam:
                assert table[(lam, mu, diag)] == 0


@pytest.mark.parametrize("q,n", [((2, 3), 1), ((2,), 2)])
def test_products_decompose_exactly(q, n):
    params = SchemeParams(q, n)
    inst = Instance(params)
    mats = relation_matrices(inst)
    table = inst.intersection_counts
    shapes = enumerate_shapes(params)
    for i in shapes:
        for j in shapes:
            recon = None
            for k in shapes:
                term = mats[k].scale(table[(i, j, k)])
                recon = term if recon is None else recon + term
            assert recon == mats[i] * mats[j]


def test_size_bound_enforced():
    params = SchemeParams((2, 2), 2)
    with pytest.raises(SizeBound):
        Instance(params, max_points=15)
    assert all(verify_axioms(Instance(params, max_points=16)).values())


def test_axioms_and_intersection_numbers_count_the_sweep_once_per_instance(monkeypatch):
    passes = []
    plain = terwilliger_module.intersection_counts

    def counting(sweep, shapes):
        passes.append(len(sweep))
        return plain(sweep, shapes)

    monkeypatch.setattr(terwilliger_module, "intersection_counts", counting)
    for params in (SchemeParams((2, 3), 1), SchemeParams((2,), 2)):
        inst = Instance(params)
        verify_axioms(inst)
        inst.intersection_counts
        verify_axioms(inst)
    assert passes == [36, 16]


def test_scheme_verify_builds_no_matrix(monkeypatch, capsys):
    products = []
    built = []
    plain_mul, plain_init = RatMatrix.__mul__, exact_linalg._Exact.__init__

    def counting_mul(self, other):
        if isinstance(other, RatMatrix):
            products.append((self.nrows, other.ncols))
        return plain_mul(self, other)

    def counting_init(self, frame, vec, den=1):
        plain_init(self, frame, vec, den)
        if isinstance(self, RatMatrix):
            built.append(self.nrows)

    monkeypatch.setattr(RatMatrix, "__mul__", counting_mul)
    # every matrix, products and `Orbitals.matrix` included, is made by the one constructor
    monkeypatch.setattr(exact_linalg._Exact, "__init__", counting_init)
    # nor is a structure table built: the R4 rows hold every p^k_ij
    tables = []
    plain_table = Orbitals._table.func

    def counting_table(self):
        tables.append(self.side)
        return plain_table(self)

    monkeypatch.setattr(Orbitals, "_table", property(counting_table))
    assert main(["scheme-verify", "--q", "2,3", "--n", "1", "--json"]) == 0
    assert '"R4_constants_well_defined":true' in capsys.readouterr().out
    assert products == [] and built == [] and tables == []
    # the counters see the dense path when it is taken
    inst = Instance(SchemeParams((2, 3), 1))
    identity = relation_matrices(inst)[inst.shapes[0]]
    assert identity * identity == identity
    assert built == [6] * (len(inst.shapes) + 1) and len(products) == 1


@pytest.mark.parametrize(
    "q,n", [((5, 6), 1), ((2, 3), 2), ((2, 2), 3), ((4, 3, 2), 1), ((2,) * 6, 1)]
)
def test_pair_shapes_matches_the_definition(q, n):
    params = SchemeParams(q, n)
    sweep = pair_shapes(params)
    assert sweep == reference_pair_shapes(params)
    # equal shapes are one object
    assert len({id(lam) for lam in sweep}) == len(set(sweep))


@pytest.mark.parametrize("q,n", [((2,), 2), ((3,), 2), ((2, 3), 1), ((2, 2), 2)])
def test_sweep_counts_match_dense_decomposition_on_schemes(q, n):
    inst = Instance(SchemeParams(q, n))
    checks, table = dense_scheme_checks(inst.shapes, relation_matrices(inst))
    assert all(checks.values())
    assert verify_axioms(inst) == checks
    assert list(inst.intersection_counts.items()) == list(table.items())


@st.composite
def symmetric_labellings(draw):
    """A symmetric labelling of 2-7 points by 2-4 labels.

    Half of them keep the first label for the diagonal and only there.
    """
    npts = draw(st.integers(min_value=2, max_value=7))
    labels = [(k,) for k in range(draw(st.integers(min_value=2, max_value=4)))]
    diagonal_apart = draw(st.booleans())
    upper = {}
    for x in range(npts):
        for y in range(x, npts):
            if diagonal_apart:
                upper[x, y] = labels[0] if x == y else draw(st.sampled_from(labels[1:]))
            else:
                upper[x, y] = draw(st.sampled_from(labels))
    sweep = tuple(upper[min(x, y), max(x, y)] for x in range(npts) for y in range(npts))
    return labels, sweep


@settings(max_examples=150, deadline=None)
@given(symmetric_labellings())
def test_sweep_counts_match_dense_decomposition_on_any_labelling(labelling):
    labels, sweep = labelling
    npts = math.isqrt(len(sweep))
    inst = Instance(SchemeParams((npts,), 1))
    inst.shapes = labels
    inst.__dict__["pair_shapes"] = sweep
    checks, table = dense_scheme_checks(labels, relation_matrices(inst))
    assert verify_axioms(inst) == checks
    got = inst.intersection_counts
    assert (got is None) == (table is None)
    assert got is None or list(got.items()) == list(table.items())


@pytest.mark.parametrize("q,n", [((2, 3), 2), ((2, 2, 2), 2), ((3,), 4)])
def test_packed_row_check_matches_the_profile_count(q, n):
    params = SchemeParams(q, n)
    sweep, shapes = tuple(pair_shapes(params)), enumerate_shapes(params)
    got = intersection_counts(sweep, shapes)
    assert list(got.items()) == list(profile_intersection_counts(sweep, shapes).items())


@st.composite
def labellings(draw):
    """Labellings of 2-6 points that may be non-symmetric and may use the label (9,).

    `shapes` holds 1-3 labels and never (9,). Half of the labellings depend only
    on y - x mod N, which keeps every row a shift of row 0 and makes R4 hold
    more often; the rest are drawn pair by pair.
    """
    npts = draw(st.integers(min_value=2, max_value=6))
    shapes = [(k,) for k in range(draw(st.integers(min_value=1, max_value=3)))]
    pool = st.sampled_from(shapes + [(9,)])
    if draw(st.booleans()):
        by_difference = [draw(pool) for _ in range(npts)]
        sweep = tuple(by_difference[(y - x) % npts] for x in range(npts) for y in range(npts))
    else:
        sweep = tuple(draw(pool) for _ in range(npts * npts))
    return shapes, sweep


@settings(max_examples=300, deadline=None)
@given(labellings())
def test_packed_row_check_matches_the_profile_count_on_any_labelling(labelling):
    shapes, sweep = labelling
    got = intersection_counts(sweep, shapes)
    want = profile_intersection_counts(sweep, shapes)
    assert (got is None) == (want is None)
    assert got is None or list(got.items()) == list(want.items())


@settings(max_examples=300, deadline=None)
@given(labellings())
def test_axioms_match_dense_checks_on_any_labelling(labelling):
    shapes, sweep = labelling
    npts = math.isqrt(len(sweep))
    inst = Instance(SchemeParams((npts,), 1))
    inst.shapes = shapes
    inst.__dict__["pair_shapes"] = sweep
    checks, _ = dense_scheme_checks(shapes, relation_matrices(inst))
    got = verify_axioms(inst)
    # R4 and R5 only on a partition: the dense products see the matrices of
    # `shapes` alone, while the sweep may also hold (9,)
    keys = list(checks) if checks["R2_partition"] else list(checks)[:3]
    assert {key: got[key] for key in keys} == {key: checks[key] for key in keys}


@pytest.mark.parametrize(
    "rows",
    [
        # relation 0 has rows of 2, 1 and 0 pairs, and both relations hold at
        # least N (c - 1) = 3 pairs, so the lists (0, 1) and (1, 1) are
        # derived; A_0 A_0 and A_1 A_0 are constant on each relation, and R4
        # fails only at the derived lists
        ((0, 1, 0), (1, 0, 1), (1, 1, 1)),
        # A_2 A_0 and A_2 A_1 are constant on relations 0 and 1 but for their
        # first pairs (0, 0) and (0, 1), where p^k_ij is read
        ((0, 1, 2), (1, 0, 2), (1, 0, 2)),
    ],
)
def test_r4_fails_on_a_derived_list_and_off_the_first_pair(rows):
    npts = len(rows)
    shapes = [(k,) for k in range(max(map(max, rows)) + 1)]
    sweep = tuple((k,) for row in rows for k in row)
    inst = Instance(SchemeParams((npts,), 1))
    inst.shapes = shapes
    inst.__dict__["pair_shapes"] = sweep
    checks, table = dense_scheme_checks(shapes, relation_matrices(inst))
    assert table is None and intersection_counts(sweep, shapes) is None
    assert profile_intersection_counts(sweep, shapes) is None
    got = verify_axioms(inst)
    assert got == checks
    assert (got["R4_constants_well_defined"], got["R5_constants_commute"]) == (False, None)


@pytest.mark.parametrize("npts", [4, 8])
def test_one_relation_counts_n_at_a_power_of_two(npts):
    """J J = N J: every entry of the one product is N, the largest any product holds."""
    sweep = ((0,),) * npts**2
    assert intersection_counts(sweep, [(0,)]) == {((0,), (0,), (0,)): npts}
    assert profile_intersection_counts(sweep, [(0,)]) == {((0,), (0,), (0,)): npts}


@pytest.mark.parametrize(
    "pair,label,failed",
    [
        (0, (1, 1), "R1_diagonal_relation"),
        (1, (1,), "R2_partition"),
        (1, (0, 2), "R3_symmetric"),
        (71, (0, 2), "R3_symmetric"),  # the pair (7, 8): both in the last rows
    ],
)
def test_doctored_sweep_fails_r1_to_r3(pair, label, failed):
    params = SchemeParams((3,), 2)
    sweep = pair_shapes(params)
    sweep[pair] = label
    inst = Instance(params)
    inst.__dict__["pair_shapes"] = tuple(sweep)
    assert verify_axioms(inst)[failed] is False


@pytest.mark.parametrize(
    "q,n", [((2,), 3), ((3,), 2), ((2, 3), 1), ((2, 2), 2), ((3, 2), 2), ((2, 2, 2), 1)]
)
def test_stabilizer_maps_fix_zero_and_keep_every_relation(q, n):
    """The oracle's depth-one value swaps, and its depth-n maps built from them."""
    params = SchemeParams(q, n)
    pts = iter_points(params)
    for perm in dense_stabilizer_maps(params):
        assert sorted(perm) == list(range(len(pts))) and perm[0] == 0
        for x, px in zip(pts, perm):
            for y, py in zip(pts, perm):
                assert shape_of(point_sub(pts[px], pts[py], params), params) == shape_of(
                    point_sub(x, y, params), params
                )


def test_stabilizer_maps_of_one_block():
    # X(1,1;3): the only move fixing 0 swaps the values 1 and 2
    assert stabilizer_maps(SchemeParams((3,), 1)) == [(0, 2, 1)]
    # X(2,1;2,2): coordinate 1 under the setting 1 of coordinate 2 swaps 01 and 11
    assert stabilizer_maps(SchemeParams((2, 2), 1)) == [(0, 3, 2, 1)]
    # X(1,3;2): the oracle's block transposition and 3-cycle, no value swap
    assert len(dense_stabilizer_maps(SchemeParams((2,), 3))) == 2
    # the value swaps act on one block only
    for params in (SchemeParams((2,), 3), SchemeParams((3,), 2)):
        with pytest.raises(ValueError, match="one block"):
            stabilizer_maps(params)
        with pytest.raises(ValueError, match="one block"):
            stabilizer_orbitals(params, pair_shapes(params))


@pytest.mark.parametrize(
    "q,n,orbitals", [((2,), 4, 35), ((2, 2), 2, 55), ((3,), 2, 15), ((2, 3), 1, 11)]
)
def test_orbital_counts(q, n, orbitals):
    # these equal dim T, measured by the closure tests
    assert Instance(SchemeParams(q, n)).orbitals.count == orbitals


@pytest.mark.parametrize(
    "q,n", [((2,), 4), ((3,), 3), ((2, 2), 2), ((2, 3), 2), ((2, 2), 3), ((2, 2, 2), 2)]
)
def test_multiset_labels_equal_the_orbit_search(q, n):
    """The depth-n labels and representatives are those of the search over G1 wr S_n."""
    params = SchemeParams(q, n)
    orbitals = Instance(params).orbitals
    maps = dense_stabilizer_maps(params)
    assert (orbitals.labels, orbitals.reps) == searched_orbitals(params.num_points, maps)
    # r = C(r1 + n - 1, n): every multiset of n depth-one orbitals occurs
    r1 = Instance(SchemeParams(q, 1)).orbitals.count
    assert orbitals.count == math.comb(r1 + n - 1, n)


@pytest.mark.parametrize(
    "q",
    [
        (2,), (3,), (4,), (5,), (7,), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (3, 3),
        (5, 6), (2, 2, 2), (2, 3, 4), (4, 3, 2), (3, 3, 3), (6, 2, 2), (2, 2, 2, 2),
        (2, 2, 2, 3), (3, 2, 2, 2), (2,) * 5, (2,) * 6, (2,) * 7, (2,) * 8,
    ],
    ids=lambda q: ",".join(map(str, q)),
)
def test_shape_triples_equal_the_orbit_search(q):
    """The depth-one labels and representatives are those of the search over the value swaps.

    No closed-form check replaces this one: a key without shape(0 - y) keeps
    every A, E and E* constant on its classes, but its products are wrong.
    """
    params = SchemeParams(q, 1)
    orbitals = Instance(params).orbitals
    oracle = stabilizer_orbitals(params, pair_shapes(params))
    assert (orbitals.labels, orbitals.reps) == (oracle.labels, oracle.reps)


@st.composite
def block_labellings(draw):
    """A labelling of the pairs of 2-4 points by 1-5 labels, any pair any label, and n in 1..3."""
    side = draw(st.integers(min_value=2, max_value=4))
    keys = draw(st.lists(st.integers(0, 4), min_size=side * side, max_size=side * side))
    return Orbitals(side, keys), draw(st.integers(min_value=1, max_value=3))


@settings(max_examples=100, deadline=None)
@given(block_labellings())
def test_multiset_orbitals_follow_the_definition(labelling):
    """Pairs of n-block points share an orbital exactly when their block labels agree as multisets.

    The labelling need not come from a group, nor be closed under
    transposition, so reading a block pair transposed shows here.
    """
    base, n = labelling
    side = base.side
    pts = list(product(range(side), repeat=n))

    def multiset(x, y):
        return tuple(sorted(base.labels[a * side + b] for a, b in zip(x, y)))

    got = multiset_orbitals(base, n)
    assert got.labels == Orbitals(side**n, (multiset(x, y) for x in pts for y in pts)).labels


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_sums_add_the_block_entries(n):
    table = [[1, 20], [300, 4000]]  # not symmetric, so a transposed read shows
    pts = list(product(range(2), repeat=n))
    rows = [list(row) for row in block_sums(table, n)]
    assert rows == [[sum(table[a][b] for a, b in zip(x, y)) for y in pts] for x in pts]


# X(2,1;2,2) has the points 00, 01, 10, 11 in flat-index order
@pytest.mark.parametrize(
    "bad,reason",
    [
        ((1, 0, 2, 3), "moves the zero point"),
        ((0, 1, 3, 2), "changes the shape"),
        ((0, 1, 1, 3), "not a permutation"),
        ((0, 2, 1), "not a permutation"),
    ],
)
def test_stabilizer_orbitals_reject_a_bad_map(monkeypatch, bad, reason):
    params = SchemeParams((2, 2), 1)
    good = stabilizer_maps(params)
    monkeypatch.setattr(dense_oracle, "stabilizer_maps", lambda p: good + [bad])
    with pytest.raises(InternalMismatch, match=reason):
        stabilizer_orbitals(params, pair_shapes(params))
