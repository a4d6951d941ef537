import pytest

import ordered_hamming.scheme as scheme_module
from ordered_hamming.scheme import pair_shapes
from ordered_hamming import (
    Instance,
    InternalMismatch,
    RatMatrix,
    SchemeParams,
    SizeBound,
    enumerate_shapes,
    intersection_numbers,
    iter_points,
    point_sub,
    shape_of,
    stabilizer_maps,
    stabilizer_orbitals,
    valency_n,
    verify_axioms,
)


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
    assert Instance(SchemeParams((2, 3), 1)).relations[(1, 0, 0)] == RatMatrix.identity(6)


def test_single_block_relation_of_triangle():
    triangle = Instance(SchemeParams((3,), 1)).relations[(0, 1)]
    assert triangle == RatMatrix.ones(3) - RatMatrix.identity(3)


def test_binary_pair_swap_relation():
    # points in order: 00, 01, 10, 11; the all-flips relation swaps 00<->11, 01<->10
    expected = RatMatrix(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    )
    assert Instance(SchemeParams((2,), 2)).relations[(0, 2)] == expected


@pytest.mark.parametrize("q,n", [((3,), 1), ((2, 2), 2), ((2, 2, 2), 1), ((2, 3), 1)])
def test_axioms_hold(q, n):
    assert all(verify_axioms(Instance(SchemeParams(q, n))).values())


@pytest.mark.parametrize("q,n", [((2, 3), 1), ((2,), 2), ((2, 2), 2)])
def test_relations_partition_all_pairs(q, n):
    params = SchemeParams(q, n)
    mats = Instance(params).relations
    total = None
    for mat in mats.values():
        assert mat.is_symmetric()
        assert mat.is_zero_one()
        total = mat if total is None else total + mat
    assert total == RatMatrix.ones(params.num_points)


@pytest.mark.parametrize("q,n", [((2, 3), 1), ((2,), 2), ((2, 2), 2)])
def test_relation_row_sums_match_valency_formula(q, n):
    params = SchemeParams(q, n)
    for lam, mat in Instance(params).relations.items():
        assert set(mat.row_sums()) == {valency_n(lam, params)}


def test_intersection_numbers_on_triangle():
    table = intersection_numbers(Instance(SchemeParams((3,), 1)))
    assert table[((0, 1), (0, 1), (0, 1))] == 1


def test_intersection_number_of_four_cycle():
    table = intersection_numbers(Instance(SchemeParams((2,), 2)))
    assert table[((1, 1), (1, 1), (2, 0))] == 2


@pytest.mark.parametrize("q,n", [((2, 3), 1), ((2,), 2)])
def test_valency_diagonal_identity(q, n):
    params = SchemeParams(q, n)
    table = intersection_numbers(Instance(params))
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
    mats = inst.relations
    table = intersection_numbers(inst)
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


def test_axioms_and_intersection_numbers_share_one_product_pass(monkeypatch):
    products = []
    plain_mul = RatMatrix.__mul__

    def counting_mul(self, other):
        if isinstance(other, RatMatrix):
            products.append((self.nrows, other.ncols))
        return plain_mul(self, other)

    monkeypatch.setattr(RatMatrix, "__mul__", counting_mul)
    inst = Instance(SchemeParams((2, 3), 1))
    verify_axioms(inst)
    intersection_numbers(inst)
    assert len(products) == len(inst.shapes) ** 2


@pytest.mark.parametrize(
    "q,n", [((2,), 3), ((3,), 2), ((2, 3), 1), ((2, 2), 2), ((3, 2), 2), ((2, 2, 2), 1)]
)
def test_stabilizer_maps_fix_zero_and_keep_every_relation(q, n):
    params = SchemeParams(q, n)
    pts = iter_points(params)
    for perm in stabilizer_maps(params):
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
    # X(1,3;2): the block transposition and the 3-cycle, no value swap
    assert len(stabilizer_maps(SchemeParams((2,), 3))) == 2


@pytest.mark.parametrize(
    "q,n,orbitals", [((2,), 4, 35), ((2, 2), 2, 55), ((3,), 2, 15), ((2, 3), 1, 11)]
)
def test_orbital_counts(q, n, orbitals):
    # these equal dim T, measured by the closure tests
    params = SchemeParams(q, n)
    assert stabilizer_orbitals(params, pair_shapes(params)).count == orbitals


# X(1,2;2) has the points 00, 01, 10, 11 in flat-index order
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
    params = SchemeParams((2,), 2)
    good = stabilizer_maps(params)
    monkeypatch.setattr(scheme_module, "stabilizer_maps", lambda p: good + [bad])
    with pytest.raises(InternalMismatch, match=reason):
        stabilizer_orbitals(params, pair_shapes(params))
    with pytest.raises(InternalMismatch, match=reason):
        Instance(params).orbitals
