"""The center, the primary sandwiches and the component checks against dense oracles.

`center_dimension`, `primary_subalgebra` and `component_dims` measure in
orbital coordinates, from the spin generators of each closure. The oracles
here are the dense computations they replaced: the commutant loop over
basis pairs, the sandwiches as dense `RatMatrix` products, and the
commutativity and annihilation checks over every pair of basis elements.
The masked center is also checked against the commutators [b, s] stacked
over the whole spin set, which it replaced. The primary oracle keeps the
literal multiplication law over every triple of sandwiches, and also runs
on doctored families, against the one identity per class the package checks.
"""

import math
from fractions import Fraction

import pytest

import ordered_hamming.terwilliger as terwilliger_module
from ordered_hamming import (
    Instance,
    Orbitals,
    RatMatrix,
    SchemeParams,
    algebra_closure,
    center_dimension,
    component_dims,
    primary_subalgebra,
    terwilliger_closure,
    valency_n,
)
from ordered_hamming.cli import SUITE_INSTANCES
from ordered_hamming.exact_linalg import OrbitalMatrix, mat_sum

from dense_oracle import (
    DenseRowReducer,
    _flat,
    basis_matrices,
    dense_family,
    dense_spectral,
    discrete,
    rows_in_one_block,
    span_basis,
    stacked_center_dimension,
)

ORACLE_INSTANCES = list(SUITE_INSTANCES) + [((3,), 2), ((2,), 4), ((3,), 3)]
CENTER_INSTANCES = list(SUITE_INSTANCES) + [((2, 3), 2), ((2, 2, 2), 2)]


def _label(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _nullspace(mats):
    """Integer basis of {c : sum_k c[k] * mats[k] = 0}, free coordinates ascending."""
    width = len(mats)
    # Scaling every entry row by one factor keeps the nullspace.
    den = math.lcm(*(m.den for m in mats))
    cols = [[a * (den // m.den) for a in _flat(m)] for m in mats]
    red = DenseRowReducer(width)
    for row in zip(*cols):
        red.insert(row)
    pivots = set(red.pivots)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        used = [(row, p) for row, p in zip(red.rows, red.pivots) if row[free]]
        lead = math.lcm(*(row[p] for row, p in used))
        vec = [0] * width
        vec[free] = lead
        for row, p in used:
            vec[p] = -row[free] * (lead // row[p])
        basis.append(vec)
    return basis


def dense_center_dimension(alg):
    """Reference center: the commutant of the dense basis, one basis element at a time."""
    basis = basis_matrices(alg)
    current = list(basis)
    for b in basis:
        if not current:
            break
        comms = [z * b - b * z for z in current]
        if all(c.is_zero() for c in comms):
            continue
        current = [
            mat_sum(z.scale(c) for z, c in zip(current, coeffs) if c)
            for coeffs in _nullspace(comms)
        ]
    return len(current)


def dense_primary_subalgebra(inst, idems=None, duals=None):
    """Reference primary subalgebra: the sandwiches as dense products, in dense coordinates.

    The families default to the dense lifts of the closed forms; given ones
    (dicts of `OrbitalMatrix` by shape, say doctored) are expanded instead.
    """
    params = inst.params
    shapes = inst.shapes
    data = dense_spectral(inst.base.params)
    idems, duals = (
        dense_family(inst, base) if fam is None else {lam: x.matrix() for lam, x in fam.items()}
        for fam, base in ((idems, data.E), (duals, data.Estar))
    )
    e0n = idems[shapes[0]]
    sandwich = {(lam, mu): duals[lam] * e0n * duals[mu] for lam in shapes for mu in shapes}
    sub = span_basis(list(sandwich.values()))
    law_ok = all(
        (duals[mu] * duals[nu]).is_zero() for mu in shapes for nu in shapes if mu != nu
    ) and all(
        sandwich[(lam, mu)] * sandwich[(mu, rho)]
        == sandwich[(lam, rho)].scale(Fraction(valency_n(mu, params), params.num_points))
        for lam in shapes
        for mu in shapes
        for rho in shapes
    )
    dual0n = duals[shapes[0]]
    dual_span = span_basis([idems[lam] * dual0n * idems[mu] for lam in shapes for mu in shapes])
    checks = {
        "primary_dimension_is_class_count_squared": sub.dimension == params.class_count**2,
        "primary_multiplication_law": law_ok,
        "primary_dual_span_matches": dual_span == sub,
    }
    return sub, checks


def dense_commutative(piece):
    basis = basis_matrices(piece)
    return all(x * y == y * x for i, x in enumerate(basis) for y in basis[i + 1 :])


def dense_annihilate(x, y):
    return all(
        (a * b).is_zero() and (b * a).is_zero()
        for a in basis_matrices(x)
        for b in basis_matrices(y)
    )


def _unit(n, i, j):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return RatMatrix(rows)


@pytest.mark.parametrize("q,n", ORACLE_INSTANCES, ids=_label)
def test_center_matches_dense_oracle(q, n):
    alg = terwilliger_closure(Instance(SchemeParams(q, n)))
    assert center_dimension(alg) == dense_center_dimension(alg)


@pytest.mark.parametrize(
    "q,n,generators",
    [(q, n, "bm") for q, n in CENTER_INSTANCES]
    # idem spins under dense E_λ; X(3,2;2,2,2) alone would take seconds in the oracle
    + [(q, n, "idem") for q, n in CENTER_INSTANCES[:-1]],
    ids=_label,
)
def test_masked_center_matches_stacked_oracle(q, n, generators):
    """The masks and the kernel step against [b, s] stacked over every s in S."""
    alg = terwilliger_closure(Instance(SchemeParams(q, n)), generators)
    assert center_dimension(alg) == stacked_center_dimension(alg)


@pytest.mark.parametrize("q,n", ORACLE_INSTANCES, ids=_label)
def test_primary_matches_dense_oracle(q, n):
    inst = Instance(SchemeParams(q, n))
    sub, checks = primary_subalgebra(inst)
    dense_sub, dense_checks = dense_primary_subalgebra(inst)
    assert sub.orbitals is inst.orbitals
    assert basis_matrices(sub) == basis_matrices(dense_sub)
    assert checks == dense_checks


def _doctor(how, shapes, idems, duals):
    """Break E or E* in one of four ways, on families in discrete coordinates."""
    s0, s1, s2, last = shapes[0], shapes[1], shapes[2], shapes[-1]
    if how == "e0_raised":
        e0 = idems[s0]
        idems[s0] = OrbitalMatrix(e0.frame, [a + e0.den for a in e0.vec], e0.den)
    elif how == "duals_swapped":
        duals[s1], duals[s2] = duals[s2], duals[s1]
    elif how == "dual_summed":
        duals[s1] = duals[s1] + duals[s2]
    else:  # "point_dropped": the last diagonal point of the last E*
        side, vec = duals[last].frame.side, list(duals[last].vec)
        vec[max(p for p in range(0, side * side, side + 1) if vec[p])] = 0
        duals[last] = OrbitalMatrix(duals[last].frame, vec, duals[last].den)


@pytest.mark.parametrize("how", ["e0_raised", "duals_swapped", "dual_summed", "point_dropped"])
@pytest.mark.parametrize(
    "q,n", [((2,), 2), ((3,), 2), ((2, 3), 1), ((2, 2), 2), ((3, 2), 1), ((2, 2, 2), 1)],
    ids=_label,
)
def test_doctored_families_match_the_literal_law(q, n, how):
    """The C identities read the primary law as the oracle's C^3 products do, on broken families.

    The families are taken to discrete coordinates, each pair its own
    orbital, so one diagonal point can be dropped. Swapping E*_1 and E*_2
    relabels two classes, which keeps the law exactly when their valencies
    agree (k = 4 for both on X(1,2;3)).
    """
    params = SchemeParams(q, n)
    inst = Instance(params)
    discrete = Orbitals(params.num_points)
    idems, duals = (
        {
            lam: OrbitalMatrix(discrete, [x.vec[o] for o in x.frame.labels], x.den)
            for lam, x in fam.items()
        }
        for fam in (inst.idempotents, inst.duals)
    )
    _doctor(how, inst.shapes, idems, duals)
    inst.__dict__.update(orbitals=discrete, idempotents=idems, duals=duals)
    _, checks = primary_subalgebra(inst)
    assert checks == dense_primary_subalgebra(inst, idems, duals)[1]
    k1, k2 = (valency_n(lam, params) for lam in inst.shapes[1:3])
    assert checks["primary_multiplication_law"] is (how == "duals_swapped" and k1 == k2)


@pytest.mark.parametrize(
    "q,n", [(q, n) for q, n in ORACLE_INSTANCES if q != (2,)], ids=_label
)
def test_component_checks_match_dense_oracle(monkeypatch, q, n):
    pieces = []
    plain_closure = terwilliger_module.algebra_closure

    def recording_closure(gens):
        pieces.append(sub := plain_closure(gens))
        return sub

    monkeypatch.setattr(terwilliger_module, "algebra_closure", recording_closure)
    components, checks = component_dims(Instance(SchemeParams(q, n)))
    # a degree with no nonzero spanning matrix runs no closure and has dim 0
    measured = [info.commutative for info in components if info.dim]
    assert measured == [dense_commutative(piece) for piece in pieces]
    assert checks == {
        "components_pairwise_annihilating": all(
            dense_annihilate(x, y) for a, x in enumerate(pieces) for y in pieces[a + 1 :]
        )
    }


@pytest.mark.parametrize("q,n", ORACLE_INSTANCES, ids=_label)
def test_closure_rows_lie_in_one_block(monkeypatch, q, n):
    """T from either generator set, and every component piece, is the direct sum of its blocks."""
    closures = []
    plain_closure = terwilliger_module.algebra_closure

    def recording_closure(gens):
        closures.append(sub := plain_closure(gens))
        return sub

    monkeypatch.setattr(terwilliger_module, "algebra_closure", recording_closure)
    inst = Instance(SchemeParams(q, n))
    for generators in ("bm", "idem"):
        terwilliger_closure(inst, generators)
    if q != (2,):  # X(1,n;2) has no G families, so no component pieces
        component_dims(inst)
        assert len(closures) > 2
    assert all(map(rows_in_one_block, closures))


def test_center_uses_every_spin_generator():
    """Upper triangular 2x2: scalars only, but each generator alone leaves a 2-dim commutant."""
    e11, e12 = _unit(2, 0, 0), _unit(2, 0, 1)
    eye = RatMatrix.identity(2)
    alg = algebra_closure(discrete([eye, e11, e12]))
    assert alg.dimension == 3 and len(alg.spin) == 3
    assert center_dimension(alg) == dense_center_dimension(alg) == 1
    for gen in (e11, e12):
        assert center_dimension(algebra_closure(discrete([eye, gen]))) == 2


def test_spin_generators_decide_commutativity_and_annihilation():
    orbitals = Orbitals(3)

    def piece(*gens):
        return algebra_closure([OrbitalMatrix.of(orbitals, g) for g in gens])

    def annihilating(x, y):
        return terwilliger_module._annihilating(orbitals.product, x.spin, y.spin)

    e01, e12, e11, e22 = _unit(3, 0, 1), _unit(3, 1, 2), _unit(3, 1, 1), _unit(3, 2, 2)
    # E_01 E_12 = E_02 but E_12 E_01 = 0: one order vanishes, the other does not
    assert not annihilating(piece(e01), piece(e12))
    assert not annihilating(piece(e12), piece(e01))
    assert annihilating(piece(e01), piece(e22))
    assert annihilating(piece(e22), piece(_unit(3, 0, 0)))
    assert terwilliger_module._commutative(piece(e11, e22))
    assert not terwilliger_module._commutative(piece(e11, e12))
    # neighbours in the spin set commute; the first and the last do not
    assert not terwilliger_module._commutative(piece(e01, e22, _unit(3, 0, 0)))
    for x, y in ((piece(e01), piece(e12)), (piece(e01), piece(e22))):
        assert annihilating(x, y) == dense_annihilate(x, y)
    for p in (piece(e11, e22), piece(e11, e12)):
        assert terwilliger_module._commutative(p) == dense_commutative(p)


def test_annihilation_needs_both_orders_on_a_scheme():
    """x = E*_lam and y = E*_mu A_nu E*_lam (lam != mu): x y = 0 but y x = y."""
    inst = Instance(SchemeParams((2, 2), 2))
    lam, mu = inst.shapes[:2]
    x, duals = inst.duals[lam], inst.duals
    sandwiches = {nu: duals[mu] * a * x for nu, a in inst.adjacency.items()}
    nu, y = next((nu, y) for nu, y in sandwiches.items() if any(y.vec))
    product = inst.orbitals.product
    assert not any(product(x.vec, y.vec)) and product(y.vec, x.vec) == y.vec
    assert not terwilliger_module._annihilating(product, [x.vec], [y.vec])
    assert not terwilliger_module._annihilating(product, [y.vec], [x.vec])
    data = dense_spectral(inst.base.params)
    dense_duals = dense_family(inst, data.Estar)
    dx = dense_duals[lam]
    dy = dense_duals[mu] * dense_family(inst, data.A)[nu] * dx
    assert dy == y.matrix()
    assert (dx * dy).is_zero() and dy * dx == dy


@pytest.mark.parametrize("q,n", [((3,), 2), ((2, 2), 2)], ids=_label)
def test_measurements_make_no_dense_products(monkeypatch, q, n):
    """Once the families and the closure exist, the three stages multiply in orbital coordinates only."""
    inst = Instance(SchemeParams(q, n))
    inst.basis, inst.idempotents, inst.duals
    closure = terwilliger_closure(inst)
    products = 0
    plain_mul = RatMatrix.__mul__

    def counting_mul(self, other):
        nonlocal products
        if isinstance(other, RatMatrix):
            products += 1
        return plain_mul(self, other)

    monkeypatch.setattr(RatMatrix, "__mul__", counting_mul)
    primary_subalgebra(inst)
    center_dimension(closure)
    component_dims(inst)
    assert products == 0
