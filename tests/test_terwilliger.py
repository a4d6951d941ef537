import json
import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

import ordered_hamming.exact_linalg as exact_linalg_module
import ordered_hamming.scheme as scheme_module
import ordered_hamming.spectral as spectral_module
import ordered_hamming.terwilliger as terwilliger_module
from ordered_hamming import (
    Instance,
    InternalMismatch,
    Orbitals,
    RatMatrix,
    SchemeParams,
    component_dims,
    lambda_set,
    omega_set,
    primary_subalgebra,
    structure_report,
    terwilliger_closure,
    theta_enumerate,
    theta_feasible,
    verify_axioms,
    verify_spectral_n,
    verify_terw_identities,
)
from ordered_hamming.cli import SUITE_INSTANCES, main
from ordered_hamming.exact_linalg import OrbitalMatrix, mat_sum

from dense_oracle import (
    _flat,
    contains,
    dense_spectral,
    dense_terw_basis,
    dense_terw_identities,
    expanded,
    iter_points,
    kron_all,
    shape_of,
    span_basis,
)


def test_basis_families_in_binary_single_case():
    tw = Instance(SchemeParams((2,), 1)).basis
    data_E1 = RatMatrix([["1/2", "-1/2"], ["-1/2", "1/2"]])
    assert tw.F[1].matrix() == data_E1
    assert tw.G[0].is_zero() and tw.Gstar[0].is_zero()
    assert tw.Gnat.is_zero()


def test_residual_family_survives_for_three_letters():
    tw = Instance(SchemeParams((3,), 1)).basis
    z = tw.G[0] * tw.Gstar[0]
    assert not z.is_zero()
    assert z.matrix().trace() == 1  # alphabet size minus 2


def test_base_dual_idempotent_is_point_mass():
    estar = dense_spectral(SchemeParams((2, 2), 1)).Estar
    assert estar[0] == RatMatrix.diagonal([1, 0, 0, 0])


@pytest.mark.parametrize("q", [(2,), (3,), (2, 2), (2, 3), (2, 2, 2)])
def test_dual_idempotents_partition_identity(q):
    estar = dense_spectral(SchemeParams(q, 1)).Estar
    size = estar[0].nrows
    total = None
    for e in estar:
        total = e if total is None else total + e
        for f in estar:
            prod = e * f
            assert prod == (e if e == f else prod.scale(0))
    assert total == RatMatrix.identity(size)


@pytest.mark.parametrize("n", [1, 2])
def test_basis_rejects_dual_idempotents_off_the_relation_row(monkeypatch, n):
    # X(1,1;3): E*_0 and E*_1 swapped disagree with row 0 of the relations;
    # at n = 2 the check is reached through the depth-one `base`
    plain = terwilliger_module.base_dual_idempotents
    monkeypatch.setattr(terwilliger_module, "base_dual_idempotents", lambda p: plain(p)[::-1])
    with pytest.raises(InternalMismatch, match="dual idempotent 0 disagrees"):
        Instance(SchemeParams((3,), n)).basis


@pytest.mark.parametrize(
    "swap,match",
    [
        (lambda c: c._replace(H=c.Hstar), "closed form for F_1 disagrees"),
        (lambda c: c._replace(Hstar=c.H), r"closed form for F\*_1 disagrees"),
    ],
    ids=["F", "Fstar"],
)
def test_basis_rejects_closed_forms_off_their_sandwiches(monkeypatch, swap, match):
    plain = terwilliger_module.factor_columns
    monkeypatch.setattr(terwilliger_module, "factor_columns", lambda q: swap(plain(q)))
    with pytest.raises(InternalMismatch, match=match):
        Instance(SchemeParams((3,), 1)).basis


@pytest.mark.parametrize(
    "name,family,match",
    [
        ("base_valencies", "adjacency", "row sums of adjacency 1 disagree"),
        ("base_multiplicities", "idempotents", "trace of idempotent 1 disagrees"),
    ],
)
def test_base_spectral_rejects_valencies_and_multiplicities_off_the_closed_forms(
    monkeypatch, name, family, match
):
    # the depth-one instance checks each closed form as it enters it, against
    # the valencies and multiplicities it looks up in `terwilliger`
    plain = getattr(terwilliger_module, name)
    monkeypatch.setattr(terwilliger_module, name, lambda p: plain(p)[:1] + (0,) + plain(p)[2:])
    with pytest.raises(InternalMismatch, match=match):
        getattr(Instance(SchemeParams((3,), 2)), family)


def test_depth_one_data_lives_on_one_base_instance(monkeypatch):
    """An n > 1 report calls each depth-one factor builder once, on `base`."""
    calls = Counter()
    builders = ("base_adjacency", "base_idempotents", "base_dual_idempotents")

    def counting(name, plain):
        def wrapper(params):
            calls[name, params] += 1
            return plain(params)

        return wrapper

    for name in builders:
        plain = getattr(terwilliger_module, name)
        monkeypatch.setattr(terwilliger_module, name, counting(name, plain))
    inst = Instance(SchemeParams((3,), 2))
    structure_report(inst)
    assert calls == {(name, SchemeParams((3,), 1)): 1 for name in builders}
    assert inst.base.base is inst.base and inst.basis is inst.base.basis


@pytest.mark.parametrize(
    "q,n",
    [((2,), 1), ((2,), 3), ((3,), 2), ((2, 3), 1), ((2, 2), 2), ((3, 2), 2), ((2, 2, 2), 2)]
    + [((8,), 1)],
    ids=str,
)
def test_lifted_dual_idempotent_examples(q, n):
    """E*_0 is the point mass at 0 and the E* sum to I, at depth one and at depth n.

    `primary_subalgebra` reads the primary law as one identity per class
    because the E* resolve I; the package does not check that itself.
    """
    inst = Instance(SchemeParams(q, n))
    for level in (inst.base, inst):
        npts = level.params.num_points
        expected = [[0] * npts for _ in range(npts)]
        expected[0][0] = 1
        assert level.duals[level.shapes[0]].matches(RatMatrix(expected))
        assert mat_sum(level.duals.values()).matches(RatMatrix.identity(npts))


def test_lifted_dual_idempotent_matches_point_shapes():
    params = SchemeParams((2, 3), 2)
    pts = iter_points(params)
    for lam, dual in Instance(params).duals.items():
        mat = dual.matrix()
        for i, x in enumerate(pts):
            assert mat[i, i] == (1 if shape_of(x, params) == lam else 0)
            assert all(mat[i, j] == 0 for j in range(len(pts)) if j != i)


@pytest.mark.parametrize(
    "q,pairs,eps",
    [
        ((2, 2), {(2, 2)}, 0),
        ((2, 3), {(2, 1), (2, 2)}, 1),
        ((3,), {(1, 1)}, 1),
        ((2, 3, 2), {(2, 2), (2, 3), (3, 2), (3, 3)}, 1),
    ],
)
def test_lambda_set_contents(q, pairs, eps):
    info = lambda_set(SchemeParams(q, 1))
    assert set(info.pairs) == pairs
    assert info.epsilon == eps
    m = len(q)
    assert info.size == m * (m - 1) // 2 + eps


def test_theta_enumeration_examples():
    params = SchemeParams((2, 2), 2)
    assert theta_enumerate((0, 2), (0, 2), params) == [((0, 0), (0, 2))]
    assert theta_enumerate((1, 1), (0, 2), params) == []
    diag_all = theta_enumerate((0, 2), (0, 2), params)[0]
    assert diag_all[1][1] == 2


def test_theta_feasibility_examples():
    params = SchemeParams((2, 2), 2)
    assert theta_feasible((0, 2), (0, 2), params)
    assert not theta_feasible((2, 0), (0, 2), params)
    assert not theta_feasible((2, 0), (2, 0), params)
    assert theta_feasible((0, 2), (1, 1), SchemeParams((2, 3), 2))


def scan_feasible(lam, mu, q):
    """Reference margin test over all 4^m pairs of a row set and a column set.

    Rows and columns that share no surviving cell hold disjoint parts of a
    grid, so their margins add up to at most n when a grid exists.
    """
    m = len(q)
    allowed = lambda_set(SchemeParams(q, 1)).pairs
    subsets = [[k for k in range(1, m + 1) if mask >> (k - 1) & 1] for mask in range(2**m)]
    for rows in subsets:
        for cols in subsets:
            if any((i, j) in allowed for i in rows for j in cols):
                continue
            if sum(lam[i - 1] for i in rows) + sum(mu[j - 1] for j in cols) > sum(lam):
                return False
    return True


def test_nested_margin_test_matches_the_set_pair_scan():
    from ordered_hamming import compositions

    for m in range(1, 5):
        for q in product((2, 3), repeat=m):
            for n in (1, 2):
                params = SchemeParams(q, n)
                inner = compositions(n, m)
                for lam in inner:
                    for mu in inner:
                        assert theta_feasible(lam, mu, params) == scan_feasible(lam, mu, q)


def test_margin_test_rejects_supports_that_are_not_nested(monkeypatch):
    # row 1 may use column 1 only and row 2 column 2 only: neither contains the other
    monkeypatch.setattr(terwilliger_module, "_survives", lambda i, j, q: i == j)
    with pytest.raises(InternalMismatch, match="not nested"):
        theta_feasible((1, 1), (1, 1), SchemeParams((2, 2), 2))


@pytest.mark.parametrize(
    "q,n",
    [((2, 2), 2), ((2, 3), 2), ((3, 2), 2), ((2, 3, 2), 2), ((2, 3, 2), 3), ((2, 2, 2), 2)]
    + [(q, n) for q in ((2, 3), (3, 2), (2, 2, 2)) for n in (1, 3)],
)
def test_feasibility_matches_enumeration(q, n):
    params = SchemeParams(q, n)
    from ordered_hamming import compositions

    inner = compositions(n, params.m)
    for lam in inner:
        for mu in inner:
            assert theta_feasible(lam, mu, params) == bool(theta_enumerate(lam, mu, params))


@pytest.mark.parametrize(
    "q,n",
    [((2, 2), 2), ((2, 3), 2), ((3, 2), 3), ((2, 3, 2), 2), ((2, 2, 2), 1)],
)
def test_theta_total_count_is_multiset_binomial(q, n):
    params = SchemeParams(q, n)
    from ordered_hamming import compositions

    inner = compositions(n, params.m)
    total = sum(len(theta_enumerate(lam, mu, params)) for lam in inner for mu in inner)
    assert total == math.comb(lambda_set(params).size + n - 1, n)


def test_omega_counts():
    assert len(omega_set(SchemeParams((2, 2), 2))) == 1
    assert len(omega_set(SchemeParams((2, 3), 2))) == 3
    # outside the counting conditions the count drops strictly below the binomial
    omega = omega_set(SchemeParams((2, 3, 2), 2))
    binom = math.comb(lambda_set(SchemeParams((2, 3, 2), 2)).size + 1, 2)
    assert len(omega) == 9 < 10 == binom


@pytest.mark.parametrize(
    "q,n",
    [((2,), 1), ((3,), 1), ((2,), 2), ((2, 2), 1), ((2, 3), 1), ((2, 2), 2)],
)
def test_identity_suite_passes(q, n):
    checks = verify_terw_identities(Instance(SchemeParams(q, n)))
    failed = {k: v for k, v in checks.items() if v is False}
    assert not failed


def test_identity_suite_marks_vacuous_cases():
    checks = verify_terw_identities(Instance(SchemeParams((2,), 2)))
    assert checks["g_products_by_regime"] is None
    assert checks["lifted_g_products"] is None
    checks = verify_terw_identities(Instance(SchemeParams((2, 2), 1)))
    assert checks["g_products_by_regime"] is True


@pytest.mark.parametrize(
    "q,n",
    [((2,), 1), ((3,), 2), ((2, 3), 1), ((2, 2, 2), 1), ((2, 2), 2), ((2, 3), 2)],
    ids=str,
)
def test_identity_suite_matches_the_dense_oracle(q, n):
    inst = Instance(SchemeParams(q, n))
    assert expanded(inst.basis) == dense_terw_basis(dense_spectral(inst.base.params))
    assert list(verify_terw_identities(inst).items()) == list(dense_terw_identities(inst).items())


def _swaps(*instances):
    """Each pair of members of F, F*, G or G* that can trade places, on each X(m, n; q)."""
    for q, n in instances:
        for name in ("F", "Fstar", "G", "Gstar"):
            size = len(q) + (name in ("F", "Fstar"))
            for a, b in combinations(range(size), 2):
                label = f"q{','.join(map(str, q))}-n{n}-{name}-{a}-{b}"
                yield pytest.param(q, n, name, a, b, id=label)


@pytest.mark.parametrize(
    "q,n,name,a,b", _swaps(((2, 3), 1), ((2, 2, 2), 1), ((3, 2, 2), 1), ((2, 3), 2))
)
def test_a_doctored_basis_fails_the_suite_as_in_the_dense_oracle(q, n, name, a, b):
    """With two members of one family swapped, the suite and the oracle read the same
    doctored basis, agree check for check, and some check fails."""
    inst = Instance(SchemeParams(q, n))
    members = list(getattr(inst.base.basis, name))
    members[a], members[b] = members[b], members[a]
    inst.base.basis = doctored = inst.base.basis._replace(**{name: tuple(members)})
    checks = verify_terw_identities(inst)
    assert list(checks.items()) == list(dense_terw_identities(inst, expanded(doctored)).items())
    assert False in checks.values()


_BREAKS = {
    "sum": lambda fam: (fam[0] + fam[1],) + fam[1:],
    "double": lambda fam: (fam[0].scale(2),) + fam[1:],
    "duplicate": lambda fam: fam[-1:] + fam[1:],
    "negate": lambda fam: (fam[0].scale(-1),) + fam[1:],
    # half of the second member moves to the first: the sum stays idempotent
    "split": lambda fam: (fam[0] + (half := fam[1].scale(Fraction(1, 2))), half, *fam[2:]),
}


@pytest.mark.parametrize("way", list(_BREAKS))
@pytest.mark.parametrize("name", ["F", "Fstar", "G", "Gstar"])
@pytest.mark.parametrize(
    "q",
    [(2, 3), (2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 3)],
    ids=lambda q: "q" + ",".join(map(str, q)),
)
def test_a_family_that_is_not_orthogonal_fails_the_suite_as_in_the_dense_oracle(q, name, way):
    """One family of X(m, 1; q), m >= 2, broken in one way: its first member replaced by the
    sum of the first two, doubled, replaced by a copy of the last, or negated, or half of its
    second member moved to the first. The suite's sum criterion and the oracle's pairwise law
    then agree check for check."""
    inst = Instance(SchemeParams(q, 1))
    broken = _BREAKS[way](getattr(inst.base.basis, name))
    inst.base.basis = doctored = inst.base.basis._replace(**{name: broken})
    checks = verify_terw_identities(inst)
    assert list(checks.items()) == list(dense_terw_identities(inst, expanded(doctored)).items())


def _identities(capsys, q: str, n: str) -> tuple[int, dict]:
    code = main(["identities", "--q", q, "--n", n, "--json"])
    return code, json.loads(capsys.readouterr().out)["checks"]


@pytest.mark.parametrize("command", ["identities", "report"])
def test_identity_suite_makes_no_dense_product_beyond_the_letter_factors(
    monkeypatch, capsys, command
):
    """Only the q-by-q letter factors, which are not in T, are multiplied densely."""
    # the letter identities are checked once per alphabet size; check them again here
    terwilliger_module._letter_identities_hold.cache_clear()
    sides = []
    plain_mul = RatMatrix.__mul__

    def counting_mul(self, other):
        if isinstance(other, RatMatrix):
            sides.append(max(self.nrows, self.ncols, other.ncols))
        return plain_mul(self, other)

    monkeypatch.setattr(RatMatrix, "__mul__", counting_mul)
    assert main([command, "--q", "2,3", "--n", "2", "--json"]) == 0
    capsys.readouterr()
    assert sides and max(sides) <= 3


def test_report_enters_each_family_in_orbital_coordinates_once(monkeypatch, capsys):
    """Only the depth-one families are entered entry by entry; every lift is orbital."""
    calls = 0
    plain_vector = Orbitals.vector

    def counting_vector(self, *factors):
        nonlocal calls
        calls += 1
        return plain_vector(self, *factors)

    monkeypatch.setattr(Orbitals, "vector", counting_vector)
    assert main(["report", "--q", "2,2", "--n", "2", "--json"]) == 0
    capsys.readouterr()
    # the depth-one A, E and E*, three each; the depth-two families and the split are lifts
    assert calls == 9


def _held(mats):
    """The (orbital vector, denominator) pairs of `mats`, comparable across frames."""
    return [(x.vec, x.den) for x in mats]


def test_report_lifts_the_f_g_split_once(monkeypatch, capsys):
    """A, E and E*, the split F + G and F* + G*, Gnat and the G products: 7 lifts.

    The identity suite reads each lifted G_tau and G*_tau as a key of the split lifts;
    lifting G and G* on their own as well made 9.
    """
    lifted = []
    plain = terwilliger_module.lifted_family

    def recording(mats, *args):
        lifted.append(_held(mats))
        return plain(mats, *args)

    monkeypatch.setattr(terwilliger_module, "lifted_family", recording)
    assert main(["report", "--q", "2,2", "--n", "2"]) == 0
    capsys.readouterr()
    tw = Instance(SchemeParams((2, 2), 1)).basis
    assert len(lifted) == 7
    assert _held(tw.F + tw.G) in lifted and _held(tw.Fstar + tw.Gstar) in lifted
    assert _held(tw.G) not in lifted and _held(tw.Gstar) not in lifted


@pytest.mark.parametrize("zeroed", [False, True], ids=["basis", "zero-g1"])
def test_identity_suite_stores_no_key_in_the_split_lifts(zeroed):
    """The suite reads absent G keys as zero without adding them to the shared lifts.

    With G_1 doctored to zero, every key that takes G_1 is absent from the F + G lift.
    """
    inst = Instance(SchemeParams((2, 3), 2))
    if zeroed:
        tw = inst.base.basis
        inst.base.basis = tw._replace(G=(tw.G[0].scale(0),) + tw.G[1:])
    before = [set(lift) for lift in inst.split_lifts]
    checks = verify_terw_identities(inst)
    assert [set(lift) for lift in inst.split_lifts] == before
    assert (False in checks.values()) is zeroed
    if zeroed:
        assert (0, 0, 0, 2, 0) not in before[0] and (0, 0, 0, 1, 1) not in before[0]
    # the lifts are plain dicts: reading an absent key with [] raises instead of storing a zero
    absent = (0, 0, 0, 2, 0) if zeroed else (0,) * 5
    for lift in inst.split_lifts:
        with pytest.raises(KeyError):
            lift[absent]
    assert [set(lift) for lift in inst.split_lifts] == before


@pytest.mark.parametrize(
    "argv,bound",
    [
        (["report", "--q", "2,3", "--n", "1"], 15),
        (["closure", "--q", "2", "--n", "4", "--generators", "bm"], 4),
    ],
    ids=["report", "closure-bm"],
)
def test_each_closed_form_is_streamed_once(monkeypatch, capsys, argv, bound):
    """A command streams each depth-one closed form it reads once, and no family it does not read.

    report: 3 each of A, E and E*, 4 F and F* closed forms and 2 G products; closure:
    2 each of A and E*. Streaming A, E and E* once more for their checks, and building
    E for a bm closure, made 24 and 10.
    """
    calls = 0
    plain = exact_linalg_module._kron_entries

    def counting(factors):
        nonlocal calls
        calls += 1
        return plain(factors)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "ordered_hamming" and hasattr(module, "_kron_entries"):
            monkeypatch.setattr(module, "_kron_entries", counting)
    assert main([*argv, "--json"]) == 0
    capsys.readouterr()
    assert calls <= bound


@pytest.mark.parametrize(
    "argv,bound",
    [
        (["closure", "--q", "2", "--n", "4", "--generators", "bm"], 0),
        (["closure", "--q", "2", "--n", "4", "--generators", "idem"], 0),
        (["report", "--q", "2,2", "--n", "2"], 800),
        (["identities", "--q", "2,2", "--n", "2"], 177),
        (["identities", "--q", "2,3,2", "--n", "2"], 356),
        (["identities", "--q", "2,2,2", "--n", "1"], 302),
    ],
    ids=[
        "closure-bm", "closure-idem", "report", "identities-m2", "identities-m3", "identities-n1"
    ],
)
def test_orbital_product_count(monkeypatch, capsys, argv, bound):
    """Every walk is graded on the classes its diagonal generators tell apart (T's on
    the E*, the d = 0 piece's on its starred lifts, a piece with none as one class) and
    stops at a full span, the center masks diagonal generators, and the identity suite
    multiplies each depth-one product it reads (E_i E*_j, E*_i E_j, F_i F*_j, F*_i F_j,
    G_i G*_j and G*_i G_j) once.

    On X(1,4;2) the block parts of the generators span T, so its closures make no
    product; walking the d = 0 piece as one class made 1044 on the report, the
    pieces spinning under every accepted generator 1134, and the ungraded walk of T,
    spinning under whole generators, made 65, 98 and 1315. Walking I as well made
    73, 106 and 1599 (and before the full-rank stop and the masks 280, 280 and
    2964); multiplying the G products again in each check that reads them made 3 m^2
    more, 243 and 493 on the suites; multiplying the E and F products in each check
    made 1573 on the report and 231, 466 and 416 on the suites; checking the primary
    law on every triple of sandwiches made 1531 on the report. The orthogonal
    families are checked by Cochran's sum criterion, k + 1 products for k members;
    every ordered pair, k^2 products, made 1327 on the report and 189, 388 and 334
    on the suites.
    """
    calls = 0
    plain_product = Orbitals.product

    def counting_product(self, a, b):
        nonlocal calls
        calls += 1
        return plain_product(self, a, b)

    monkeypatch.setattr(Orbitals, "product", counting_product)
    assert main([*argv, "--json"]) == 0
    capsys.readouterr()
    assert calls <= bound


def test_component_walk_reads_fewest_table_entries_sparsest_first(monkeypatch):
    """X(2,2;2,2): the component stage's 367 products read 10688 structure-table entries.

    Each piece's generators are walked sparsest first, so the pool starts sparse and a
    product reads the table rows of its sparser factor; in the order the lifts come, 358
    products read 17575 entries. The order also picks the generators S accepts, so it
    sets how dense the products that decide commutativity and annihilation are. Before
    the d = 0 piece was split on its diagonal generators, the sorted order made 611
    products that read 19808 entries, and the lift order 557 that read 25408; before the
    pieces admitted walkers lazily, the sorted order made 701 products that read 29549
    entries, and the lift order the same 701 that read 46923.
    """
    inst = Instance(SchemeParams((2, 2), 2))
    inst.basis
    counts = Counter()
    plain = Orbitals._left_product

    def counting(self, a, b):
        counts["products"] += 1
        counts["entries"] += sum(len(self._table[i]) for i, ai in enumerate(a) if ai)
        return plain(self, a, b)

    monkeypatch.setattr(Orbitals, "_left_product", counting)
    component_dims(inst)
    assert counts == {"products": 367, "entries": 10688}


@pytest.mark.parametrize("q,n,bound", [((2, 2), 2, 126), ((2,), 3, 60)], ids=str)
def test_primary_product_count(monkeypatch, q, n, bound):
    """Once E and E* exist the primary stage makes at most 3 C^2 + 3 C orbital products:
    C^2 + C sandwiches, C^2 - C products of distinct E*, 2 C for the law's C identities
    and C^2 + C dual sandwiches.

    Checking the law on every triple of sandwiches made C^3 + 3 C^2 + C, 330 and 116.
    """
    inst = Instance(SchemeParams(q, n))
    inst.idempotents, inst.duals
    calls = 0
    plain_product = Orbitals.product

    def counting_product(self, a, b):
        nonlocal calls
        calls += 1
        return plain_product(self, a, b)

    monkeypatch.setattr(Orbitals, "product", counting_product)
    _, checks = primary_subalgebra(inst)
    assert all(checks.values())
    assert calls <= bound


def test_a_dropped_support_grid_fails_the_lifted_products(monkeypatch, capsys):
    # X(3,2;2,3,2): the margins (0,1,1), (0,1,1) have two grids; dropping one
    # keeps every pair feasible, so only the expected sum can catch it
    plain = terwilliger_module._theta_enumerate

    def dropping(lam, mu, q):
        grids = plain(lam, mu, q)
        return grids[:-1] if len(grids) > 1 else grids

    code, checks = _identities(capsys, "2,3,2", "2")
    assert code == 0 and checks["lifted_g_products"] is True
    monkeypatch.setattr(terwilliger_module, "_theta_enumerate", dropping)
    code, checks = _identities(capsys, "2,3,2", "2")
    assert code == 1
    assert [name for name, ok in checks.items() if ok is False] == ["lifted_g_products"]


def test_a_swapped_closed_form_factor_fails_the_g_products(monkeypatch, capsys):
    # X(2,2;2,3): the swapped factors give matrices that are not constant on
    # the orbitals, so the check reads False instead of raising (exit 3)
    plain = terwilliger_module._g_product_factors
    monkeypatch.setattr(terwilliger_module, "_g_product_factors", lambda *a: plain(*a)[::-1])
    orbitals = Instance(SchemeParams((2, 3), 1)).orbitals
    c = spectral_module.factor_columns((2, 3))
    swapped = [
        kron_all(terwilliger_module._g_product_factors(i, j, c, 2))
        for i, j in lambda_set(SchemeParams((2, 3), 1)).pairs
    ]
    assert any(orbitals._entries(_flat(mat)) is None for mat in swapped)
    code, checks = _identities(capsys, "2,3", "2")
    assert code == 1
    assert [name for name, ok in checks.items() if ok is False] == ["g_products_by_regime"]


@pytest.mark.parametrize(
    "q,n,expected_dim",
    [((3,), 1, 4), ((2,), 2, 9), ((2, 2), 1, 9)],
)
def test_primary_subalgebra_dimensions(q, n, expected_dim):
    params = SchemeParams(q, n)
    sub, checks = primary_subalgebra(Instance(params))
    assert sub.dimension == expected_dim == params.class_count**2
    assert checks == {
        "primary_dimension_is_class_count_squared": True,
        "primary_multiplication_law": True,
        "primary_dual_span_matches": True,
    }


@pytest.mark.parametrize(
    "q,n,dim",
    [((2,), 1, 4), ((3,), 1, 5), ((2,), 2, 10), ((2, 2), 1, 10), ((2, 3), 1, 11)],
)
def test_closure_dimensions(q, n, dim):
    inst = Instance(SchemeParams(q, n))
    bm = terwilliger_closure(inst, "bm")
    idem = terwilliger_closure(inst, "idem")
    assert bm.dimension == dim
    assert bm == idem


def test_closure_rejects_unknown_generator_label():
    with pytest.raises(ValueError):
        terwilliger_closure(Instance(SchemeParams((2,), 1)), "foo")


@pytest.mark.parametrize(
    "q,n,generators,accepted,dim,count",
    [
        ((2,), 4, "bm", 9, 35, 0),
        ((2,), 4, "idem", 9, 35, 0),
        ((2, 3, 2), 2, "bm", 19, 209, 708),
        ((2, 3, 2), 2, "idem", 19, 209, 1230),
    ],
    ids=["bm", "idem", "X(3,2;2,3,2)-bm", "X(3,2;2,3,2)-idem"],
)
def test_closure_spins_dim_times_accepted_generators(
    monkeypatch, q, n, generators, accepted, dim, count
):
    """The graded walk's products, pinned, within dim T times the accepted generators.

    X(1,4;2) closes from the block parts of its generators with no product, where the
    ungraded walk made 65 (bm) and 98 (idem) and the pool-against-pool reference engine
    1897. On X(3,2;2,3,2), dim T = 209 < r = 210, so the parts do not span and the walk
    runs; the ungraded walk made 3744 there for each generator set.
    """
    inst = Instance(SchemeParams(q, n))
    first = inst.adjacency if generators == "bm" else inst.idempotents
    gens = list(first.values()) + list(inst.duals.values())
    # the generators the closure keeps as S: I, then those independent of I and earlier ones
    identity = RatMatrix.identity(inst.params.num_points)
    assert span_basis([identity] + [g.matrix() for g in gens]).dimension == accepted
    products = Counter()
    plain_mul = RatMatrix.__mul__
    plain_product = Orbitals.product

    def counting_mul(self, other):
        if isinstance(other, RatMatrix):
            products["dense"] += 1
        return plain_mul(self, other)

    def counting_product(self, a, b):
        products["orbital"] += 1
        return plain_product(self, a, b)

    monkeypatch.setattr(RatMatrix, "__mul__", counting_mul)
    monkeypatch.setattr(Orbitals, "product", counting_product)
    closure = terwilliger_closure(inst, generators)
    assert closure.dimension == dim and len(closure.spin) == accepted
    assert products["dense"] == 0
    assert products["orbital"] == count <= dim * accepted


def test_closure_rejects_a_generator_not_constant_on_an_orbital(monkeypatch):
    inst = Instance(SchemeParams((3,), 2))
    # points 1 and 2 of X(1,1;3) share one orbital; a depth-one closed form that
    # tells them apart is refused when the depth-one instance enters it in orbital
    # coordinates, before any family is lifted from it
    stray = RatMatrix.diagonal([0, 1, 0])
    plain = terwilliger_module.base_adjacency
    monkeypatch.setattr(terwilliger_module, "base_adjacency", lambda p: ([stray], *plain(p)[1:]))
    with pytest.raises(InternalMismatch, match="not constant on orbital"):
        terwilliger_closure(inst, "bm")


@pytest.mark.parametrize(
    "q,n", list(SUITE_INSTANCES) + [((3,), 2), ((2, 3), 2)], ids=str
)
def test_generator_agreement_from_spans_matches_the_two_closures(report_for, q, n):
    inst = Instance(SchemeParams(q, n))
    closures_agree = terwilliger_closure(inst, "bm") == terwilliger_closure(inst, "idem")
    assert report_for(q, n).checks["generator_sets_agree"] == closures_agree


def test_generator_agreement_fails_for_an_idempotent_outside_the_seed_span(monkeypatch):
    inst = Instance(SchemeParams((2,), 2))
    lam = inst.shapes[1]
    # in T, so both closures are still T; only the seed spans differ
    stray = inst.adjacency[lam] * inst.duals[lam]
    seeds = span_basis([g.matrix() for g in [*inst.adjacency.values(), *inst.duals.values()]])
    assert not contains(seeds, stray.matrix())
    monkeypatch.setattr(inst, "idempotents", {**inst.idempotents, lam: stray})
    assert structure_report(inst).checks["generator_sets_agree"] is False


@pytest.mark.parametrize("q,n", [((3,), 2), ((2, 3), 1)], ids=str)
def test_structure_report_keeps_the_checks_its_measurements_name(q, n):
    """The report merges the checks of `primary_subalgebra` and `component_dims` as they come."""
    inst = Instance(SchemeParams(q, n))
    checks = structure_report(inst).checks
    for _, named in (primary_subalgebra(inst), component_dims(inst)):
        assert named and {key: checks.get(key) for key in named} == named


@pytest.mark.parametrize("q,n,closures", [((2, 3), 1, 1), ((3,), 2, 2)])
def test_structure_report_closes_t_once(monkeypatch, q, n, closures):
    """One closure of T, which is passed I, plus the depth-one closure when n > 1."""
    count = 0
    plain_closure = terwilliger_module.algebra_closure

    def counting_closure(gens):
        nonlocal count
        count += OrbitalMatrix.identity(gens[0].frame) in gens
        return plain_closure(gens)

    monkeypatch.setattr(terwilliger_module, "algebra_closure", counting_closure)
    structure_report(Instance(SchemeParams(q, n)))
    assert count == closures
    count = 0
    component_dims(Instance(SchemeParams(q, n)))
    assert count == 0


def test_component_dims_wreath_case(report_for):
    components, checks = component_dims(Instance(SchemeParams((2, 2), 1)))
    assert [c.dim for c in components] == [9, 1]
    assert components[1].commutative
    assert checks == {"components_pairwise_annihilating": True}
    report = report_for((2, 2), 1)
    assert report.checks["components_sum_to_total"]
    assert report.dim_T == 10


def test_component_dims_refuses_degenerate_case():
    with pytest.raises(ValueError):
        component_dims(Instance(SchemeParams((2,), 2)))


def test_component_top_level_is_commutative_with_feasible_pair_count():
    params = SchemeParams((2, 3), 1)
    components, _ = component_dims(Instance(params))
    top = components[-1]
    assert top.commutative
    assert top.dim == len(omega_set(params)) == 2


def test_structure_report_binary_hamming(report_for):
    report = report_for((2,), 2)
    assert report.dim_T == 10
    assert report.dim_primary == 9
    assert report.center_dim == 2
    assert report.components == ()
    assert all(report.checks.values())
    by_source = {p.source: p for p in report.predictions}
    sym = by_source["dim_T: symmetric power of the measured depth-one dimension"]
    assert sym.value == 10 and sym.agrees
    chain = by_source["dim_T: chain of full blocks of shrinking size"]
    assert chain.value == 14 and not chain.agrees
    primary_only = by_source["dim_T: primary subalgebra only"]
    assert primary_only.value == 9 and not primary_only.agrees


def test_structure_report_wreath_of_mixed_alphabets(report_for):
    report = report_for((2, 3), 1)
    assert report.dim_T == 11
    assert report.center_dim == 3
    assert [c.dim for c in report.components] == [9, 2]
    by_source = {p.source: p for p in report.predictions}
    base_formula = by_source["dim_T: full block plus one loop per surviving pair"]
    assert base_formula.value == 11 and base_formula.agrees
    uniform = by_source["dim_T: block total with uniform feasible-pair exponent"]
    assert uniform.value == 20 and not uniform.agrees
    per_degree = by_source["dim_T: block total with per-degree feasible-pair exponent"]
    assert per_degree.value == 11 and per_degree.agrees


def test_structure_report_json_schema(report_for):
    # read back through JSON text: the records keep tuples where the text has lists
    blob = json.loads(json.dumps(report_for((3,), 1).to_json()))
    assert set(blob) == {
        "params",
        "dim_T",
        "dim_primary",
        "components",
        "center_dim",
        "predictions",
        "identity_suite",
    }
    assert blob["params"] == {"q": [3], "n": 1}
    assert blob["dim_T"] == 5
    assert blob["components"] == [
        {"d": 0, "dim": 4, "commutative": False},
        {"d": 1, "dim": 1, "commutative": True},
    ]
    assert all(
        set(p) == {"source", "value", "agrees"} for p in blob["predictions"]
    )


FAMILY_BUILDERS = (
    "pair_shapes",
    "base_adjacency",
    "base_idempotents",
    "base_dual_idempotents",
    "terw_basis",
    "triple_orbitals",
)


def test_each_family_is_built_once_per_instance(monkeypatch):
    """The suite's per-instance checks, or a closure alone, build every family once.

    Builds are counted per argument tuple, so the depth-one instance the
    report measures for n > 1 has its own keys. The depth-one families are
    built once per scheme; every depth-n family is lifted from them.
    """
    builds = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            builds[(name, *args)] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (scheme_module, spectral_module, terwilliger_module):
        for name in FAMILY_BUILDERS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

    def suite(inst):
        verify_axioms(inst)
        inst.intersection_counts
        verify_spectral_n(inst)
        structure_report(inst)

    closure_builders = set(FAMILY_BUILDERS) - {"terw_basis", "base_idempotents"}
    for work, built in [(suite, set(FAMILY_BUILDERS)), (terwilliger_closure, closure_builders)]:
        builds.clear()
        work(Instance(SchemeParams((3,), 2)))
        assert {key[0] for key in builds} == built, work.__name__
        assert max(builds.values()) == 1, [key for key, count in builds.items() if count > 1]
