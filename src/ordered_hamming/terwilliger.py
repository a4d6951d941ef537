"""Terwilliger algebra of the ordered Hamming scheme at the all-zeros base point.

Builds the two split families living inside the algebra (the F family
spanning the primary part and the G family carrying the commutative
remainder), verifies the full identity suite relating them, and measures
algebra dimensions with the exact closure engine. The closure oracle is
the ground truth here: printed dimension formulas are treated as
predictions to compare against, never as answers to hard-code.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from typing import NamedTuple

from .exact_linalg import (
    InternalMismatch,
    MatrixSubspace,
    OrbitalMatrix,
    Orbitals,
    RatMatrix,
    algebra_closure,
    center_dimension,
    mat_sum,
)
from .scheme import (
    SchemeParams,
    Shape,
    compositions,
    enumerate_shapes,
    intersection_counts,
    multiset_orbitals,
    pair_shapes,
    require_within_bound,
    triple_orbitals,
)
from .spectral import (
    LetterFactors,
    base_adjacency,
    base_dual_idempotents,
    base_idempotents,
    base_multiplicities,
    base_valencies,
    factor_columns,
    letter_factors,
    splice,
    valency_n,
)
from .symtensor import lifted_family


class TerwBasisSet(NamedTuple):
    """E, E* and the split F/G families of the depth-one scheme, in its orbitals.

    Every member lies in T; `Instance.lift` takes a family to depth n in one expansion.
    """

    E: tuple[OrbitalMatrix, ...]
    Estar: tuple[OrbitalMatrix, ...]
    F: tuple[OrbitalMatrix, ...]
    Fstar: tuple[OrbitalMatrix, ...]
    G: tuple[OrbitalMatrix, ...]  # indices 1..m stored at 0..m-1
    Gstar: tuple[OrbitalMatrix, ...]
    Fnat: OrbitalMatrix
    Gnat: OrbitalMatrix


def terw_basis(base: Instance) -> TerwBasisSet:
    """Construct the F/G families of the depth-one instance `base`, cross-checking each closed form.

    E and E* are the families of `base`, held in its orbitals, so every
    sandwich runs in orbital coordinates. Each F family is built twice
    (sandwiches vs. Kronecker closed forms); a mismatch raises
    InternalMismatch.
    """
    params = base.params
    m = params.m
    size = params.base_size
    k, mult = base_valencies(params), base_multiplicities(params)
    # the depth-one shapes are e_0, ..., e_m in order
    E, estar = (list(fam.values()) for fam in (base.idempotents, base.duals))
    c = factor_columns(params.q)

    F = [E[0]]
    Fstar = [estar[0]]
    for j in range(1, m + 1):
        F.append((E[j] * estar[0] * E[j]).scale(Fraction(size, mult[j])))
        Fstar.append((estar[j] * E[0] * estar[j]).scale(Fraction(size, k[j])))

    # closed forms: F_j mirrors the idempotent index pattern, F*_j the dual one
    for j in range(1, m + 1):
        if not F[j].matches(*splice(c.Jt, c.H[m - j], c.D, m - j)):
            raise InternalMismatch(f"closed form for F_{j} disagrees with its sandwich")
        if not Fstar[j].matches(*splice(c.Jt, c.Hstar[j - 1], c.D, j - 1)):
            raise InternalMismatch(f"closed form for F*_{j} disagrees with its sandwich")

    G = [E[j] - F[j] for j in range(1, m + 1)]
    Gstar = [estar[j] - Fstar[j] for j in range(1, m + 1)]
    fnat = mat_sum(F)
    gnat = OrbitalMatrix.identity(base.orbitals) - fnat
    return TerwBasisSet(*map(tuple, (E, estar, F, Fstar, G, Gstar)), Fnat=fnat, Gnat=gnat)


def _row_sums_are(a: OrbitalMatrix, value: int) -> bool:
    """Whether every row of `a` sums to `value`, each entry read through its pair's label."""
    side, labels, vec = a.frame.side, a.frame.labels, a.vec
    rows = range(0, side * side, side)
    return {sum(map(vec.__getitem__, labels[x : x + side])) for x in rows} == {value * a.den}


class Instance:
    """One scheme X(m, n; q) whose matrix families are each built once, on first use.

    The size bound is checked here and nowhere else. The depth-one data
    lives on `base`, the depth-one instance: it enters each closed form of
    A, E and E* from its factor builder once as an `OrbitalMatrix`, checks
    it there (row sums, trace, relation diagonal), and builds `basis`. At
    depth n each family is one `lift`, every shape at once. An instance
    keeps what it built for its own lifetime: create one per command or per
    suite instance. `pair_shapes` always comes from the brute-force
    definition, never from the lifted families it is compared against.
    """

    def __init__(self, params: SchemeParams, max_points: int | None = None):
        require_within_bound(params, max_points)
        self.params = params
        self.shapes = enumerate_shapes(params)
        # the depth-one scheme is never larger than this one, so N bounds it
        self._depth_one = (
            Instance(SchemeParams(params.q, 1), params.num_points) if params.n > 1 else None
        )

    @property
    def base(self) -> Instance:
        """The depth-one instance; this one when n = 1, without storing a reference to itself."""
        return self if self._depth_one is None else self._depth_one

    @property
    def degenerate(self) -> bool:
        """X(1, n; 2): the G families vanish, so there is no component split."""
        return self.params.q == (2,)

    @cached_property
    def pair_shapes(self) -> tuple[Shape, ...]:
        """The sweep the relation checks, `intersection_counts` and depth-one `orbitals` read."""
        return tuple(pair_shapes(self.params))

    @cached_property
    def intersection_counts(self) -> dict[tuple[Shape, Shape, Shape], int] | None:
        """p^k_ij counted from the sweep; None if some p^k_ij is not relation-constant."""
        return intersection_counts(self.pair_shapes, self.shapes)

    @cached_property
    def blocks(self) -> list[tuple[int, ...]]:
        """For each orbital, the depth-one orbitals of the n block pairs of its representative."""
        n1, labels = self.base.orbitals.side, self.base.orbitals.labels
        scales = [n1**b for b in reversed(range(self.params.n))]  # first block slowest
        pairs = (divmod(rep, self.params.num_points) for rep in self.orbitals.reps)
        return [tuple(labels[x // s % n1 * n1 + z // s % n1] for s in scales) for x, z in pairs]

    def lift(self, mats: Sequence[OrbitalMatrix]) -> dict[tuple[int, ...], OrbitalMatrix]:
        """The `lifted_family` of depth-one `mats`, on this instance's orbitals."""
        return lifted_family(mats, self.orbitals, self.blocks)

    @cached_property
    def split_lifts(self) -> tuple[dict, dict]:
        """The lifts of F + G and F* + G*, as plain dicts: an absent key is zero, `[]` raises."""
        tw = self.basis
        return dict(self.lift(tw.F + tw.G)), dict(self.lift(tw.Fstar + tw.Gstar))

    def _family(self, name: str, closed, expected: Iterable, holds, mismatch: str):
        """Depth one enters closed form j once and checks holds(it, expected[j]); depth n lifts."""
        if self.base is not self:
            lifted = self.lift(list(getattr(self.base, name).values()))
            return {lam: lifted[lam] for lam in self.shapes}
        family: dict[Shape, OrbitalMatrix] = {}
        for j, (lam, factors, value) in enumerate(zip(self.shapes, closed(self.params), expected)):
            family[lam] = mat = OrbitalMatrix.of(self.orbitals, *factors)
            if not holds(mat, value):
                raise InternalMismatch(mismatch.format(j=j, value=value))
        return family

    @cached_property
    def adjacency(self) -> dict[Shape, OrbitalMatrix]:
        """A_lam; each depth-one A_j has every row sum k_j."""
        return self._family(
            "adjacency", base_adjacency, base_valencies(self.params), _row_sums_are,
            "row sums of adjacency {j} disagree with valency {value}",
        )

    @cached_property
    def idempotents(self) -> dict[Shape, OrbitalMatrix]:
        """E_lam; each depth-one E_j has trace m_j."""
        return self._family(
            "idempotents", base_idempotents, base_multiplicities(self.params),
            lambda e, mj: e.trace() == mj,
            "trace of idempotent {j} disagrees with multiplicity {value}",
        )

    @cached_property
    def duals(self) -> dict[Shape, OrbitalMatrix]:
        """E*_lam; each depth-one E*_j is the 0/1 diagonal of row 0 of the sweep at e_j."""
        return self._family(
            "duals", base_dual_idempotents, self._diagonals(), OrbitalMatrix.__eq__,
            "dual idempotent {j} disagrees with relation diagonal",
        )

    def _diagonals(self) -> Iterator[OrbitalMatrix]:
        """Per shape, 1 on the diagonal orbital of each x that row 0 of the sweep puts in it."""
        orbitals, row0 = self.orbitals, self.pair_shapes[: self.params.num_points]
        for lam in self.shapes:
            on = {d for d, shape in zip(orbitals.diagonal, row0) if shape == lam}
            yield OrbitalMatrix(orbitals, [int(o in on) for o in range(orbitals.count)])

    @cached_property
    def orbitals(self) -> Orbitals:
        """Orbitals of the stabilizer of 0: shape triples at depth one, multisets of those at n."""
        if self.base is self:
            return triple_orbitals(self.pair_shapes)
        return multiset_orbitals(self.base.orbitals, self.params.n)

    @cached_property
    def basis(self) -> TerwBasisSet:
        base = self.base
        return base.basis if base is not self else terw_basis(self)


# ---------------------------------------------------------------------------
# Index-pair combinatorics for the commutative part.
# ---------------------------------------------------------------------------


class LambdaSet(NamedTuple):
    """Pairs (i, j) whose G-family product survives, plus the >=3 alphabet count."""

    pairs: frozenset[tuple[int, int]]
    epsilon: int

    @property
    def size(self) -> int:
        return len(self.pairs)


def _survives(i: int, j: int, q: tuple[int, ...]) -> bool:
    """Whether G_j G*_i survives: i + j > m + 1, or i + j = m + 1 with q_i >= 3."""
    m = len(q)
    return i + j > m + 1 or (i + j == m + 1 and q[i - 1] >= 3)


def lambda_set(params: SchemeParams) -> LambdaSet:
    q = params.q
    indices = range(1, params.m + 1)
    pairs = frozenset((i, j) for i in indices for j in indices if _survives(i, j, q))
    return LambdaSet(pairs=pairs, epsilon=sum(1 for qi in q if qi >= 3))


def _theta_enumerate(
    lam: Shape, mu: Shape, q: tuple[int, ...]
) -> list[tuple[tuple[int, ...], ...]]:
    m = len(q)
    out: list[tuple[tuple[int, ...], ...]] = []
    grid = [[0] * m for _ in range(m)]
    col_left = list(mu)

    def fill(i: int, j: int, row_left: int) -> None:
        if j == m:
            if row_left == 0:
                if i + 1 == m:
                    if all(c == 0 for c in col_left):
                        out.append(tuple(tuple(r) for r in grid))
                else:
                    fill(i + 1, 0, lam[i + 1])
            return
        hi = min(row_left, col_left[j]) if _survives(i + 1, j + 1, q) else 0
        for v in range(hi + 1):
            grid[i][j] = v
            col_left[j] -= v
            fill(i, j + 1, row_left - v)
            col_left[j] += v
            grid[i][j] = 0

    fill(0, 0, lam[0])
    return out


def theta_enumerate(
    lam: Shape, mu: Shape, params: SchemeParams
) -> list[tuple[tuple[int, ...], ...]]:
    """All non-negative m-by-m grids supported on the surviving pairs with
    row sums `lam` and column sums `mu`, lexicographic by flattened grid."""
    _validate_inner_shape(lam, params)
    _validate_inner_shape(mu, params)
    return _theta_enumerate(lam, mu, params.q)


def _validate_inner_shape(lam: Shape, params: SchemeParams) -> None:
    if len(lam) != params.m or any(c < 0 for c in lam) or sum(lam) != params.n:
        raise ValueError(f"{lam} is not an m-tuple of non-negatives summing to n")


def _theta_feasible(lam: Shape, mu: Shape, q: tuple[int, ...]) -> bool:
    """Margin test by nested supports, for margins with one total.

    Row k may use the columns A_k = {j : (k, j) survives}, and each A_k
    lies inside A_{k+1} (checked). So rows 1..k together reach only A_k,
    and by Hall's condition a grid exists exactly when
    lam_1 + ... + lam_k <= sum of mu_j over A_k, for every k.
    """
    indices = range(1, len(q) + 1)
    supports = [{j for j in indices if _survives(i, j, q)} for i in indices]
    if any(not inner <= outer for inner, outer in zip(supports, supports[1:])):
        raise InternalMismatch(f"surviving columns are not nested by row for q = {q}")
    reach = [sum(mu[j - 1] for j in support) for support in supports]
    return all(rows <= cols for rows, cols in zip(accumulate(lam), reach))


def theta_feasible(lam: Shape, mu: Shape, params: SchemeParams) -> bool:
    """Margin test for non-emptiness of the grid family, m inequalities on nested supports."""
    _validate_inner_shape(lam, params)
    _validate_inner_shape(mu, params)
    return _theta_feasible(lam, mu, params.q)


def _omega_pairs(q: tuple[int, ...], n: int) -> list[tuple[Shape, Shape]]:
    inner = compositions(n, len(q))
    return [
        (lam, mu) for lam in inner for mu in inner if _theta_feasible(lam, mu, q)
    ]


def omega_set(params: SchemeParams) -> list[tuple[Shape, Shape]]:
    """All feasible (row-sum, column-sum) pairs, in shape-enumeration order."""
    return _omega_pairs(params.q, params.n)


# ---------------------------------------------------------------------------
# Identity suite.
# ---------------------------------------------------------------------------


def verify_terw_identities(inst: Instance) -> dict[str, bool | None]:
    """Exact checks of every structural identity tying E, E*, F, F*, G, G* together.

    Returns named booleans; identities about the G families are reported as
    None (vacuous) in the single binary case where those families vanish.

    Every matrix multiplied here lies in T and every product runs in
    orbital coordinates: the depth-one identities on `Instance.basis` and
    the depth-one adjacency family, the lifted G families in this instance's.
    Only the per-letter factor identities multiply dense q-by-q matrices,
    which are not in T.
    """
    params = inst.params
    q = params.q
    m = params.m
    n = params.n
    size = params.base_size
    tw = inst.basis
    E, estar, F, Fstar = tw.E, tw.Estar, tw.F, tw.Fstar
    A = list(inst.base.adjacency.values())
    k, mult = base_valencies(params), base_multiplicities(params)
    checks: dict[str, bool | None] = {}

    # E_i E*_j is e_es[i][j], G_i G*_j is g_gs[i - 1][j - 1]: each product made once
    e_es = [[e * es for es in estar] for e in E]
    es_e = [[es * e for e in E] for es in estar]
    f_fs = [[f * fs for fs in Fstar] for f in F]
    fs_f = [[fs * f for f in F] for fs in Fstar]
    g_gs = [[g * gs for gs in tw.Gstar] for g in tw.G]
    gs_g = [[gs * g for g in tw.G] for gs in tw.Gstar]
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]

    checks["idempotent_sandwich_scalars"] = all(
        e_es[0][i] * E[0] == E[0].scale(Fraction(k[i], size)) for i in range(m + 1)
    )
    checks["dual_sandwich_scalars"] = all(
        es_e[0][i] * estar[0] == estar[0].scale(Fraction(mult[i], size))
        for i in range(m + 1)
    )
    checks["corner_shift"] = all(e_es[0][i] == e_es[0][0] * A[i] for i in range(m + 1))

    checks["f_zero_matches_e_zero"] = F[0] == E[0] and Fstar[0] == estar[0]
    checks["f_sandwich_reduction"] = all(
        fs_f[i][0] * Fstar[j] == es_e[i][0] * estar[j]
        for i in range(m + 1)
        for j in range(m + 1)
    )
    checks["f_dual_sandwich_reduction"] = all(
        f_fs[i][0] * F[j] == e_es[i][0] * E[j]
        for i in range(m + 1)
        for j in range(m + 1)
    )
    checks["f_orthogonal_idempotents"] = _orthogonal_idempotents(F)
    checks["fstar_orthogonal_idempotents"] = _orthogonal_idempotents(Fstar)
    checks["f_natural_identity"] = mat_sum(F) == mat_sum(Fstar) == tw.Fnat

    checks["g_orthogonal_idempotents"] = _orthogonal_idempotents(tw.G)
    checks["gstar_orthogonal_idempotents"] = _orthogonal_idempotents(tw.Gstar)
    product = inst.base.orbitals.product
    g, gs, f, fs = ([x.vec for x in fam] for fam in (tw.G, tw.Gstar, F, Fstar))
    checks["g_annihilates_f"] = _annihilating(product, g, f)
    checks["g_annihilates_fstar"] = _annihilating(product, g, fs)
    checks["gstar_annihilates_f"] = _annihilating(product, gs, f)
    checks["gstar_annihilates_fstar"] = _annihilating(product, gs, fs)
    checks["g_product_difference"] = all(
        g_gs[i - 1][j - 1] == e_es[i][j] - f_fs[i][j] for i, j in pairs
    )
    checks["gstar_product_difference"] = all(
        gs_g[i - 1][j - 1] == es_e[i][j] - fs_f[i][j] for i, j in pairs
    )
    checks["g_natural_sum"] = mat_sum(tw.G) == mat_sum(tw.Gstar) == tw.Gnat

    checks["factor_identities"] = _factor_identities_hold(q)

    # E_j E*_i is e_es[j][i]: only the high pairs are symmetric in (i, j)
    checks["mixed_products_low"] = all(
        e_es[j][i] == f_fs[j][i] and es_e[i][j] == fs_f[i][j]
        for i, j in pairs
        if not _survives(i, j, q)
    )
    checks["mixed_products_high"] = all(
        f_fs[j][i].is_zero() and fs_f[i][j].is_zero() for i, j in pairs if i + j > m + 1
    )

    if inst.degenerate:
        checks["g_products_by_regime"] = None
        checks["g_natural_lifted"] = None
        checks["lifted_g_products"] = None
    else:
        checks["g_products_by_regime"] = _g_product_regimes_hold(q, g_gs, gs_g)
        inner = compositions(n, m)
        # G_tau is key pad + tau of the split lift, absent when it is zero
        zero, pad = OrbitalMatrix(inst.orbitals, [0] * inst.orbitals.count), (0,) * (m + 1)
        g_n, gs_n = ({tau: lift.get(pad + tau, zero) for tau in inner} for lift in inst.split_lifts)
        g_sum, gs_sum = (mat_sum(fam.values()) for fam in (g_n, gs_n))
        checks["g_natural_lifted"] = g_sum == gs_sum == inst.lift([tw.Gnat])[(n,)]
        checks["lifted_g_products"] = _lifted_g_products_hold(inst, g_n, gs_n, g_gs)

    f_matches = F[1:] == E[1:] and Fstar[1:] == estar[1:]
    checks["f_equals_e_only_in_binary_single_case"] = f_matches == inst.degenerate
    return checks


def _orthogonal_idempotents(fam: Sequence) -> bool:
    """Whether x y is x for x = y and 0 otherwise, over every ordered pair of `fam`.

    Cochran's criterion, k + 1 products for k members: each x and their sum S
    are idempotent (the converse is plain). Over Q an idempotent's rank is its
    trace, so rank S = sum of the ranks: the im x form a direct sum, im S. So
    S y = y, and the x y over x != y sum to 0 in that direct sum: each is 0.
    """
    total = mat_sum(fam)
    return all(x * x == x for x in fam) and (len(fam) == 1 or total * total == total)


def _annihilating(product, xs: Sequence, ys: Sequence) -> bool:
    """Whether x y = y x = 0 for all x in `xs` and y in `ys`, orbital vectors under `product`."""
    return all(not any(product(x, y)) and not any(product(y, x)) for x in xs for y in ys)


def _factor_identities_hold(q: tuple[int, ...]) -> bool:
    return all(map(_letter_identities_hold, q))


@lru_cache(maxsize=None)
def _letter_identities_hold(qj: int) -> bool:
    """The identities among one letter's factors, checked once per alphabet size."""
    I, _, jt, d, h, hstar, z = letter_factors(qj)
    return (
        (jt * h).is_zero()
        and (h * jt).is_zero()
        and (d * hstar).is_zero()
        and (hstar * d).is_zero()
        and d * (I - jt) == d * h
        and (I - jt) * d == h * d
        and jt * (I - d) == jt * hstar
        and (I - d) * jt == hstar * jt
        and (I - jt) * (I - d) - h * hstar == z
        and (I - d) * (I - jt) - hstar * h == z
        and I - d - hstar == z
        and z.trace() == qj - 2
        and (z.is_zero() if qj == 2 else not z.is_zero())
    )


def _g_product_factors(i: int, j: int, c: LetterFactors, m: int) -> list[RatMatrix]:
    """Kronecker factors of the closed form of G_j G*_i, for a surviving pair (i, j)."""
    if i + j == m + 1:
        return splice(c.Jt, c.Z[i - 1], c.D, i - 1)
    # E_j's (I - Jt) at slot m - j, then E*_i's factors from there on
    p = m - j
    dual = splice(c.I, c.I[i - 1] - c.D[i - 1], c.D, i - 1)
    return splice(c.Jt, c.I[p] - c.Jt[p], dual, p)


def _g_product_regimes_hold(q: tuple[int, ...], g_gs: Sequence, gs_g: Sequence) -> bool:
    """G_j G*_i = G*_i G_j: zero off the surviving pairs, else its closed form.

    g_gs[j][i] is G_j G*_i and gs_g[i][j] is G*_i G_j, 0-based. A closed form
    that is not constant on every orbital is not in T, so it differs.
    """
    m = len(q)
    c = factor_columns(q)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            lhs = g_gs[j - 1][i - 1]
            if lhs != gs_g[i - 1][j - 1]:
                return False
            if not _survives(i, j, q):
                if not lhs.is_zero():
                    return False
            elif not lhs.matches(*_g_product_factors(i, j, c, m)):
                return False
    return True


def _lifted_g_products_hold(inst: Instance, lifted_g: dict, lifted_gs: dict, g_gs: list) -> bool:
    """Each lifted G product is the sum over its support grids of lifted depth-one products."""
    params = inst.params
    m = params.m
    # grid c takes G_j G*_i (g_gs[j][i]) c[i][j] times: one lift of the flattened products
    lifted = inst.lift([g_gs[j][i] for i in range(m) for j in range(m)])
    inner = compositions(params.n, m)
    for lam in inner:
        for mu in inner:
            left = lifted_g[mu] * lifted_gs[lam]
            if left != lifted_gs[lam] * lifted_g[mu]:
                return False
            grids = _theta_enumerate(lam, mu, params.q)
            feasible = _theta_feasible(lam, mu, params.q)
            if feasible != bool(grids):
                return False
            if not grids:
                if not left.is_zero():
                    return False
                continue
            expected = mat_sum(lifted[sum(c, ())] for c in grids)
            if left != expected or left.is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# Subspace measurements.
# ---------------------------------------------------------------------------


def primary_subalgebra(inst: Instance) -> tuple[MatrixSubspace, dict[str, bool]]:
    """Span of the sandwiches E*_lam E_0^(n) E*_mu, with its structure checks.

    The checks, under the names the report prints, verify the dimension,
    the multiplication law U(lam,mu) U(mu,rho) = U(lam,rho) for
    U(lam,mu) = |X^n| / k_mu E*_lam E_0^(n) E*_mu with E*_mu E*_nu = 0 for
    mu != nu, and that the dual sandwiches E_lam E*_0^(n) E_mu span the same
    subspace. The law is the C identities X_mu = 0, one per class, for
    X_mu = |X^n| / k_mu E_0 E*_mu E*_mu E_0 - E_0: the two sides differ by
    |X^n| / k_rho E*_lam X_mu E*_rho, and as the E* sum to I, these vanish for
    every lam and rho only if X_mu does. Every product runs in orbital coordinates.
    """
    params = inst.params
    shapes = inst.shapes
    orbitals = inst.orbitals
    idems, duals = inst.idempotents, inst.duals
    e0 = idems[shapes[0]]
    left = {lam: duals[lam] * e0 for lam in shapes}
    # the canonical rows do not depend on scaling, so the unscaled sandwiches span it
    sub = MatrixSubspace.span(
        orbitals, ((left[lam] * duals[mu]).vec for lam in shapes for mu in shapes)
    )
    law_ok = all(
        (duals[mu] * duals[nu]).is_zero() for mu in shapes for nu in shapes if mu != nu
    ) and all(
        # E_0 E*_mu, not left[mu] transposed: a doctored E_0 need not be symmetric
        (e0 * duals[mu] * left[mu]).scale(Fraction(params.num_points, valency_n(mu, params))) == e0
        for mu in shapes
    )
    dual_left = {lam: idems[lam] * duals[shapes[0]] for lam in shapes}
    dual_span = MatrixSubspace.span(
        orbitals, ((dual_left[lam] * idems[mu]).vec for lam in shapes for mu in shapes)
    )
    return sub, {
        "primary_dimension_is_class_count_squared": sub.dimension == params.class_count**2,
        "primary_multiplication_law": law_ok,
        "primary_dual_span_matches": dual_span == sub,
    }


def _generators(inst: Instance, which: str) -> list[OrbitalMatrix]:
    """The adjacency (`bm`) or idempotent (`idem`) family, then the dual idempotents."""
    if which == "bm":
        first = inst.adjacency
    elif which == "idem":
        first = inst.idempotents
    else:
        raise ValueError("generators must be 'bm' or 'idem'")
    return list(first.values()) + list(inst.duals.values())


def terwilliger_closure(inst: Instance, generators: str = "bm") -> MatrixSubspace:
    """Closure of I, the adjacency (or idempotent) family and the dual idempotents."""
    return algebra_closure([OrbitalMatrix.identity(inst.orbitals), *_generators(inst, generators)])


class ComponentInfo(NamedTuple):
    d: int
    dim: int
    commutative: bool


def component_dims(inst: Instance) -> tuple[tuple[ComponentInfo, ...], dict[str, bool]]:
    """Dimensions of the closure-generated pieces graded by G-degree d.

    For each d every spanning matrix is one lifted sum over the combined
    F/G multiset (a key of `Instance.split_lifts`): n - d factors
    from the F family and d from the G family, with the starred twin; the
    piece is the closure of that set, which is not passed I. Cross products between
    distinct degrees must vanish (the returned `components_pairwise_annihilating`);
    `structure_report` checks that the dimensions add up to dim T.

    Commutativity and annihilation are decided on each closure's spin set
    S, which generates it, in orbital coordinates: about |S|^2 products
    instead of one per pair of basis elements.
    """
    params = inst.params
    m = params.m
    n = params.n
    if inst.degenerate:
        raise ValueError("component split is vacuous when the G families vanish")

    lifts = inst.split_lifts
    infos = []
    pieces: list[MatrixSubspace] = []
    for d in range(n + 1):
        # compositions(0, k) is the all-zero tuple, so d = 0 and d = n need no special case
        keys = [sigma + tau for sigma in compositions(n - d, m + 1) for tau in compositions(d, m)]
        gens = [lift[c] for lift in lifts for c in keys if c in lift]  # absent keys are zero
        gens.sort(key=lambda g: g.vec.count(0), reverse=True)  # stable: sparsest first
        if not gens:
            infos.append(ComponentInfo(d=d, dim=0, commutative=True))
            continue
        comp = algebra_closure(gens)
        infos.append(
            ComponentInfo(d=d, dim=comp.dimension, commutative=_commutative(comp))
        )
        pieces.append(comp)

    # every word of one piece times a word of another contains some s t or t s of their spin sets
    product = inst.orbitals.product
    annihilating = all(_annihilating(product, x.spin, y.spin) for x, y in combinations(pieces, 2))
    return tuple(infos), {"components_pairwise_annihilating": annihilating}


def _commutative(piece: MatrixSubspace) -> bool:
    """Whether a closure is commutative: exactly when its spin set commutes in pairs."""
    product = piece.orbitals.product
    return all(product(s, t) == product(t, s) for s, t in combinations(piece.spin, 2))


# ---------------------------------------------------------------------------
# Structure report.
# ---------------------------------------------------------------------------


def all_pass(checks: Mapping[str, bool | None]) -> bool:
    """The one pass rule: every check holds, and a None check is vacuous."""
    return all(v for v in checks.values() if v is not None)


class Prediction(NamedTuple):
    source: str
    value: int
    agrees: bool


class StructureReport(NamedTuple):
    params: SchemeParams
    dim_T: int
    dim_primary: int
    components: tuple[ComponentInfo, ...]
    center_dim: int
    predictions: tuple[Prediction, ...]
    identity_suite: dict[str, bool | None]
    checks: dict[str, bool]

    @property
    def all_predictions_agree(self) -> bool:
        return all(p.agrees for p in self.predictions)

    def to_json(self) -> dict:
        """Every field but `checks`, which the command reports beside the data, records as dicts."""
        blob = self._asdict()
        del blob["checks"]
        blob.update(
            params=self.params._asdict(),
            components=tuple(c._asdict() for c in self.components),
            predictions=tuple(p._asdict() for p in self.predictions),
        )
        return blob


def structure_report(inst: Instance) -> StructureReport:
    """Measure the Terwilliger algebra and compare every printed formula against it.

    Every prediction row carries an agrees flag set by measurement; the
    report records which formulas match the closure oracle and which do
    not, without deciding which printed form was intended.
    """
    params = inst.params
    m = params.m
    n = params.n
    q = params.q

    closure = terwilliger_closure(inst)
    dim_t = closure.dimension
    primary_sub, primary_checks = primary_subalgebra(inst)
    identity_suite = verify_terw_identities(inst)
    center = center_dimension(closure)
    # alg(S) depends only on span(S), so equal seed spans prove the bm and
    # idem closures equal without closing the idem set a second time
    bm_seeds, idem_seeds = (
        MatrixSubspace.span(inst.orbitals, (g.vec for g in _generators(inst, which)))
        for which in ("bm", "idem")
    )

    checks: dict[str, bool] = {
        "generator_sets_agree": bm_seeds == idem_seeds,
        **primary_checks,
        "identities_all_pass": all_pass(identity_suite),
    }

    components: tuple[ComponentInfo, ...] = ()
    omega_counts = [len(_omega_pairs(q, d)) for d in range(n + 1)]
    omega_n = omega_counts[-1]
    if not inst.degenerate:
        components, component_checks = component_dims(inst)
        checks.update(component_checks)
        checks["components_sum_to_total"] = sum(c.dim for c in components) == dim_t
        top = components[-1]
        checks["top_component_commutative"] = top.commutative
        checks["top_component_dim_is_feasible_pair_count"] = top.dim == omega_n

    lam_info = lambda_set(params)
    lam_size = lam_info.size
    binom = math.comb(lam_size + n - 1, n)
    inner = compositions(n, m)
    theta_total = sum(
        len(_theta_enumerate(lam, mu, q)) for lam in inner for mu in inner
    )

    predictions: list[Prediction] = []

    def add(source: str, value: int, measured: int) -> None:
        predictions.append(Prediction(source=source, value=value, agrees=value == measured))

    def block(d: int) -> int:
        return math.comb(m + n - d, n - d) ** 2

    if inst.degenerate:
        add(
            "dim_T: chain of full blocks of shrinking size",
            sum((n - d + 1) ** 2 for d in range(n + 1)),
            dim_t,
        )
        add("dim_T: primary subalgebra only", params.class_count**2, dim_t)
    else:
        add(
            "dim_T: block total with uniform feasible-pair exponent",
            sum(block(d) for d in range(n + 1)) * omega_n,
            dim_t,
        )
        add(
            "dim_T: block total with per-degree feasible-pair exponent",
            sum(block(d) * omega_counts[d] for d in range(n + 1)),
            dim_t,
        )
        if m == 1 or m == 2 or (m == 3 and q[1] == 2) or n == 1:
            add(
                "dim_T: block total with multiset-count exponent",
                sum(block(d) * math.comb(lam_size + d - 1, d) for d in range(n + 1)),
                dim_t,
            )

    depth_one_dim = dim_t if n == 1 else terwilliger_closure(inst.base).dimension
    add(
        "dim_T: symmetric power of the measured depth-one dimension",
        math.comb(depth_one_dim + n - 1, n),
        dim_t,
    )
    if n == 1:
        add(
            "dim_T: full block plus one loop per surviving pair",
            (m + 1) ** 2 + m * (m - 1) // 2 + lam_info.epsilon,
            dim_t,
        )

    add("support-grid count: multiset binomial", binom, theta_total)
    add("feasible-pair count: multiset binomial", binom, omega_n)

    if components:
        d0 = components[0].dim
        add("depth-zero component: class count squared", params.class_count**2, d0)
        add(
            "depth-zero component: symmetric power of the base primary dimension",
            math.comb((m + 1) ** 2 + n - 1, n),
            d0,
        )

    return StructureReport(
        params=params,
        dim_T=dim_t,
        dim_primary=primary_sub.dimension,
        components=components,
        center_dim=center,
        predictions=tuple(predictions),
        identity_suite=identity_suite,
        checks=checks,
    )
