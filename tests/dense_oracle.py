"""Dense-coordinate helpers for the oracle tests.

The package measures every span in one orbital coordinate system. These
helpers work in the discrete coordinates (every pair of points its own
orbital, the row-major vectorization) or expand a span from any
coordinates to dense matrices, so a measurement can be checked against a
computation that never uses the group. `relation_matrices` builds the dense
0/1 relation matrices from the pair-shape sweep. The scheme axioms and
intersection numbers are read here from them and their products, against
the counts the package takes from the sweep; `profile_intersection_counts`
counts the profile of every pair over all N points z, the reference for the
package's packed-row check of A_i A_j = sum_k p^k_ij A_k. `point_sub` and
`shape_of` give the relation of a pair by its definition, against the
`pair_shapes` sweep. The identity suite and the spectral
checks are run here with dense products, against the suites the package
runs in orbital coordinates; the identity suite here checks orthogonal
idempotents by the literal law over every ordered pair, against the
package's sum criterion. The dense row reducer and the center stacked
over the whole spin set are the references for the package's sparse
reducer and masked center. The dense Kronecker products `kron` and
`kron_all`, and `dense_spectral`, which expands the package's closed-form
factor lists from the depth-one factor builders with them (no `Instance`),
are the references for the package's streamed Kronecker entries and its
checked depth-one families; `row_sums` reads the row sums of a dense
matrix. The dense Kronecker lift `dense_lifted_sum` and
the per-multiplicity first-factor recursion `lifted_sum` are the references
for the package's one-expansion lift `lifted_family`. The depth-n
stabilizer maps (block permutations and block-0 value swaps) and the orbit
search over them, `searched_orbitals`, are the reference for the package's
multiset labelling of the depth-n orbitals. The depth-one value swaps,
`stabilizer_maps`, checked on every pair and searched by
`stabilizer_orbitals`, are the reference for the package's labelling of the
depth-one orbitals by their triple of shapes.
"""

import math
from bisect import bisect_left
from collections import Counter
from functools import cache
from itertools import chain, product
from fractions import Fraction
from typing import NamedTuple, Sequence

from ordered_hamming import EmptyInput, InternalMismatch, MatrixSubspace, Orbitals, RatMatrix
from ordered_hamming.exact_linalg import DimensionMismatch, OrbitalMatrix, _point_classes, mat_sum
from ordered_hamming.scheme import SchemeParams, Shape, compositions
from ordered_hamming.spectral import (
    base_adjacency,
    base_dual_idempotents,
    base_idempotents,
    base_multiplicities,
    base_valencies,
    eigen_n,
    factor_columns,
    multiplicity_n,
    splice,
    valency_n,
)
from ordered_hamming.terwilliger import (
    TerwBasisSet,
    _factor_identities_hold,
    _survives,
    _theta_enumerate,
    _theta_feasible,
)


class DenseRowReducer:
    """Fully reduced integer row-echelon container with canonical dense rows.

    Rows are primitive integer vectors with positive pivot entries; every
    pivot column is zero in all other rows. This is the unique reduced
    echelon basis of the row space, scaled entrywise to clear denominators.
    The package's sparse reducer must keep exactly these rows.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def residual(self, vec: Sequence[int]) -> list[int]:
        out = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = out[p]
            if c:
                rp = row[p]
                out = _primitive([a * rp - b * c for a, b in zip(out, row)])
        return out

    def insert(self, vec: Sequence[int]) -> bool:
        new = self.residual(vec)
        piv = next((i for i, a in enumerate(new) if a), None)
        if piv is None:
            return False
        if new[piv] < 0:
            new = [-a for a in new]
        new = _primitive(new)
        for k, row in enumerate(self.rows):
            c = row[piv]
            if c:
                vp = new[piv]
                self.rows[k] = _primitive([a * vp - b * c for a, b in zip(row, new)])
        pos = bisect_left(self.pivots, piv)
        self.rows.insert(pos, new)
        self.pivots.insert(pos, piv)
        return True

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @property
    def _rows(self) -> dict[int, dict[int, int]]:
        """The rows as the package's reducer holds them, {pivot: {column: value}}."""
        return {p: {j: a for j, a in enumerate(row) if a} for row, p in zip(self.rows, self.pivots)}


def _primitive(vec: list[int]) -> list[int]:
    g = math.gcd(*vec)
    return [a // g for a in vec] if g > 1 else vec


def _flat(mat: RatMatrix) -> list[int]:
    """Row-major vectorization of the integer entries; a positive multiple of the matrix."""
    return list(mat.vec)


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product; block (i, j) is a[i, j] * b, second factor fastest."""
    (p, q), (r, s) = a.frame, b.frame
    rows_a = [a.vec[i : i + q] for i in range(0, p * q, q)]
    rows_b = [b.vec[k : k + s] for k in range(0, r * s, s)]
    vec = [x * y for ra in rows_a for rb in rows_b for x in ra for y in rb]
    return RatMatrix._new((p * r, q * s), vec, a.den * b.den)


def kron_all(mats: Sequence[RatMatrix]) -> RatMatrix:
    """Left-to-right Kronecker chain."""
    if not mats:
        raise EmptyInput("kron_all of nothing")
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


class DenseSpectral(NamedTuple):
    """Depth-one A, E and E* as dense matrices, with valencies and multiplicities."""

    params: SchemeParams
    A: tuple[RatMatrix, ...]
    E: tuple[RatMatrix, ...]
    Estar: tuple[RatMatrix, ...]
    k: tuple[int, ...]
    mult: tuple[int, ...]


def dense_spectral(params: SchemeParams) -> DenseSpectral:
    """The depth-one families of `params`, each closed form expanded from its factors by `kron_all`."""
    builders = (base_adjacency, base_idempotents, base_dual_idempotents)
    families = (tuple(map(kron_all, build(params))) for build in builders)
    return DenseSpectral(params, *families, base_valencies(params), base_multiplicities(params))


def row_sums(mat: RatMatrix) -> tuple[Fraction, ...]:
    """The sum of each row of `mat`."""
    width = mat.ncols
    return tuple(Fraction(sum(mat.vec[i : i + width]), mat.den) for i in range(0, len(mat.vec), width))


def dense_rows(sub: MatrixSubspace) -> list[list[int]]:
    """The canonical rows of `sub` as dense orbital vectors, in pivot order."""
    count = sub.orbitals.count
    return [[row.get(j, 0) for j in range(count)] for _, row in sorted(sub._reducer._rows.items())]


def stacked_center_dimension(alg: MatrixSubspace) -> int:
    """Reference center: d minus the rank of the d vectors stacking [b, s] over all of S.

    One vector per basis element b, concatenating bs - sb for every s in
    the spin set, diagonal or not; no mask and no kernel step.
    """
    basis = dense_rows(alg)
    product = alg.orbitals.product
    commutators = DenseRowReducer(len(alg.spin) * alg.orbitals.count)
    for b in basis:
        commutators.insert(
            [x - y for s in alg.spin for x, y in zip(product(b, s), product(s, b))]
        )
    return len(basis) - commutators.dimension


def discrete(mats):
    """Square matrices as `OrbitalMatrix` values on one discrete `Orbitals`: every pair its own."""
    mats = list(mats)
    orbitals = Orbitals(mats[0].nrows)
    return [OrbitalMatrix.of(orbitals, m) for m in mats]


def rows_in_one_block(alg: MatrixSubspace) -> bool:
    """Whether every canonical row of a closure lies in one block of its own `_point_classes`.

    `center_dimension` relies on it: it reads the Z that commute with every
    diagonal member of S off the rows whose pivot has x and z in one class.
    """
    _, blocks, _ = _point_classes(alg.orbitals, alg.spin)
    return all(len({blocks[o] for o in row}) == 1 for row in alg._reducer._rows.values())


def dense_lifted_sum(parts: Sequence[tuple[RatMatrix, int]]) -> RatMatrix:
    """Sum of dense Kronecker products over all arrangements of the given parts.

    The reference for the package's `lifted_family` and for `lifted_sum`,
    which work in orbital coordinates. Parts with multiplicity zero are
    dropped first. The first-factor recursion is memoized on the remaining
    counts, so the work is one Kronecker product per nonzero count in each
    count state; a state with one factor left, or a lone factor, is that
    factor.
    """
    kept = [(m, c) for m, c in parts if c]
    if not kept:
        raise EmptyInput("total multiplicity must be at least 1")
    side = kept[0][0].nrows
    for m, _ in kept:
        if m.nrows != m.ncols or m.nrows != side:
            raise DimensionMismatch("all factors must be square with one common side")
    mats, counts = zip(*kept)
    if counts == (1,):
        return mats[0]

    @cache
    def lift(rest: tuple[int, ...]) -> RatMatrix:
        if sum(rest) == 1:
            return mats[rest.index(1)]
        return mat_sum(
            kron(mats[i], lift(rest[:i] + (c - 1,) + rest[i + 1 :]))
            for i, c in enumerate(rest)
            if c
        )

    return lift(counts)


def lifted_sum(parts: Sequence, orbitals: Orbitals, blocks: Sequence) -> OrbitalMatrix:
    """Sum of Kronecker products over all arrangements of the (OrbitalMatrix, count) parts.

    The reference for the package's `lifted_family`, one multiplicity
    vector at a time. blocks[o] holds the depth-one orbitals of the n block
    pairs of orbital o's representative, first block first. Zero counts are
    dropped, and a lone factor of count one on `orbitals` is returned as it
    is. Entries are over prod den_i^c_i; the first-factor recursion is
    memoized on the remaining counts and block labels, and skips factors
    zero on the next.
    """
    kept = [(m, c) for m, c in parts if c]
    if not kept:
        raise EmptyInput("total multiplicity must be at least 1")
    mats, counts = zip(*kept)
    if any(m.frame is not mats[0].frame for m in mats) or len(blocks[0]) != sum(counts):
        raise DimensionMismatch("the parts need one set of orbitals and one block per factor")
    if counts == (1,) and mats[0].frame is orbitals:
        return mats[0]
    vecs = [m.vec for m in mats]

    @cache
    def lift(rest: tuple[int, ...], labels: tuple[int, ...]) -> int:
        head = labels[0]
        if len(labels) == 1:
            return vecs[rest.index(1)][head]
        return sum(
            vecs[i][head] * lift(rest[:i] + (c - 1,) + rest[i + 1 :], labels[1:])
            for i, c in enumerate(rest)
            if c and vecs[i][head]
        )

    den = math.prod(m.den**c for m, c in kept)
    return OrbitalMatrix(orbitals, [lift(counts, b) for b in blocks], den)


def dense_family(inst, base):
    """The depth-n lift of a depth-one family, one `dense_lifted_sum` per shape, never wrapped."""
    return {lam: dense_lifted_sum(list(zip(base, lam))) for lam in inst.shapes}


def span_basis(mats):
    """Linear span of the given square matrices, in the discrete (dense) coordinates."""
    mats = list(mats)
    if not mats:
        raise EmptyInput("span of an empty list")
    orbitals = Orbitals(mats[0].nrows)
    return MatrixSubspace.span(orbitals, [orbitals.vector(m) for m in mats])


def basis_matrices(sub: MatrixSubspace) -> list[RatMatrix]:
    """The canonical reduced basis of `sub` as dense matrices, each scaled to pivot entry 1.

    Orbitals are labelled in row-major order of their first pair, so this
    is the same list in any coordinates that hold the span.
    """
    # a row's pivot entry is its first nonzero one
    return [sub.orbitals.matrix(row, next(filter(None, row))) for row in dense_rows(sub)]


def contains(sub: MatrixSubspace, mat: RatMatrix) -> bool:
    """Whether `mat` lies in `sub`; a matrix not constant on every orbital does not."""
    vec = sub.orbitals._entries(_flat(mat))
    return vec is not None and not any(sub._reducer.residual(vec))


def iter_points(params):
    """Every point of X^n in flat-index order (last coordinate fastest)."""
    blocks = [tuple(b) for b in product(*(range(qj) for qj in params.q))]
    return [tuple(p) for p in product(blocks, repeat=params.n)]


def _swap_values(block: tuple[int, ...], j: int, above: tuple[int, ...], a: int):
    """Swap the values a and a + 1 at coordinate j, if the coordinates above j are `above`."""
    if block[j + 1 :] == above and block[j] in (a, a + 1):
        return block[:j] + (2 * a + 1 - block[j],) + block[j + 1 :]
    return block


def stabilizer_maps(params: SchemeParams) -> list[tuple[int, ...]]:
    """Permutations of the points of one block, as flat-index tuples, fixing 0 and every relation.

    They are the triangular value swaps: at coordinate j, for one setting
    of the coordinates above j, swap the values a and a + 1. Only
    coordinate j changes, by a bijection that depends on the coordinates
    above it, so two blocks keep their last differing coordinate; a starts
    at 1 when the setting above j is all zeros, so 0 stays put. They
    generate a group G1 of automorphisms fixing 0, each checked by
    `stabilizer_orbitals`; depth n has `multiset_orbitals`.
    """
    if params.n != 1:
        raise ValueError(f"stabilizer maps act on one block, not on {params.label()}")
    q = params.q
    blocks = list(product(*map(range, q)))
    index = {b: i for i, b in enumerate(blocks)}
    return [
        tuple(index[_swap_values(b, j, above, a)] for b in blocks)
        for j in range(params.m)
        for above in product(*map(range, q[j + 1 :]))
        for a in range(0 if any(above) else 1, q[j] - 1)
    ]


def stabilizer_orbitals(params: SchemeParams, sweep: Sequence[Shape]) -> Orbitals:
    """The orbitals on pairs of points of one block of the group `stabilizer_maps` generates.

    Every map is checked on every point and pair before use: it must be a
    permutation of the points, fix the zero point, and keep the shape of
    x - y for all N^2 pairs, read from the `pair_shapes` sweep; one that
    fails raises InternalMismatch. Each pair is keyed by the first pair of
    its orbit. Depth one only, as `stabilizer_maps` is.
    """
    npts = params.num_points
    maps = stabilizer_maps(params)
    for k, perm in enumerate(maps):
        if sorted(perm) != list(range(npts)):
            raise InternalMismatch(f"stabilizer map {k} is not a permutation of the points")
        if perm[0] != 0:
            raise InternalMismatch(f"stabilizer map {k} moves the zero point")
        for x, px in enumerate(perm):
            image = sweep[px * npts : (px + 1) * npts]
            if [image[py] for py in perm] != list(sweep[x * npts : (x + 1) * npts]):
                raise InternalMismatch(
                    f"stabilizer map {k} changes the shape of a difference from point {x}"
                )
    first = [-1] * (npts * npts)
    for start in range(npts * npts):
        todo = [start] if first[start] < 0 else []
        for pair in todo:  # the orbit of start, which grows as it is searched
            if first[pair] < 0:
                first[pair] = start
                x, y = divmod(pair, npts)
                todo.extend(perm[x] * npts + perm[y] for perm in maps)
    return Orbitals(npts, first)


def dense_stabilizer_maps(params):
    """Point permutations of X^n, as flat-index tuples, that fix 0 and generate G1 wr S_n.

    When n > 1, the transposition of blocks 0 and 1 and the n-cycle of
    blocks, then the depth-one value swaps of `stabilizer_maps` acting on
    block 0.
    """
    depth_one = stabilizer_maps(SchemeParams(params.q, 1))
    if params.n == 1:
        return depth_one
    pts = iter_points(params)
    index = {x: i for i, x in enumerate(pts)}
    maps = [tuple(index[(x[1], x[0]) + x[2:]] for x in pts)]
    if params.n > 2:  # for n = 2 the n-cycle is the transposition
        maps.append(tuple(index[x[1:] + x[:1]] for x in pts))
    stride = len(pts) // params.base_size  # block 0 is the slowest
    return maps + [
        tuple(perm[i // stride] * stride + i % stride for i in range(len(pts))) for perm in depth_one
    ]


def searched_orbitals(side, maps):
    """The orbits of the group `maps` generate on pairs: (labels, reps), by breadth-first search.

    Orbitals are numbered by their first pair in row-major order, which is
    their representative.
    """
    labels = [-1] * (side * side)
    reps = []
    for start in range(side * side):
        if labels[start] >= 0:
            continue
        label = len(reps)
        reps.append(start)
        labels[start] = label
        todo = [start]
        while todo:
            x, y = divmod(todo.pop(), side)
            for perm in maps:
                pair = perm[x] * side + perm[y]
                if labels[pair] < 0:
                    labels[pair] = label
                    todo.append(pair)
    return labels, reps


def point_sub(x, y, params):
    """x - y, blockwise and coordinatewise mod q_j."""
    return tuple(
        tuple((a - b) % qj for a, b, qj in zip(bx, by, params.q)) for bx, by in zip(x, y)
    )


def shape_of(x, params):
    """Shape of a point: entry j counts blocks whose last nonzero coordinate sits at j."""
    lam = [0] * (params.m + 1)
    for block in x:
        lam[max((j for j, c in enumerate(block, 1) if c), default=0)] += 1
    return tuple(lam)


def relation_matrices(inst) -> dict[Shape, RatMatrix]:
    """The 0/1 matrix of every relation of `inst`, read from its `pair_shapes` sweep.

    The brute-force reference: the package compares its lifted adjacency
    family with the sweep itself and builds none of these.
    """
    sweep = inst.pair_shapes
    npts = math.isqrt(len(sweep))
    rows = [sweep[i : i + npts] for i in range(0, len(sweep), npts)]
    return {lam: RatMatrix([int(s == lam) for s in row] for row in rows) for lam in inst.shapes}


def profile_intersection_counts(
    sweep: Sequence[Shape], shapes: Sequence[Shape]
) -> dict[tuple[Shape, Shape, Shape], int] | None:
    """p^k_ij as {(i, j, k): p} over `shapes`, counted from the `pair_shapes` sweep.

    Entry (x, y) of A_i A_j is #{z : sweep[x, z] = i, sweep[z, y] = j}. With
    the C relations labelled 0..C-1, counting C * row x + column y gives that
    entry for every pair of labels at once. Relation k keeps the counts of
    its first pair in row-major order; None if any other pair of k counts
    differently, since then p^k_ij is not defined. The keys run over i,
    then j, then the k that have a pair.
    """
    npts = math.isqrt(len(sweep))
    label = {lam: a for a, lam in enumerate(dict.fromkeys(chain(shapes, sweep)))}
    c = len(label)
    rows = [[label[lam] for lam in sweep[x * npts : (x + 1) * npts]] for x in range(npts)]
    cols = list(zip(*rows))
    first: dict[int, Counter] = {}
    for row in rows:
        scaled = [c * a for a in row]
        for k, col in zip(row, cols):
            counts = Counter([a + b for a, b in zip(scaled, col)])
            if first.setdefault(k, counts) != counts:
                return None
    return {
        (i, j, k): first[label[k]][c * label[i] + label[j]]
        for i in shapes
        for j in shapes
        for k in shapes
        if label[k] in first
    }


def is_symmetric(mat: RatMatrix) -> bool:
    n = mat.nrows
    return all(mat[x, y] == mat[y, x] for x in range(n) for y in range(n))


def is_zero_one(mat: RatMatrix) -> bool:
    return all(mat[x, y] ** 2 == mat[x, y] for x in range(mat.nrows) for y in range(mat.ncols))


def hadamard(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The entrywise product of two matrices of one shape."""
    return RatMatrix([[a[x, y] * b[x, y] for y in range(a.ncols)] for x in range(a.nrows)])


def _first_pair(mat: RatMatrix) -> tuple[int, int] | None:
    """(row, col) of the first nonzero entry in row-major order, None if zero."""
    n = mat.nrows
    return next(((x, y) for x in range(n) for y in range(n) if mat[x, y]), None)


def _decompose_product(mats, samples, i, j):
    """Write A_i A_j as a relation-constant combination, or None if impossible.

    `samples[k]` is one pair in relation k; relations without a pair are left out.
    """
    prod = mats[i] * mats[j]
    coeffs = {}
    recon = prod.scale(0)
    for k, sample in samples.items():
        p = prod[sample]
        if p.denominator != 1:
            return None
        coeffs[k] = int(p)
        recon = recon + mats[k].scale(p)
    return coeffs if recon == prod else None


def decompose_products(mats):
    """Every ordered product A_i A_j as relation coefficients, None where impossible."""
    firsts = {k: _first_pair(ak) for k, ak in mats.items()}
    samples = {k: pos for k, pos in firsts.items() if pos is not None}
    return {(i, j): _decompose_product(mats, samples, i, j) for i in mats for j in mats}


def dense_scheme_checks(shapes, mats):
    """(axiom checks, intersection table or None) from the dense products of `mats`.

    `mats` maps each shape, in the order of `shapes`, to its 0/1 relation matrix.
    """
    npts = mats[shapes[0]].nrows
    tables = decompose_products(mats)
    well_defined = None not in tables.values()
    checks = {
        "R1_diagonal_relation": mats[shapes[0]] == RatMatrix.identity(npts),
        "R2_partition": mat_sum(mats.values()) == RatMatrix.ones(npts)
        and all(map(is_zero_one, mats.values())),
        "R3_symmetric": all(map(is_symmetric, mats.values())),
        "R4_constants_well_defined": well_defined,
        "R5_constants_commute": all(tables[i, j] == tables[j, i] for i in shapes for j in shapes)
        if well_defined
        else None,
    }
    if not well_defined:
        return checks, None
    table = {(i, j, k): p for (i, j), coeffs in tables.items() for k, p in coeffs.items()}
    return checks, table


def dense_spectral_n(inst):
    """The spectral checks of `verify_spectral_n` on dense families, with dense products."""
    params = inst.params
    shapes = inst.shapes
    data = dense_spectral(inst.base.params)
    adj = dense_family(inst, data.A)
    idem = dense_family(inst, data.E)
    P, Q = eigen_n(params)
    npts = params.num_points
    inv_size = Fraction(1, npts)

    eig_ok = True
    had_ok = True
    for li, lam in enumerate(shapes):
        for mi, mu in enumerate(shapes):
            if adj[mu] * idem[lam] != idem[lam].scale(P[li, mi]):
                eig_ok = False
            if hadamard(idem[mu], adj[lam]) != adj[lam].scale(inv_size * Q[li, mi]):
                had_ok = False

    val_ok = all(
        set(row_sums(adj[lam])) == {Fraction(valency_n(lam, params))} for lam in shapes
    )
    mult_ok = all(idem[lam].trace() == multiplicity_n(lam, params) for lam in shapes)

    brute = relation_matrices(inst)
    lift_ok = all(adj[lam] == brute[lam] for lam in shapes)

    resolve_ok = mat_sum(idem.values()) == RatMatrix.identity(npts)

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


# ---------------------------------------------------------------------------
# The identity suite in dense coordinates: the F/G families from dense
# sandwiches, and every identity a dense product, against the package's
# suite in orbital coordinates.
# ---------------------------------------------------------------------------


def dense_terw_basis(data):
    """The F/G families from dense sandwich products, each F checked against its closed form.

    `data` holds A, E and E* as dense matrices, as `dense_spectral` expands them.
    """
    params = data.params
    m = params.m
    size = params.base_size
    E, estar, k, mult = data.E, data.Estar, data.k, data.mult
    c = factor_columns(params.q)

    F = [E[0]]
    Fstar = [estar[0]]
    for j in range(1, m + 1):
        F.append((E[j] * estar[0] * E[j]).scale(Fraction(size, mult[j])))
        Fstar.append((estar[j] * E[0] * estar[j]).scale(Fraction(size, k[j])))

    # closed forms: F_j mirrors the idempotent index pattern, F*_j the dual one
    for j in range(1, m + 1):
        if kron_all(splice(c.Jt, c.H[m - j], c.D, m - j)) != F[j]:
            raise InternalMismatch(f"closed form for F_{j} disagrees with its sandwich")
        if kron_all(splice(c.Jt, c.Hstar[j - 1], c.D, j - 1)) != Fstar[j]:
            raise InternalMismatch(f"closed form for F*_{j} disagrees with its sandwich")

    G = tuple(E[j] - F[j] for j in range(1, m + 1))
    Gstar = tuple(estar[j] - Fstar[j] for j in range(1, m + 1))
    fnat = mat_sum(F)
    gnat = RatMatrix.identity(size) - fnat
    return TerwBasisSet(
        E=E, Estar=estar, F=tuple(F), Fstar=tuple(Fstar), G=G, Gstar=Gstar, Fnat=fnat, Gnat=gnat
    )


def expanded(tw):
    """`tw` with every member expanded to a dense matrix."""
    return TerwBasisSet(
        **{
            name: x.matrix() if name in ("Fnat", "Gnat") else tuple(y.matrix() for y in x)
            for name, x in tw._asdict().items()
        }
    )


def dense_terw_identities(inst, tw=None):
    """The identity suite with every product a dense `RatMatrix` product, on dense families.

    `tw`, a dense basis as `expanded` gives it, is checked in place of `dense_terw_basis`'s.
    """
    params = inst.params
    q = params.q
    m = params.m
    n = params.n
    size = params.base_size
    data = dense_spectral(inst.base.params)
    tw = dense_terw_basis(data) if tw is None else tw
    E, estar, A, k, mult = tw.E, tw.Estar, data.A, data.k, data.mult
    F, Fstar = tw.F, tw.Fstar
    G = (None,) + tw.G  # 1-based access
    Gstar = (None,) + tw.Gstar
    checks: dict[str, bool | None] = {}

    checks["idempotent_sandwich_scalars"] = all(
        E[0] * estar[i] * E[0] == E[0].scale(Fraction(k[i], size)) for i in range(m + 1)
    )
    checks["dual_sandwich_scalars"] = all(
        estar[0] * E[i] * estar[0] == estar[0].scale(Fraction(mult[i], size))
        for i in range(m + 1)
    )
    checks["corner_shift"] = all(
        E[0] * estar[i] == E[0] * estar[0] * A[i] for i in range(m + 1)
    )

    checks["f_zero_matches_e_zero"] = F[0] == E[0] and Fstar[0] == estar[0]
    checks["f_sandwich_reduction"] = all(
        Fstar[i] * F[0] * Fstar[j] == estar[i] * E[0] * estar[j]
        for i in range(m + 1)
        for j in range(m + 1)
    )
    checks["f_dual_sandwich_reduction"] = all(
        F[i] * Fstar[0] * F[j] == E[i] * estar[0] * E[j]
        for i in range(m + 1)
        for j in range(m + 1)
    )
    checks["f_orthogonal_idempotents"] = _orthogonal_idempotents(F)
    checks["fstar_orthogonal_idempotents"] = _orthogonal_idempotents(Fstar)
    checks["f_natural_identity"] = mat_sum(F) == mat_sum(Fstar) == tw.Fnat

    checks["g_orthogonal_idempotents"] = _orthogonal_idempotents(tw.G)
    checks["gstar_orthogonal_idempotents"] = _orthogonal_idempotents(tw.Gstar)
    checks["g_annihilates_f"] = _mutually_annihilating(tw.G, F)
    checks["g_annihilates_fstar"] = _mutually_annihilating(tw.G, Fstar)
    checks["gstar_annihilates_f"] = _mutually_annihilating(tw.Gstar, F)
    checks["gstar_annihilates_fstar"] = _mutually_annihilating(tw.Gstar, Fstar)
    checks["g_product_difference"] = all(
        G[i] * Gstar[j] == E[i] * estar[j] - F[i] * Fstar[j]
        for i in range(1, m + 1)
        for j in range(1, m + 1)
    )
    checks["gstar_product_difference"] = all(
        Gstar[i] * G[j] == estar[i] * E[j] - Fstar[i] * F[j]
        for i in range(1, m + 1)
        for j in range(1, m + 1)
    )
    checks["g_natural_sum"] = mat_sum(tw.G) == mat_sum(tw.Gstar) == tw.Gnat

    checks["factor_identities"] = _factor_identities_hold(q)

    mixed_low = True
    mixed_high = True
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if not _survives(i, j, q):
                if E[j] * estar[i] != F[j] * Fstar[i]:
                    mixed_low = False
                if estar[i] * E[j] != Fstar[i] * F[j]:
                    mixed_low = False
            elif i + j > m + 1:
                if not (F[j] * Fstar[i]).is_zero() or not (Fstar[i] * F[j]).is_zero():
                    mixed_high = False
    checks["mixed_products_low"] = mixed_low
    checks["mixed_products_high"] = mixed_high

    if inst.degenerate:
        checks["g_products_by_regime"] = None
        checks["g_natural_lifted"] = None
        checks["lifted_g_products"] = None
    else:
        checks["g_products_by_regime"] = _g_product_regimes_hold(params, tw)
        inner = compositions(n, m)
        glist = list(tw.G)
        gslist = list(tw.Gstar)
        lifted_g = {tau: dense_lifted_sum(list(zip(glist, tau))) for tau in inner}
        lifted_gs = {tau: dense_lifted_sum(list(zip(gslist, tau))) for tau in inner}
        gnat_power = kron_all([tw.Gnat] * n)
        checks["g_natural_lifted"] = (
            mat_sum(lifted_g.values()) == mat_sum(lifted_gs.values()) == gnat_power
        )
        checks["lifted_g_products"] = _lifted_g_products_hold(
            params, tw, lifted_g, lifted_gs
        )

    f_matches = all(F[j] == E[j] for j in range(1, m + 1)) and all(
        Fstar[j] == estar[j] for j in range(1, m + 1)
    )
    checks["f_equals_e_only_in_binary_single_case"] = f_matches == inst.degenerate
    return checks


def _orthogonal_idempotents(fam) -> bool:
    """The literal law: x y is x for x = y and 0 otherwise, over every ordered pair of `fam`."""
    return all(
        (x * y == x) if i == j else (x * y).is_zero()
        for i, x in enumerate(fam)
        for j, y in enumerate(fam)
    )


def _mutually_annihilating(xs, ys) -> bool:
    """The literal law: x y and y x are both 0, over every x in `xs` and y in `ys`."""
    return all((x * y).is_zero() and (y * x).is_zero() for x in xs for y in ys)


def _g_product_regimes_hold(params, tw) -> bool:
    q = params.q
    m = params.m
    c = factor_columns(q)
    G = (None,) + tw.G
    Gstar = (None,) + tw.Gstar
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            lhs = G[j] * Gstar[i]
            if lhs != Gstar[i] * G[j]:
                return False
            if not _survives(i, j, q):
                if not lhs.is_zero():
                    return False
            elif i + j == m + 1:
                if lhs != kron_all(splice(c.Jt, c.Z[i - 1], c.D, i - 1)):
                    return False
            else:
                # E_j's (I - Jt) at slot m - j, then E*_i's factors from there on
                p = m - j
                dual = splice(c.I, c.I[i - 1] - c.D[i - 1], c.D, i - 1)
                if lhs != kron_all(splice(c.Jt, c.I[p] - c.Jt[p], dual, p)):
                    return False
    return True


def _lifted_g_products_hold(params, tw, lifted_g, lifted_gs) -> bool:
    m = params.m
    grid = [[tw.G[j] * tw.Gstar[i] for j in range(m)] for i in range(m)]
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
            expected = mat_sum(
                dense_lifted_sum([(grid[i][j], c[i][j]) for i in range(m) for j in range(m)])
                for c in grids
            )
            if left != expected or left.is_zero():
                return False
    return True
