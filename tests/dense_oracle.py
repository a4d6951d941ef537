"""Dense-coordinate helpers for the oracle tests.

The package measures every span in one orbital coordinate system. These
helpers work in the discrete coordinates (every pair of points its own
orbital, the row-major vectorization) or expand a span from any
coordinates to dense matrices, so a measurement can be checked against a
computation that never uses the group. The scheme axioms and intersection
numbers are also read here from dense relation matrices and their
products, against the counts the package takes from the pair-shape sweep,
and `point_sub`/`shape_of` give the relation of a pair by its definition,
against the `pair_shapes` sweep.
"""

from ordered_hamming import EmptyInput, MatrixSubspace, Orbitals, RatMatrix
from ordered_hamming.exact_linalg import mat_sum


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
    red = sub._reducer
    return [sub.orbitals.matrix(row, row[p]) for row, p in zip(red.rows, red.pivots)]


def contains(sub: MatrixSubspace, mat: RatMatrix) -> bool:
    """Whether `mat` lies in `sub`; a matrix not constant on every orbital does not."""
    vec = sub.orbitals._entries(mat)
    return vec is not None and not any(sub._reducer.residual(vec))


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


def is_symmetric(mat: RatMatrix) -> bool:
    n = mat.nrows
    return all(mat[x, y] == mat[y, x] for x in range(n) for y in range(n))


def is_zero_one(mat: RatMatrix) -> bool:
    return mat == mat.hadamard(mat)


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
