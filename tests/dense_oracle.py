"""Dense-coordinate helpers for the oracle tests.

The package measures every span in one orbital coordinate system. These
helpers work in the discrete coordinates (every pair of points its own
orbital, the row-major vectorization) or expand a span from any
coordinates to dense matrices, so a measurement can be checked against a
computation that never uses the group.
"""

from ordered_hamming import EmptyInput, MatrixSubspace, Orbitals, RatMatrix


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
