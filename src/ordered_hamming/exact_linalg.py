"""Dense exact-rational matrices, spans, algebra closure, and center computation.

A matrix is a grid of Python ints over one positive common denominator,
kept in lowest terms: no prime divides the denominator and every entry,
and the zero matrix has denominator 1. So equal matrices have equal grids,
and all arithmetic runs on plain integers; `Fraction` appears only where
entries enter or leave. Nothing ever rounds. Subspace bookkeeping happens
in fully reduced integer row-echelon form, so the resulting basis is
canonical: two subspaces are equal exactly when their stored rows are
identical.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from operator import add, mul, sub
from typing import Iterable, Sequence


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class EmptyInput(ValueError):
    """An operation that needs at least one matrix received none."""


class NotAnAlgebra(ValueError):
    """A subspace presented as multiplication-closed failed a product check."""


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"matrix entries must be exact rationals, got {type(value).__name__}")


def _lowest_terms(grid: Iterable[Iterable[int]], den: int) -> RatMatrix:
    """The matrix grid / den (den > 0), with the common factors divided out."""
    grid = tuple(map(tuple, grid))
    if den != 1:
        g = math.gcd(den, *chain.from_iterable(grid))
        if g != 1:
            grid = tuple(tuple(a // g for a in row) for row in grid)
            den //= g
    mat = object.__new__(RatMatrix)
    mat._grid = grid
    mat._den = den
    return mat


def _flat(mat: RatMatrix) -> list[int]:
    """Row-major vectorization of the grid; a positive multiple of the matrix."""
    return list(chain.from_iterable(mat._grid))


class RatMatrix:
    """Immutable dense matrix of exact rationals: an integer grid over one denominator."""

    __slots__ = ("_grid", "_den")

    def __init__(self, rows: Iterable[Iterable]):
        data = [[_coerce(x) for x in row] for row in rows]
        if not data or not data[0]:
            raise EmptyInput("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionMismatch("ragged rows")
        # The lcm of lowest-terms denominators leaves no common factor.
        den = math.lcm(*{x.denominator for row in data for x in row})
        self._grid = tuple(
            tuple(x.numerator * (den // x.denominator) for x in row) for row in data
        )
        self._den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int | None = None) -> RatMatrix:
        ncols = nrows if ncols is None else ncols
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def ones(cls, nrows: int, ncols: int | None = None) -> RatMatrix:
        ncols = nrows if ncols is None else ncols
        return cls([[1] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, entries: Sequence) -> RatMatrix:
        vals = [_coerce(x) for x in entries]
        return cls([[vals[i] if i == j else 0 for j in range(len(vals))] for i in range(len(vals))])

    # -- shape and entries ----------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self._grid)

    @property
    def ncols(self) -> int:
        return len(self._grid[0])

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self._den
        value = {a: Fraction(a, den) for a in set(chain.from_iterable(self._grid))}
        return tuple(tuple(map(value.__getitem__, row)) for row in self._grid)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return Fraction(self._grid[i][j], self._den)

    # -- arithmetic -----------------------------------------------------

    def _same_shape(self, other: RatMatrix) -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def _entrywise(self, other: RatMatrix, op) -> RatMatrix:
        """op(self, other) entry by entry, for op in (add, sub)."""
        self._same_shape(other)
        den = math.lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        pairs = zip(self._grid, other._grid)
        return _lowest_terms(
            ([op(x * sa, y * sb) for x, y in zip(ra, rb)] for ra, rb in pairs), den
        )

    def __add__(self, other: RatMatrix) -> RatMatrix:
        return self._entrywise(other, add)

    def __sub__(self, other: RatMatrix) -> RatMatrix:
        return self._entrywise(other, sub)

    def __neg__(self) -> RatMatrix:
        return _lowest_terms(([-a for a in row] for row in self._grid), self._den)

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            if self.ncols != other.nrows:
                raise DimensionMismatch(
                    f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}"
                )
            cols = list(zip(*other._grid))
            return _lowest_terms(
                ([sum(map(mul, row, col)) for col in cols] for row in self._grid),
                self._den * other._den,
            )
        return self.scale(other)

    def __rmul__(self, scalar) -> RatMatrix:
        return self.scale(scalar)

    def scale(self, scalar) -> RatMatrix:
        c = _coerce(scalar)
        num = c.numerator
        return _lowest_terms(
            ([num * a for a in row] for row in self._grid), self._den * c.denominator
        )

    def hadamard(self, other: RatMatrix) -> RatMatrix:
        self._same_shape(other)
        return _lowest_terms(
            (map(mul, ra, rb) for ra, rb in zip(self._grid, other._grid)), self._den * other._den
        )

    def transpose(self) -> RatMatrix:
        return _lowest_terms(zip(*self._grid), self._den)

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise DimensionMismatch("trace needs a square matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self._grid)), self._den)

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(sum(row), self._den) for row in self._grid)

    def commutes_with(self, other: RatMatrix) -> bool:
        return self * other == other * self

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(map(any, self._grid))

    def first_nonzero(self) -> tuple[int, int] | None:
        """(row, col) of the first nonzero entry in row-major order, None if zero."""
        for r, row in enumerate(self._grid):
            c = _first_nonzero(row)
            if c is not None:
                return r, c
        return None

    def is_symmetric(self) -> bool:
        return self._grid == tuple(zip(*self._grid))

    def is_zero_one(self) -> bool:
        return self._den == 1 and set(chain.from_iterable(self._grid)) <= {0, 1}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self._den == other._den
            and self._grid == other._grid
        )

    def __hash__(self) -> int:
        return hash((self._den, self._grid))

    def __repr__(self) -> str:
        return f"RatMatrix({self.nrows}x{self.ncols})"

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [[format_rational(a) for a in row] for row in self.rows],
        }


def mat_sum(mats: Iterable[RatMatrix]) -> RatMatrix:
    """Sum of a non-empty run of same-shape matrices, added as they arrive."""
    it = iter(mats)
    total = next(it, None)
    if total is None:
        raise EmptyInput("sum of no matrices")
    for m in it:
        total = total + m
    return total


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product; block (i, j) is a[i, j] * b, second factor fastest."""
    return _lowest_terms(
        ([x * y for x in ra for y in rb] for ra in a._grid for rb in b._grid), a._den * b._den
    )


def kron_all(mats: Sequence[RatMatrix]) -> RatMatrix:
    """Left-to-right Kronecker chain."""
    if not mats:
        raise EmptyInput("kron_all of nothing")
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


# ---------------------------------------------------------------------------
# Integer row-reduction kernel.
# ---------------------------------------------------------------------------


def _content(vec: Sequence[int]) -> int:
    g = 0
    for a in vec:
        if a:
            g = math.gcd(g, a)
            if g == 1:
                return 1
    return g


def _primitive(vec: list[int]) -> list[int]:
    g = _content(vec)
    if g > 1:
        return [a // g for a in vec]
    return vec


def _first_nonzero(vec: Sequence[int]) -> int | None:
    for i, a in enumerate(vec):
        if a:
            return i
    return None


class _IntRowReducer:
    """Fully reduced integer row-echelon container with canonical rows.

    Rows are primitive integer vectors with positive pivot entries; every
    pivot column is zero in all other rows. This is the unique reduced
    echelon basis of the row space, scaled entrywise to clear denominators.
    """

    __slots__ = ("width", "rows", "pivots")

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
                out = [a * rp - b * c for a, b in zip(out, row)]
                out = _primitive(out)
        return out

    def contains(self, vec: Sequence[int]) -> bool:
        return _first_nonzero(self.residual(vec)) is None

    def insert(self, vec: Sequence[int]) -> bool:
        new = self.residual(vec)
        piv = _first_nonzero(new)
        if piv is None:
            return False
        if new[piv] < 0:
            new = [-a for a in new]
        new = _primitive(new)
        for k, row in enumerate(self.rows):
            c = row[piv]
            if c:
                vp = new[piv]
                merged = [a * vp - b * c for a, b in zip(row, new)]
                self.rows[k] = _primitive(merged)
        pos = bisect_left(self.pivots, piv)
        self.rows.insert(pos, new)
        self.pivots.insert(pos, piv)
        return True

    @property
    def dimension(self) -> int:
        return len(self.rows)


def _nullspace(mats: Sequence[RatMatrix]) -> list[list[int]]:
    """Integer basis of {c : sum_k c[k] * mats[k] = 0}, free coordinates ascending."""
    width = len(mats)
    # Scaling every entry row by one factor keeps the nullspace.
    den = math.lcm(*(m._den for m in mats))
    cols = [[a * (den // m._den) for a in _flat(m)] for m in mats]
    red = _IntRowReducer(width)
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


# ---------------------------------------------------------------------------
# Subspaces of vectorized square matrices.
# ---------------------------------------------------------------------------


class MatrixSubspace:
    """A subspace of N-by-N matrices, held as a canonical reduced basis.

    Vectorization is row-major. Membership tests and equality are exact.
    """

    __slots__ = ("ambient_side", "_reducer")

    def __init__(self, ambient_side: int, reducer: _IntRowReducer):
        self.ambient_side = ambient_side
        self._reducer = reducer

    @property
    def dimension(self) -> int:
        return self._reducer.dimension

    def contains(self, mat: RatMatrix) -> bool:
        if mat.nrows != self.ambient_side or mat.ncols != self.ambient_side:
            raise DimensionMismatch("matrix does not live in this ambient space")
        return self._reducer.contains(_flat(mat))

    def __contains__(self, mat: RatMatrix) -> bool:
        return self.contains(mat)

    def basis_matrices(self) -> list[RatMatrix]:
        """The reduced basis, each element scaled to pivot entry 1."""
        n = self.ambient_side
        return [
            _lowest_terms((row[i * n : (i + 1) * n] for i in range(n)), row[p])
            for row, p in zip(self._reducer.rows, self._reducer.pivots)
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixSubspace)
            and self.ambient_side == other.ambient_side
            and self._reducer.rows == other._reducer.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_side, tuple(tuple(r) for r in self._reducer.rows)))

    def __repr__(self) -> str:
        return f"MatrixSubspace(side={self.ambient_side}, dim={self.dimension})"


def _check_square_same_side(mats: Sequence[RatMatrix]) -> int:
    side = mats[0].nrows
    for m in mats:
        if m.nrows != m.ncols or m.nrows != side:
            raise DimensionMismatch("all matrices must be square with one common side")
    return side


def span_basis(mats: Sequence[RatMatrix]) -> MatrixSubspace:
    """Linear span of the given square matrices."""
    mats = list(mats)
    if not mats:
        raise EmptyInput("span of an empty list")
    side = _check_square_same_side(mats)
    red = _IntRowReducer(side * side)
    for m in mats:
        red.insert(_flat(m))
    return MatrixSubspace(side, red)


def algebra_closure(generators: Sequence[RatMatrix], unital: bool) -> MatrixSubspace:
    """Smallest multiplication-closed subspace containing the generators.

    The algebra is the span of the nonempty words in the generators, plus
    I when `unital`. It is found by spinning: the pool starts with I (when
    `unital`) and the generators, and one walk over the pool multiplies
    each element on the left by every generator the pool accepted,
    appending each product that is independent. The walk ends when it
    reaches the end of the pool, after about dim * k products for k
    accepted generators.

    The walked pool spans a space that holds the seeds and is closed under
    left multiplication by the accepted generators, so it holds every word.
    A rejected generator is a combination of I (when `unital`) and the
    accepted ones, so it is not needed for spinning. The span is kept in
    canonical reduced echelon form, so the result does not depend on
    generator order or on the order of the walk.
    """
    gens = list(generators)
    if not gens:
        raise EmptyInput("closure of an empty generator list")
    side = _check_square_same_side(gens)
    red = _IntRowReducer(side * side)
    pool: list[RatMatrix] = []

    def try_add(mat: RatMatrix) -> bool:
        if red.insert(_flat(mat)):
            pool.append(mat)
            return True
        return False

    if unital:
        try_add(RatMatrix.identity(side))
    spin = [g for g in gens if try_add(g)]
    for b in pool:  # also visits the products appended during the walk
        for g in spin:
            try_add(g * b)
    return MatrixSubspace(side, red)


def center_dimension(alg: MatrixSubspace) -> int:
    """Dimension of {Z in alg : ZB = BZ for every basis element B}.

    Spot-checks a deterministic sample of basis pair products for closure
    under multiplication and raises NotAnAlgebra when one escapes.
    """
    basis = alg.basis_matrices()
    d = len(basis)
    if d == 0:
        return 0
    for i in range(d):
        for j in (i, (i + 1) % d):
            if basis[i] * basis[j] not in alg:
                raise NotAnAlgebra(
                    f"product of basis elements {i} and {j} leaves the subspace"
                )
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
