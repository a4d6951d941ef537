"""Dense exact-rational matrices, spans, algebra closure, and center computation.

Every scalar is a Python Fraction; nothing here ever rounds. Subspace
bookkeeping happens in fully reduced row-echelon form with denominators
cleared, so pivot arithmetic runs on plain integers and the resulting
basis is canonical: two subspaces are equal exactly when their stored
rows are identical.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
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


class RatMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(_coerce(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise EmptyInput("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "_rows", data)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int | None = None) -> RatMatrix:
        ncols = nrows if ncols is None else ncols
        zero = Fraction(0)
        return cls([[zero] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def ones(cls, nrows: int, ncols: int | None = None) -> RatMatrix:
        ncols = nrows if ncols is None else ncols
        one = Fraction(1)
        return cls([[one] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, entries: Sequence) -> RatMatrix:
        vals = [_coerce(x) for x in entries]
        zero = Fraction(0)
        return cls(
            [[vals[i] if i == j else zero for j in range(len(vals))] for i in range(len(vals))]
        )

    @classmethod
    def from_json(cls, obj: dict) -> RatMatrix:
        mat = cls([[Fraction(x) for x in row] for row in obj["entries"]])
        if mat.nrows != obj["rows"] or mat.ncols != obj["cols"]:
            raise DimensionMismatch("declared shape disagrees with entries")
        return mat

    # -- shape ----------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    # -- arithmetic -----------------------------------------------------

    def _same_shape(self, other: RatMatrix) -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other: RatMatrix) -> RatMatrix:
        self._same_shape(other)
        return RatMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def __sub__(self, other: RatMatrix) -> RatMatrix:
        self._same_shape(other)
        return RatMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def __neg__(self) -> RatMatrix:
        return RatMatrix([[-a for a in row] for row in self._rows])

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            if self.ncols != other.nrows:
                raise DimensionMismatch(
                    f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}"
                )
            cols = list(zip(*other._rows))
            return RatMatrix(
                [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._rows]
            )
        return self.scale(other)

    def __rmul__(self, scalar) -> RatMatrix:
        return self.scale(scalar)

    def scale(self, scalar) -> RatMatrix:
        c = _coerce(scalar)
        return RatMatrix([[c * a for a in row] for row in self._rows])

    def hadamard(self, other: RatMatrix) -> RatMatrix:
        self._same_shape(other)
        return RatMatrix(
            [[a * b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def transpose(self) -> RatMatrix:
        return RatMatrix(list(zip(*self._rows)))

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise DimensionMismatch("trace needs a square matrix")
        return sum((self._rows[i][i] for i in range(self.nrows)), Fraction(0))

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self._rows)

    def commutes_with(self, other: RatMatrix) -> bool:
        return self * other == other * self

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return all(not a for row in self._rows for a in row)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def is_zero_one(self) -> bool:
        return all(a == 0 or a == 1 for row in self._rows for a in row)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"RatMatrix({self.nrows}x{self.ncols})"

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [[format_rational(a) for a in row] for row in self._rows],
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
    nb = b.nrows
    rows = []
    for i in range(a.nrows * nb):
        ia, ib = divmod(i, nb)
        ra, rb = a.rows[ia], b.rows[ib]
        rows.append([x * y for x in ra for y in rb])
    return RatMatrix(rows)


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


def _fractions_to_int_vec(values: Iterable[Fraction]) -> list[int]:
    vals = list(values)
    den = 1
    for x in vals:
        d = x.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    if den == 1:
        return [x.numerator for x in vals]
    return [int(x * den) for x in vals]


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


def _nullspace(rows: Iterable[Sequence[Fraction]], width: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace of the stacked rows, free columns ascending."""
    red = _IntRowReducer(width)
    for row in rows:
        red.insert(_fractions_to_int_vec(row))
    pivots = set(red.pivots)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for row, p in zip(red.rows, red.pivots):
            if row[free]:
                vec[p] = Fraction(-row[free], row[p])
        basis.append(tuple(vec))
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
        return self._reducer.contains(_vectorize_int(mat))

    def __contains__(self, mat: RatMatrix) -> bool:
        return self.contains(mat)

    def basis_vectors(self) -> list[tuple[Fraction, ...]]:
        out = []
        for row, p in zip(self._reducer.rows, self._reducer.pivots):
            lead = row[p]
            out.append(tuple(Fraction(a, lead) for a in row))
        return out

    def basis_matrices(self) -> list[RatMatrix]:
        n = self.ambient_side
        return [
            RatMatrix([vec[i * n : (i + 1) * n] for i in range(n)])
            for vec in self.basis_vectors()
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


def _vectorize_int(mat: RatMatrix) -> list[int]:
    return _fractions_to_int_vec(a for row in mat.rows for a in row)


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
        red.insert(_vectorize_int(m))
    return MatrixSubspace(side, red)


def _int_grid(mat: RatMatrix) -> list[list[int]]:
    vec = _vectorize_int(mat)
    vec = _primitive(vec)
    n = mat.nrows
    return [vec[i * n : (i + 1) * n] for i in range(n)]


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def algebra_closure(generators: Sequence[RatMatrix], unital: bool) -> MatrixSubspace:
    """Smallest multiplication-closed subspace containing the generators.

    Fixpoint iteration: each round multiplies the elements added in the
    previous round against the whole round-start pool on both sides and
    inserts whatever is independent. Merging is serial in (round,
    left-index, right-index) order, so the result is deterministic; it is
    also canonical, hence independent of generator order.
    """
    gens = list(generators)
    if not gens:
        raise EmptyInput("closure of an empty generator list")
    side = _check_square_same_side(gens)
    red = _IntRowReducer(side * side)
    pool: list[list[list[int]]] = []

    def try_add(grid: list[list[int]]) -> None:
        if red.insert([a for row in grid for a in row]):
            pool.append(grid)

    if unital:
        try_add([[int(i == j) for j in range(side)] for i in range(side)])
    for g in gens:
        try_add(_int_grid(g))

    new_lo = 0
    while new_lo < len(pool):
        new_hi = len(pool)
        for li in range(new_lo, new_hi):
            left = pool[li]
            for ri in range(new_hi):
                right = pool[ri]
                try_add(_int_matmul(left, right))
                if ri != li:
                    try_add(_int_matmul(right, left))
        new_lo = new_hi
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
        stacked = zip(*[[a for row in c.rows for a in row] for c in comms])
        coords = _nullspace(stacked, len(current))
        current = [
            _linear_combination(current, coeffs) for coeffs in coords
        ]
    return len(current)


def _linear_combination(mats: Sequence[RatMatrix], coeffs: Sequence[Fraction]) -> RatMatrix:
    n = mats[0].nrows
    acc = [[Fraction(0)] * n for _ in range(n)]
    for m, c in zip(mats, coeffs):
        if c:
            for i, row in enumerate(m.rows):
                acc_i = acc[i]
                for j, a in enumerate(row):
                    if a:
                        acc_i[j] += c * a
    return RatMatrix(acc)
