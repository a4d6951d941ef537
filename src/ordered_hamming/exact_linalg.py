"""Exact-rational matrices, orbital coordinates, spans, algebra closure, and center.

A matrix is an integer vector over one positive common denominator, kept in
lowest terms: no prime divides the denominator and every entry, and the zero
matrix has denominator 1. A frame says what the entries index: the row-major
cells of a dense `RatMatrix`, or the orbitals of an `OrbitalMatrix`. So equal
matrices on one frame have equal vectors, and all arithmetic runs on plain
integers; `Fraction` appears only where entries enter or leave. Nothing ever
rounds.

Subspaces live in orbital coordinates (`Orbitals`): a matrix that every
permutation of a group commutes with is constant on each orbit of that group
on pairs of points, so it is one integer per orbital. The discrete
partition, every pair its own orbital, is the plain row-major vectorization.
Every closure takes one walk through one structure table, block by block on
the classes of points its diagonal generators tell apart (one class when it
has none), and stops once it spans every orbital; it holds I only when it is
passed I. A closure keeps the generators it accepted, which generate it;
`center_dimension` works from them, with masks for the diagonal ones.
Subspaces are kept in fully reduced integer row-echelon form with sparse
rows ({column: value}), so the basis is canonical: two subspaces in the same
coordinates are equal exactly when their rows are identical; in different
coordinates they never are.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from operator import mul
from typing import Hashable, Iterable, Sequence


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class EmptyInput(ValueError):
    """An operation that needs at least one matrix received none."""


class InternalMismatch(AssertionError):
    """Two independent constructions of one object disagree, or a self-check failed.

    The self-checks are those the code relies on for exactness, such as a
    closed form agreeing with the relation diagonal it stands for, or a
    matrix being constant on an orbital.
    """


def _coerce(value) -> Fraction | int:
    """An exact rational; an int stays an int, since it has a numerator and a denominator."""
    if isinstance(value, (Fraction, int)):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"matrix entries must be exact rationals, got {type(value).__name__}")


class _Exact:
    """The integer vector `vec` over one positive denominator `den`, in lowest terms, on a frame.

    The frame says what the entries index: (nrows, ncols), row-major, for a
    `RatMatrix`, and the `Orbitals` for an `OrbitalMatrix`. Every value is
    made by `_Exact.__init__`, which divides out the common factors. Operands
    on different frames, so also of different kinds, raise DimensionMismatch
    and compare unequal.
    """

    __slots__ = ("frame", "vec", "den")

    def __init__(self, frame, vec: list[int], den: int = 1):
        g = math.gcd(den, *vec)
        if g > 1:
            vec, den = [a // g for a in vec], den // g
        self.frame, self.vec, self.den = frame, vec, den

    @classmethod
    def _new(cls, frame, vec: list[int], den: int):
        """vec / den on `frame`, for a kind whose own constructor takes other arguments."""
        out = object.__new__(cls)
        _Exact.__init__(out, frame, vec, den)
        return out

    def _shared(self, other: _Exact):
        """The frame both operands lie on; operands on different ones raise DimensionMismatch."""
        if not (other.frame is self.frame or other.frame == self.frame):
            raise DimensionMismatch("operands differ in shape or in orbitals")
        return self.frame

    def __add__(self, other):
        frame = self._shared(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return self._new(frame, [x * sa + y * sb for x, y in zip(self.vec, other.vec)], den)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._new(self.frame, [-a for a in self.vec], self.den)

    def scale(self, scalar):
        c = _coerce(scalar)
        num = c.numerator
        return self._new(self.frame, [num * a for a in self.vec], self.den * c.denominator)

    def is_zero(self) -> bool:
        return not any(self.vec)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _Exact)
            and (other.frame is self.frame or other.frame == self.frame)
            and self.den == other.den
            and self.vec == other.vec
        )


class RatMatrix(_Exact):
    """Immutable dense matrix of exact rationals: its row-major entries on the frame (nrows, ncols)."""

    __slots__ = ()

    def __init__(self, rows: Iterable[Iterable]):
        data = [[_coerce(x) for x in row] for row in rows]
        if not data or not data[0]:
            raise EmptyInput("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionMismatch("ragged rows")
        den = math.lcm(*{x.denominator for row in data for x in row})
        entries = [x.numerator * (den // x.denominator) for row in data for x in row]
        super().__init__((len(data), width), entries, den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def ones(cls, n: int) -> RatMatrix:
        return cls([[1] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, entries: Sequence) -> RatMatrix:
        vals = [_coerce(x) for x in entries]
        return cls([[vals[i] if i == j else 0 for j in range(len(vals))] for i in range(len(vals))])

    # -- shape and entries ----------------------------------------------

    @property
    def nrows(self) -> int:
        return self.frame[0]

    @property
    def ncols(self) -> int:
        return self.frame[1]

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return Fraction(self.vec[i * self.frame[1] + j], self.den)

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other: RatMatrix) -> RatMatrix:
        if not isinstance(other, RatMatrix):
            raise DimensionMismatch(f"{self!r} times {type(other).__name__} (scale takes a scalar)")
        (n, k), (inner, m) = self.frame, other.frame
        if k != inner:
            raise DimensionMismatch(f"{n}x{k} times {inner}x{m}")
        rows = [self.vec[i : i + k] for i in range(0, n * k, k)]
        cols = [other.vec[j::m] for j in range(m)]
        vec = [sum(map(mul, row, col)) for row in rows for col in cols]
        return self._new((n, m), vec, self.den * other.den)

    def trace(self) -> Fraction:
        n, m = self.frame
        if n != m:
            raise DimensionMismatch("trace needs a square matrix")
        return Fraction(sum(self.vec[:: n + 1]), self.den)

    def __hash__(self) -> int:
        return hash((self.frame, self.den, *self.vec))

    def __repr__(self) -> str:
        return f"RatMatrix({self.nrows}x{self.ncols})"

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        # one string per distinct entry, shared by every cell that holds it
        (rows, cols), den = self.frame, self.den
        text = {a: str(Fraction(a, den)) for a in set(self.vec)}
        cells = [text[a] for a in self.vec]
        entries = [cells[i : i + cols] for i in range(0, rows * cols, cols)]
        return {"rows": rows, "cols": cols, "entries": entries}


def mat_sum(mats: Iterable[RatMatrix | OrbitalMatrix]) -> RatMatrix | OrbitalMatrix:
    """Sum of a non-empty run of same-shape `RatMatrix` or same-orbital `OrbitalMatrix` values."""
    it = iter(mats)
    total = next(it, None)
    if total is None:
        raise EmptyInput("sum of no matrices")
    for m in it:
        total = total + m
    return total


def _kron_entries(factors: Sequence[RatMatrix]) -> tuple[list[int], int]:
    """The row-major entries of the Kronecker product of `factors`, over one denominator.

    Grown from the last factor: row (i, k) is row k of the grid so far laid end to end, scaled
    by each entry of the factor's row i (0 and 1 copy). The denominator is the factors' product.
    """
    flat, width, den = [1], 1, 1
    for f in reversed(factors):
        rows = [flat[i : i + width] for i in range(0, len(flat), width)]
        ncols = f.ncols
        runs = (
            row if x == 1 else [0] * width if x == 0 else [x * y for y in row]
            for i in range(0, len(f.vec), ncols)
            for row in rows
            for x in f.vec[i : i + ncols]
        )
        flat = list(chain.from_iterable(runs))
        width *= ncols
        den *= f.den
    return flat, den


# ---------------------------------------------------------------------------
# Integer row-reduction kernel.
# ---------------------------------------------------------------------------


def _primitive(vec: list[int]) -> list[int]:
    g = math.gcd(*vec)
    return [a // g for a in vec] if g > 1 else vec


class _RowReducer:
    """Fully reduced integer row-echelon form with canonical sparse rows.

    Each row is a primitive integer vector held as {column: value} under
    its pivot, its first nonzero column, where it is positive; every pivot
    column is zero in all other rows. This is the unique reduced echelon
    basis of the row space, scaled entrywise to clear denominators.
    """

    __slots__ = ("_rows",)

    def __init__(self, vectors: Iterable[Sequence[int]] = ()):
        self._rows: dict[int, dict[int, int]] = {}
        for vec in vectors:
            self.insert(vec)

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def residual(self, vec: Sequence[int]) -> list[int]:
        """vec less its part in the span, as a primitive vector; unchanged when it meets no pivot.

        Every row is zero on the other pivots, so the coefficient of each
        row is read off vec at that row's pivot, and one combination over
        the pivots in vec's support removes them all.
        """
        rows = self._rows
        used = [(p, vec[p]) for p in rows if vec[p]]
        if not used:
            return list(vec)
        lead = math.lcm(*(rows[p][p] for p, _ in used))
        out = [a * lead for a in vec] if lead > 1 else list(vec)
        for p, c in used:
            row = rows[p]
            f = c * (lead // row[p])
            for j, a in row.items():
                out[j] -= f * a
        return _primitive(out)

    def insert(self, vec: Sequence[int]) -> bool:
        """Add vec to the span; False when it already lies there."""
        out = self.residual(vec)
        if not any(out):
            return False
        new = {j: a for j, a in enumerate(out) if a}
        piv = next(iter(new))
        g = math.gcd(*new.values()) * (1 if new[piv] > 0 else -1)
        if g != 1:
            new = {j: a // g for j, a in new.items()}
        vp = new[piv]
        rows = self._rows
        for p, row in rows.items():
            c = row.get(piv)
            if c:
                keys = row.keys() | new.keys()
                merged = {j: a for j in keys if (a := row.get(j, 0) * vp - c * new.get(j, 0))}
                g = math.gcd(*merged.values())
                rows[p] = {j: a // g for j, a in merged.items()} if g > 1 else merged
        rows[piv] = new
        return True


# ---------------------------------------------------------------------------
# Orbital coordinates.
# ---------------------------------------------------------------------------


class Orbitals:
    """The orbitals of a group of point permutations: its orbits on pairs of points.

    `keys` holds one key per pair, row-major (x * side + y), equal exactly
    within an orbital. Orbitals are numbered in order of their first pair,
    their representative, so a row-major scan of a matrix meets them in
    label order. A matrix the group commutes with is constant on each
    orbital; its orbital vector holds one grid entry per orbital, a positive
    multiple of the matrix. Without keys every pair is its own orbital, and
    the orbital vector is the row-major vectorization.
    """

    def __init__(self, side: int, keys: Iterable[Hashable] | None = None):
        self.side = side
        number: dict[Hashable, int] = {}
        keys = range(side * side) if keys is None else keys
        self.labels = labels = [number.setdefault(key, len(number)) for key in keys]
        self.reps = reps = [0] * len(number)
        for label in range(1, len(number)):  # each label first occurs after the one before
            reps[label] = labels.index(label, reps[label - 1])

    @property
    def count(self) -> int:
        return len(self.reps)

    @cached_property
    def diagonal(self) -> list[int]:
        """The orbital of each point's pair (x, x); InternalMismatch if one holds any other pair."""
        side, labels = self.side, self.labels
        eye = set(labels[:: side + 1])  # the side pairs after each (x, x) but the last lie off it
        if any(not eye.isdisjoint(labels[a : a + side]) for a in range(1, side * side, side + 1)):
            raise InternalMismatch("a diagonal orbital also holds an off-diagonal pair")
        return labels[:: side + 1]

    def _entries(self, flat: list[int]) -> list[int] | None:
        """The orbital vector of row-major entries, or None if not constant on every orbital."""
        if len(flat) != len(self.labels):
            raise DimensionMismatch(f"{len(flat)} entries, orbitals are on {self.side} points")
        vec = [flat[p] for p in self.reps]
        return vec if list(map(vec.__getitem__, self.labels)) == flat else None

    def vector(self, *factors: RatMatrix) -> list[int]:
        """The orbital vector of the Kronecker product of `factors`, after checking every entry."""
        flat, _ = _kron_entries(factors)
        vec = self._entries(flat)
        if vec is None:
            pair = next(
                p for p, label in enumerate(self.labels) if flat[p] != flat[self.reps[label]]
            )
            label = self.labels[pair]
            raise InternalMismatch(
                f"matrix is not constant on orbital {label}: entry {divmod(pair, self.side)} "
                f"differs from {divmod(self.reps[label], self.side)}"
            )
        return vec

    def matrix(self, vec: Sequence[int], den: int = 1) -> RatMatrix:
        """The matrix that is vec[o] / den on every pair of orbital o (den > 0)."""
        return RatMatrix._new((self.side, self.side), list(map(vec.__getitem__, self.labels)), den)

    @cached_property
    def _table(self) -> list[list[tuple[int, int, int]]]:
        """Structure table indexed by the left orbital i: entries (o, j, count).

        count is the number of points y with (x, y) in orbital i and (y, z)
        in orbital j, for the representative (x, z) of orbital o; r * side
        points y in all, grouped by (i, j).
        """
        side, labels = self.side, self.labels
        table: list[list[tuple[int, int, int]]] = [[] for _ in self.reps]
        for o, rep in enumerate(self.reps):
            x, z = divmod(rep, side)
            pairs = Counter(zip(labels[x * side : (x + 1) * side], labels[z::side]))
            for (i, j), count in pairs.items():
                table[i].append((o, j, count))
        return table

    @cached_property
    def _transposed(self) -> list[int]:
        """The orbital of the transposed pairs of each orbital, as the group moves both alike."""
        side, labels = self.side, self.labels
        return [labels[z * side + x] for x, z in (divmod(rep, side) for rep in self.reps)]

    def transpose(self, vec: Sequence[int]) -> list[int]:
        """Orbital vector of the transpose of the matrix with orbital vector `vec`."""
        return list(map(vec.__getitem__, self._transposed))

    def _left_product(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        out = [0] * len(self.reps)
        table = self._table
        for i, ai in enumerate(a):
            if ai:
                for o, j, count in table[i]:
                    out[o] += ai * count * b[j]
        return out

    def product(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Orbital vector of AB from those of A and B, each constant on every orbital.

        (AB)[x, z] = sum over y of a[orb(x, y)] * b[orb(y, z)], read at each
        representative; work is the table entries of the orbitals where the
        left factor is nonzero, so a diagonal A costs one entry per orbital
        it touches. When B has fewer nonzero entries than A, the sparser
        factor leads instead, through AB = (B^T A^T)^T.
        """
        if len(b) - b.count(0) < len(a) - a.count(0):
            transpose = self.transpose
            return transpose(self._left_product(transpose(b), transpose(a)))
        return self._left_product(a, b)


class OrbitalMatrix(_Exact):
    """A matrix constant on every orbital: its orbital vector on the frame `Orbitals`.

    Products run through `Orbitals.product`.
    """

    __slots__ = ()

    @classmethod
    def of(cls, orbitals: Orbitals, *factors: RatMatrix) -> OrbitalMatrix:
        """The Kronecker product of `factors` in orbitals, after `Orbitals.vector` checks it."""
        return cls(orbitals, orbitals.vector(*factors), math.prod(f.den for f in factors))

    @classmethod
    def identity(cls, orbitals: Orbitals) -> OrbitalMatrix:
        """1 on the diagonal orbitals and 0 elsewhere."""
        eye = set(orbitals.diagonal)
        return cls(orbitals, [int(o in eye) for o in range(orbitals.count)])

    def matches(self, *factors: RatMatrix) -> bool:
        """Whether the Kronecker product of `factors` is this matrix; a non-constant one is not."""
        flat, den = _kron_entries(factors)
        vec = self.frame._entries(flat)
        return vec is not None and OrbitalMatrix(self.frame, vec, den) == self

    def is_indicator(self, flags: list[bool]) -> bool:
        """Whether this is the 0/1 matrix with the row-major entries `flags`."""
        return self.den == 1 and self.frame._entries(flags) == self.vec

    def matrix(self) -> RatMatrix:
        return self.frame.matrix(self.vec, self.den)

    def __mul__(self, other: OrbitalMatrix) -> OrbitalMatrix:
        orbitals = self._shared(other)
        return OrbitalMatrix(orbitals, orbitals.product(self.vec, other.vec), self.den * other.den)

    def hadamard(self, other: OrbitalMatrix) -> OrbitalMatrix:
        """The entrywise product: both factors are constant on every orbital, so it is too."""
        entries = list(map(mul, self.vec, other.vec))
        return OrbitalMatrix(self._shared(other), entries, self.den * other.den)

    def trace(self) -> Fraction:
        """The sum of the N diagonal entries, each read at its point's diagonal orbital."""
        return Fraction(sum(map(self.vec.__getitem__, self.frame.diagonal)), self.den)


# ---------------------------------------------------------------------------
# Subspaces of orbital-constant square matrices.
# ---------------------------------------------------------------------------


class MatrixSubspace:
    """A subspace of N-by-N matrices constant on the given orbitals.

    Held as a canonical reduced basis of orbital vectors, so equality in
    one coordinate system is exact; a plain span keeps only those rows, and
    `spin` None. Only `algebra_closure` sets the set S of orbital vectors in
    `spin`: the generators it accepted, which generate the closure as an
    algebra. A closure that should hold I is passed I. Equality ignores S.
    """

    __slots__ = ("orbitals", "_reducer", "spin")

    def __init__(
        self, orbitals: Orbitals, reducer: _RowReducer, spin: Sequence[Sequence[int]] | None = None
    ):
        self.orbitals = orbitals
        self._reducer = reducer
        self.spin = spin

    @classmethod
    def span(cls, orbitals: Orbitals, vectors: Iterable[Sequence[int]]) -> MatrixSubspace:
        """Linear span of orbital vectors."""
        return cls(orbitals, _RowReducer(vectors))

    @property
    def dimension(self) -> int:
        return self._reducer.dimension

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixSubspace)
            and (other.orbitals is self.orbitals or other.orbitals.labels == self.orbitals.labels)
            and self._reducer._rows == other._reducer._rows
        )

    def __repr__(self) -> str:
        side, count = self.orbitals.side, self.orbitals.count
        return f"MatrixSubspace(side={side}, orbitals={count}, dim={self.dimension})"


def _point_classes(orbitals: Orbitals, spin: list[list[int]]) -> tuple[list, list, set[int]]:
    """Points split by the values of the diagonal members of `spin`: returns the others, each
    orbital's (class(x), class(z)) at its rep, and the classes where a diagonal one is nonzero."""
    side, eye = orbitals.side, set(orbitals.diagonal)
    others, diagonal = [], []
    for s in spin:  # diagonal: zero off the diagonal orbitals, which hold only pairs (x, x)
        (others if any(a for o, a in enumerate(s) if a and o not in eye) else diagonal).append(s)
    number: dict[tuple[int, ...], int] = {}
    cls = [number.setdefault(tuple(s[d] for s in diagonal), len(number)) for d in orbitals.diagonal]
    live = {c for key, c in number.items() if any(key)}
    return others, [(cls[rep // side], cls[rep % side]) for rep in orbitals.reps], live


def algebra_closure(generators: Sequence[OrbitalMatrix]) -> MatrixSubspace:
    """Smallest multiplication-closed subspace containing the generators.

    The algebra A is the span of the nonempty words in the generators; a
    closure that should hold I is passed I. The generators lie on one set of
    orbitals (others raise DimensionMismatch), and the closure runs on their
    orbital vectors through `Orbitals.product`, never forming a dense
    matrix. Those independent of the ones before them are accepted as the
    result's `spin` set S, which generates A.

    One graded walk closes every A, as T is graded on the E*. The points fall
    into classes on which every diagonal member of S takes one value; with
    none, there is one class. For each class c on which some diagonal member is
    nonzero, the indicator e_c lies in A: a polynomial in the diagonal members
    with no constant term is 1 on c and 0 on every other class. So each block
    part e_c g e_c' of each g in S lies in A (a part at the all-zero class by
    subtraction), and A is the algebra the e_c and the parts generate. A part
    is a mask; a diagonal member's parts are multiples of the e_c, so only the
    other members are split, and parts in blocks (c, c') and (d, d') multiply
    to 0 unless c' = d. If S, or else the e_c and the parts, span all r
    orbitals, they hold A, with no product; the second trial is made only when
    they are at least r in number. Else the pool starts as the e_c and takes
    the parts sparsest first, each as a walker only if it lies outside the
    span; each walker multiplies on the left every pool element but the e_c
    whose row class is its column class. The span then holds the walkers and
    the e_c and is closed under left multiplication by them, so it is the
    algebra they generate, and it holds each part passed over.

    The walk stops before its next product once the span holds all r
    orbital vectors, and only then: the orbital-constant matrices form the
    centralizer algebra of the group, so the stop is exact. The span is kept
    in canonical reduced echelon form, so the result does not depend on
    generator or walk order; as orbitals are labelled in row-major order of
    their first pair, its rows expand, each scaled to pivot entry 1, to its
    dense basis.
    """
    if not generators:
        raise EmptyInput("closure of an empty generator list")
    orbitals = generators[0].frame
    if any(g.frame is not orbitals for g in generators):
        raise DimensionMismatch("closure generators lie on different orbitals")
    count, product = orbitals.count, orbitals.product
    red = _RowReducer()
    spin = [g.vec for g in generators if red.insert(g.vec)]
    others, blocks, live = _point_classes(orbitals, spin)

    def split(g: list[int]) -> Iterable[tuple[tuple[int, int], list[int]]]:
        parts: dict[tuple[int, int], list[int]] = {}
        for o in filter(g.__getitem__, range(count)):
            parts.setdefault(blocks[o], [0] * count)[o] = g[o]
        return parts.items()

    units = [e for (c, _), e in split(OrbitalMatrix.identity(orbitals).vec) if c in live]
    parts = sorted(chain.from_iterable(map(split, others)), key=lambda part: -part[1].count(0))
    if red.dimension < count and len(units) + len(parts) >= count:  # fewer cannot reach r
        red = _RowReducer(chain(units, (p for _, p in parts)))
    if red.dimension == count:
        return MatrixSubspace(orbitals, red, spin)
    red, pool, done = _RowReducer(units), [], 0  # pool: (vector, row class, column class)
    walkers: dict[int, list[tuple[list[int], int]]] = {}  # by column class

    def walk(a: list[int], x: int, b: list[int], z: int) -> None:
        if red.dimension < count and red.insert(vec := _primitive(product(a, b))):
            pool.append((vec, x, z))

    for (x, z), p in parts:  # sparsest first; sorted is stable
        if red.dimension == count or not red.insert(p):
            continue
        for b, y, w in pool[:done]:  # what the earlier walkers have met
            if y == z:
                walk(p, x, b, w)
        walkers.setdefault(z, []).append((p, x))
        pool.append((p, x, z))
        for b, y, w in islice(pool, done, None):  # it meets the products appended on the way
            for a, v in walkers.get(y, ()):
                walk(a, v, b, w)
        done = len(pool)
    return MatrixSubspace(orbitals, red, spin)


def center_dimension(alg: MatrixSubspace) -> int:
    """Dimension of the center of the algebra `alg`, measured from its spin set S.

    Z in alg is central exactly when [Z, s] = 0 for every s in S, because S
    generates alg. A diagonal s gives [Z, s][x, z] = Z[x, z] (s[z, z] -
    s[x, x]), Z times a mask read at each representative (x, z), with no
    product; I, in the S of a closure passed I, gives 0. So the Z that
    commute with every diagonal s are those zero on the orbitals whose
    points x and z lie in different classes (`_point_classes`). The closure
    is the direct sum of its block parts (`algebra_closure`), and the blocks
    hold disjoint orbitals, so each canonical row lies in one block: those Z
    are the span of the rows that pivot on an orbital with x and z in one
    class. The center is that kernel less the rank of the vectors that
    concatenate [z, s] = zs - sz over the other s, one per kernel element z.

    Only a result of `algebra_closure` has S, and its walk proves it closed
    under multiplication; a plain span raises ValueError.
    """
    if alg.spin is None:
        raise ValueError("center_dimension needs a result of algebra_closure, which holds its S")
    orbitals, count = alg.orbitals, alg.orbitals.count
    others, blocks, _ = _point_classes(orbitals, alg.spin)
    rows = alg._reducer._rows.items()
    zs = [[z.get(o, 0) for o in range(count)] for p, z in rows if blocks[p][0] == blocks[p][1]]
    product = orbitals.product
    commutators = _RowReducer()
    for z in zs:
        commutators.insert([x - y for s in others for x, y in zip(product(z, s), product(s, z))])
    return len(zs) - commutators.dimension
