"""
Exact linear algebra over arbitrary-precision rationals.

Every solve in the pipeline (module extraction, Hom bases, relator
spaces) runs through this module.  There is no floating point anywhere:
ranks decide dimensions downstream, and a rank decision corrupted by
rounding would silently change arrow or relator counts.

Exact values are `int` when integral and `Fraction` otherwise, never
float: most entries in the pipeline are integers, and an `int` skips the
pure-Python `Fraction` arithmetic and its gcd per operation.  Python treats
`3` and `Fraction(3)` as equal with equal hashes, so the rule changes no
comparison; :func:`exact` applies it to a value and :func:`divide` is the
one division applied to entries (`int / int` would be a float).

Pivoting is deterministic (first nonzero entry, leftmost column first), so
every computed basis is reproducible across runs and platforms.  Storage is
sparse: a vector is a `Row`, a dict mapping each column to its nonzero
entry, and a matrix is a tuple of Rows.  Zeros are never stored.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

Row = dict[int, int | Fraction]


class DimensionMismatch(ValueError):
    """Raised when operand shapes do not agree."""


def exact(x: int | Fraction | str) -> int | Fraction:
    """x as an exact value: an int when it is integral, a Fraction otherwise."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_row(row: Row) -> Row:
    """A Row under the number rule: zero entries dropped, every value exact."""
    return {j: v if type(v) is int else exact(v) for j, v in row.items() if v}


def divide(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """a / b as an exact value: a // b when b divides a, else a Fraction."""
    if type(a) is int and type(b) is int and b and not a % b:
        return a // b
    return exact(Fraction(a, b))


def format_rational(x: int | Fraction) -> str:
    """Render a rational as "p/q", or just "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(s: str) -> int | Fraction:
    """Inverse of :func:`format_rational`: only the forms "p" and "p/q", so
    an exponent like "1e10000000" never builds its integer."""
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise ValueError(f'{s!r} is not a rational like "p" or "p/q"')
    numerator = int(match[1])
    return numerator if match[2] is None else divide(numerator, int(match[2]))


class QMatrix:
    """An immutable sparse matrix of exact rationals.

    `data` holds one Row per matrix row with no zero entries, so equal
    matrices have equal data.  Build from a dense literal with
    ``QMatrix([[...], ...])`` or from Rows with :meth:`from_rows`; read a
    dense copy with :meth:`dense`.  Arithmetic that can cancel an entry or
    leave an integral Fraction passes its Rows through :func:`exact_row`
    first.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int | Fraction | str]], cols: int | None = None):
        dense = [tuple(row) for row in data]
        if dense:
            cols = len(dense[0])
            if any(len(r) != cols for r in dense):
                raise DimensionMismatch("ragged rows")
        elif cols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        self._set(tuple({j: v for j, v in enumerate(map(exact, r)) if v} for r in dense), cols)

    @classmethod
    def from_rows(cls, rows: Iterable[Row], cols: int) -> "QMatrix":
        """A matrix holding the given Rows, which already follow the number
        rule (no zero entry, no integral Fraction) and are not changed later."""
        m = object.__new__(cls)
        m._set(tuple(rows), cols)
        return m

    def _set(self, data: tuple[Row, ...], cols: int) -> None:
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):  # pragma: no cover - guards immutability
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls.from_rows([{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls.from_rows([{i: 1} for i in range(n)], n)

    def __getitem__(self, ij: tuple[int, int]) -> int | Fraction:
        i, j = ij
        return self.data[i].get(j, 0)

    def col(self, j: int) -> Row:
        return {i: row[j] for i, row in enumerate(self.data) if j in row}

    def dense(self) -> list[list[int | Fraction]]:
        return [[row.get(j, 0) for j in range(self.cols)] for row in self.data]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.data)))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        out = []
        for ra, rb in zip(self.data, other.data):
            acc = dict(ra)
            for j, b in rb.items():
                acc[j] = acc.get(j, 0) + b
            out.append(exact_row(acc))
        return QMatrix.from_rows(out, self.cols)

    def scale(self, c: int | Fraction) -> "QMatrix":
        c = exact(c)
        return QMatrix.from_rows(
            [exact_row({j: c * a for j, a in row.items()}) for row in self.data], self.cols
        )

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = []
        for row in self.data:
            acc: Row = {}
            for k, a in row.items():
                for j, b in other.data[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append(exact_row(acc))
        return QMatrix.from_rows(out, other.cols)

    def transpose(self) -> "QMatrix":
        out: list[Row] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, a in row.items():
                out[j][i] = a
        return QMatrix.from_rows(out, self.rows)

    def is_zero(self) -> bool:
        return not any(self.data)

    def nonzero_items(self) -> Iterator[tuple[int, int, int | Fraction]]:
        for i, row in enumerate(self.data):
            for j, a in row.items():
                yield i, j, a

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(a) for a in row) for row in self.dense())
        return f"QMatrix({self.rows}x{self.cols}: {body})"


def subtract_scaled(target: Row, c: int | Fraction, row: Row) -> None:
    """target -= c * row in place, dropping the entries that cancel; with
    c = -1 it adds row, so it is also the one way Rows are summed."""
    for j, v in row.items():
        new = target.get(j, 0) - c * v
        if type(new) is not int and new.denominator == 1:
            new = new.numerator
        if new:
            target[j] = new
        else:
            target.pop(j, None)


class RowSpan:
    """Incrementally maintained reduced row echelon span.

    Rows are stored with leading coefficient 1 at their pivot and that pivot
    cleared from every other stored row, i.e. the stored rows always form
    the RREF of the span.

    With ``track=True`` each stored row also carries its expression over
    the vectors fed to :meth:`add`, so membership tests can return exact
    coefficients.
    """

    def __init__(self, ncols: int, track: bool = False):
        self.ncols = ncols
        self.track = track
        self._rows: dict[int, Row] = {}  # pivot -> row
        self._combos: dict[int, Row] = {}  # pivot -> combo over gens
        self.ngens = 0  # number of vectors fed to add(), independent or not

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _vector(self, vector: Row) -> Row:
        vec = exact_row(vector)
        if vec and not (0 <= min(vec) and max(vec) < self.ncols):
            raise DimensionMismatch("vector column outside the span width")
        return vec

    def _reduce(self, vec: Row, combo: Row | None):
        for pivot in sorted(self._rows):
            c = vec.get(pivot)
            if not c:
                continue
            subtract_scaled(vec, c, self._rows[pivot])
            if combo is not None:
                subtract_scaled(combo, -c, self._combos[pivot])
        return vec, combo

    def add(self, vector: Row) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        return self.insert(vector) is None

    def insert(self, vector: Row) -> Row | None:
        """Like :meth:`add`, but returns None when the vector enlarged the
        span, and otherwise its expression over the earlier vectors (empty
        without ``track=True``)."""
        vec = self._vector(vector)
        g = self.ngens
        self.ngens += 1
        combo: Row | None = {} if self.track else None
        vec, combo = self._reduce(vec, combo)
        if not vec:
            return combo if self.track else {}
        pivot = min(vec)
        lead = vec[pivot]
        row = {j: divide(v, lead) for j, v in vec.items()}
        if self.track:
            # residual = gen_g - sum(combo[i] * gen_i); solve for the new row.
            newcombo = {i: divide(-v, lead) for i, v in combo.items()}
            newcombo[g] = divide(1, lead)
        # Clear the new pivot column from every stored row.
        for p, other in self._rows.items():
            c = other.get(pivot)
            if c:
                subtract_scaled(other, c, row)
                if self.track:
                    subtract_scaled(self._combos[p], c, newcombo)
        self._rows[pivot] = row
        if self.track:
            self._combos[pivot] = newcombo
        return None

    def residual(self, vector: Row) -> Row:
        vec, _ = self._reduce(self._vector(vector), None)
        return vec

    def contains(self, vector: Row) -> bool:
        return not self.residual(vector)

    def coefficients(self, vector: Row) -> Row | None:
        """Express the vector over the vectors previously added, if possible.

        Returns a Row (gen index -> coefficient) or None when the vector is
        outside the span.  Dependent generators never appear.
        """
        if not self.track:
            raise ValueError("RowSpan built without track=True")
        vec, combo = self._reduce(self._vector(vector), {})
        if vec:
            return None
        return combo

    def basis_rows(self) -> list[Row]:
        """The stored rows, in RREF order (ascending pivot), each in column order."""
        return [dict(sorted(self._rows[p].items())) for p in sorted(self._rows)]


def rank(rows: Sequence[Row]) -> int:
    """The rank of the span of some Rows (a matrix's `data`, or rows taken
    straight from one) by fraction-free elimination (cf. Bareiss, Math.
    Comp. 22, 1968).

    Only the count of pivots is wanted, not a canonical basis, so no
    reduced form is kept and no Fraction is formed: a row with a Fraction
    entry is scaled to integers by the lcm of its denominators, reduced
    against the stored pivot rows as a * vec - b * pivot, and, when a != 1
    scaled it, divided by the gcd of its entries to keep them small."""
    pivots: dict[int, Row] = {}
    for row in rows:
        if not row:
            continue
        if all(type(v) is int for v in row.values()):
            vec = dict(row)
        else:
            scale = lcm(*(v.denominator for v in row.values()))
            vec = {j: v.numerator * (scale // v.denominator) for j, v in row.items()}
        while vec:
            p = min(vec)
            pivot = pivots.get(p)
            if pivot is None:
                pivots[p] = vec
                break
            g = gcd(pivot[p], vec[p])
            a, b = pivot[p] // g, vec[p] // g
            if a != 1:
                vec = {j: a * v for j, v in vec.items()}
            subtract_scaled(vec, b, pivot)
            if a != 1:
                content = gcd(*vec.values())
                if content > 1:
                    vec = {j: v // content for j, v in vec.items()}
    return len(pivots)


def nullspace_of_rows(rows: Iterable[Row], ncols: int) -> list[Row]:
    """A basis of the kernel {v : r . v = 0 for every row r}, given the
    constraint rows one by one, without materializing the (often hugely
    redundant) matrix.

    One basis vector per free column of the RREF, in ascending free-column
    order: entry 1 at the free column, minus the RREF column above each
    pivot.  So the basis is canonical and has ncols - rank vectors.
    """
    span = RowSpan(ncols)
    for row in rows:
        if span.rank == ncols:
            break
        span.add(row)
    pivots = sorted(span._rows)
    pivot_set = set(pivots)
    basis: list[Row] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = {free: 1}
        for p in pivots:
            c = span._rows[p].get(free)
            if c:
                v[p] = -c
        basis.append(dict(sorted(v.items())))
    return basis


def canonical_basis(vectors: Iterable[Row], ncols: int) -> list[Row]:
    """RREF basis of the span of the given vectors (canonical, deterministic)."""
    span = RowSpan(ncols)
    for v in vectors:
        span.add(v)
    return span.basis_rows()


def in_span(v: Row, basis: Sequence[Row], ncols: int) -> tuple[bool, Row | None]:
    """Membership of v in the rational span of the basis vectors, all of
    width `ncols`.

    On success also returns one exact coefficient Row over the basis
    indices (basis vectors made redundant by earlier ones get no entry).
    """
    span = RowSpan(ncols, track=True)
    for b in basis:
        span.add(b)
    combo = span.coefficients(v)
    return combo is not None, combo

