"""
Exact linear algebra over arbitrary-precision rationals.

Every solve in the pipeline (module extraction, commutant bases, relator
spaces) runs through this module.  There is no floating point anywhere:
ranks decide dimensions downstream, and a rank decision corrupted by
rounding would silently change arrow or relator counts.

Pivoting is deterministic (first nonzero entry, leftmost column first), so
every computed basis is reproducible across runs and platforms.  Matrices
are dense; the sizes in scope are at most a few hundred rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

QQ = Fraction
Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Raised when operand shapes do not agree."""


def format_rational(x: Fraction) -> str:
    """Render a rational as "p/q", or just "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Inverse of :func:`format_rational`."""
    return Fraction(s.strip())


class QMatrix:
    """An immutable dense matrix of exact rationals.

    Entries are normalized to ``Fraction`` on construction; the data is a
    tuple of row tuples, so instances are hashable and safe to share.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[Fraction | int]], cols: int | None = None):
        rows = tuple(tuple(Fraction(x) for x in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatch("ragged rows")
        else:
            if cols is None:
                raise DimensionMismatch("empty matrix needs an explicit column count")
            width = cols
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):  # pragma: no cover - guards immutability
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls([[_ZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list[Vec]:
        return [self.col(j) for j in range(self.cols)]

    def _same_shape(self, other: "QMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._same_shape(other)
        return QMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            cols=self.cols,
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._same_shape(other)
        return QMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            cols=self.cols,
        )

    def __neg__(self) -> "QMatrix":
        return QMatrix([[-a for a in row] for row in self.data], cols=self.cols)

    def scale(self, c: Fraction | int) -> "QMatrix":
        c = Fraction(c)
        return QMatrix([[c * a for a in row] for row in self.data], cols=self.cols)

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} * {other.rows}x{other.cols}")
        # Sparse-aware triple loop: real workloads here are mostly 0/±1 entries.
        out = [[_ZERO] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            out_i = out[i]
            for k, a in enumerate(row):
                if a:
                    other_k = other.data[k]
                    for j, b in enumerate(other_k):
                        if b:
                            out_i[j] += a * b
        return QMatrix(out, cols=other.cols)

    def matvec(self, v: Sequence[Fraction]) -> Vec:
        if self.cols != len(v):
            raise DimensionMismatch("matvec shape")
        return tuple(
            sum((a * v[k] for k, a in enumerate(row) if a and v[k]), _ZERO)
            for row in self.data
        )

    def transpose(self) -> "QMatrix":
        return QMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def kron(self, other: "QMatrix") -> "QMatrix":
        """Kronecker product; block (i, k) of the result is self[i,k] * other."""
        out = [
            [_ZERO] * (self.cols * other.cols) for _ in range(self.rows * other.rows)
        ]
        for i, row in enumerate(self.data):
            for k, a in enumerate(row):
                if a:
                    for t in range(other.rows):
                        target = out[i * other.rows + t]
                        base = k * other.cols
                        for u, b in enumerate(other.data[t]):
                            if b:
                                target[base + u] = a * b
        return QMatrix(out, cols=self.cols * other.cols)

    def is_zero(self) -> bool:
        return all(not a for row in self.data for a in row)

    def nonzero_items(self) -> Iterator[tuple[int, int, Fraction]]:
        for i, row in enumerate(self.data):
            for j, a in enumerate(row):
                if a:
                    yield i, j, a

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self.data]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(a) for a in row) for row in self.data)
        return f"QMatrix({self.rows}x{self.cols}: {body})"


class RowSpan:
    """Incrementally maintained reduced row echelon span.

    Rows are stored sparsely (dict column -> value), each with leading
    coefficient 1 at its pivot and that pivot cleared from every other
    stored row, i.e. the stored rows always form the RREF of the span.

    With ``track=True`` each stored row also carries its expression over
    the vectors fed to :meth:`add`, so membership tests can return exact
    coefficients.
    """

    def __init__(self, ncols: int, track: bool = False):
        self.ncols = ncols
        self.track = track
        self._rows: dict[int, dict[int, Fraction]] = {}  # pivot -> sparse row
        self._combos: dict[int, dict[int, Fraction]] = {}  # pivot -> combo over gens
        self.ngens = 0  # number of vectors fed to add(), independent or not

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: dict[int, Fraction], combo: dict[int, Fraction] | None):
        for pivot in sorted(self._rows):
            c = vec.get(pivot)
            if not c:
                continue
            row = self._rows[pivot]
            for col, val in row.items():
                new = vec.get(col, _ZERO) - c * val
                if new:
                    vec[col] = new
                else:
                    vec.pop(col, None)
            if combo is not None:
                for g, val in self._combos[pivot].items():
                    new = combo.get(g, _ZERO) + c * val
                    if new:
                        combo[g] = new
                    else:
                        combo.pop(g, None)
        return vec, combo

    def add(self, vector: Sequence[Fraction]) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        if len(vector) != self.ncols:
            raise DimensionMismatch("vector length does not match span width")
        g = self.ngens
        self.ngens += 1
        vec = {j: Fraction(v) for j, v in enumerate(vector) if v}
        combo: dict[int, Fraction] | None = {} if self.track else None
        vec, combo = self._reduce(vec, combo)
        if not vec:
            return False
        pivot = min(vec)
        lead = vec[pivot]
        row = {j: v / lead for j, v in vec.items()}
        if self.track:
            # residual = gen_g - sum(combo[i] * gen_i); solve for the new row.
            newcombo = {i: -v / lead for i, v in combo.items()}
            newcombo[g] = _ONE / lead
        # Clear the new pivot column from every stored row.
        for p, other in self._rows.items():
            c = other.get(pivot)
            if c:
                for col, val in row.items():
                    new = other.get(col, _ZERO) - c * val
                    if new:
                        other[col] = new
                    else:
                        other.pop(col, None)
                if self.track:
                    oc = self._combos[p]
                    for i, val in newcombo.items():
                        new = oc.get(i, _ZERO) - c * val
                        if new:
                            oc[i] = new
                        else:
                            oc.pop(i, None)
        self._rows[pivot] = row
        if self.track:
            self._combos[pivot] = newcombo
        return True

    def residual(self, vector: Sequence[Fraction]) -> dict[int, Fraction]:
        vec = {j: Fraction(v) for j, v in enumerate(vector) if v}
        vec, _ = self._reduce(vec, None)
        return vec

    def contains(self, vector: Sequence[Fraction]) -> bool:
        return not self.residual(vector)

    def coefficients(self, vector: Sequence[Fraction]) -> dict[int, Fraction] | None:
        """Express the vector over the vectors previously added, if possible.

        Returns a sparse dict (gen index -> coefficient) or None when the
        vector is outside the span.  Dependent generators never appear.
        """
        if not self.track:
            raise ValueError("RowSpan built without track=True")
        vec = {j: Fraction(v) for j, v in enumerate(vector) if v}
        combo: dict[int, Fraction] = {}
        vec, combo = self._reduce(vec, combo)
        if vec:
            return None
        return combo

    def basis_rows(self) -> list[Vec]:
        """The stored rows, in RREF order (ascending pivot)."""
        out = []
        for pivot in sorted(self._rows):
            row = self._rows[pivot]
            out.append(tuple(row.get(j, _ZERO) for j in range(self.ncols)))
        return out


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    The RREF of a matrix is unique, so the result is a canonical form of
    the row space.  Zero rows are kept so the shape is preserved.
    """
    span = RowSpan(m.cols)
    for row in m.data:
        span.add(row)
    rows = span.basis_rows()
    pivots = tuple(sorted(span._rows))
    pad = [tuple([_ZERO] * m.cols)] * (m.rows - len(rows))
    return QMatrix(rows + pad, cols=m.cols), pivots


def rank(m: QMatrix) -> int:
    span = RowSpan(m.cols)
    for row in m.data:
        span.add(row)
    return span.rank


def nullspace(m: QMatrix) -> list[Vec]:
    """A basis of the right kernel {v : m v = 0}.

    One basis vector per free column of the RREF, in ascending free-column
    order: entry 1 at the free column, minus the RREF column above each
    pivot.  Size is always cols - rank(m).
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    basis: list[Vec] = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[free] = _ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced.data[r][free]
        basis.append(tuple(v))
    return basis


def nullspace_of_rows(rows: Iterable[Sequence[Fraction]], ncols: int) -> list[Vec]:
    """Kernel basis for a constraint system given row by row.

    Equivalent to ``nullspace(QMatrix(rows))`` but skips materializing the
    (often hugely redundant) constraint matrix.
    """
    span = RowSpan(ncols)
    for row in rows:
        if span.rank == ncols:
            break
        span.add(row)
    pivots = sorted(span._rows)
    pivot_set = set(pivots)
    basis: list[Vec] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[free] = _ONE
        for p in pivots:
            c = span._rows[p].get(free)
            if c:
                v[p] = -c
        basis.append(tuple(v))
    return basis


def canonical_basis(vectors: Iterable[Sequence[Fraction]], ncols: int) -> list[Vec]:
    """RREF basis of the span of the given vectors (canonical, deterministic)."""
    span = RowSpan(ncols)
    for v in vectors:
        span.add(v)
    return span.basis_rows()


def in_span(
    v: Sequence[Fraction], basis: Sequence[Sequence[Fraction]]
) -> tuple[bool, list[Fraction] | None]:
    """Membership of v in the rational span of the basis vectors.

    On success also returns one exact coefficient vector (coefficients of
    basis vectors made redundant by earlier ones are 0).
    """
    n = len(v)
    for b in basis:
        if len(b) != n:
            raise DimensionMismatch("basis vector length does not match target")
    span = RowSpan(n, track=True)
    for b in basis:
        span.add(b)
    combo = span.coefficients(v)
    if combo is None:
        return False, None
    return True, [combo.get(i, _ZERO) for i in range(len(basis))]


def solve(a: QMatrix, b: Sequence[Fraction]) -> Vec | None:
    """Exact solution of a x = b, or None when the system is inconsistent.

    Free variables are set to 0 under the RREF, so the answer is the same
    on every run.
    """
    if a.rows != len(b):
        raise DimensionMismatch("right-hand side length does not match rows")
    augmented = QMatrix([list(row) + [bi] for row, bi in zip(a.data, b)], cols=a.cols + 1)
    reduced, pivots = rref(augmented)
    if pivots and pivots[-1] == a.cols:
        return None  # a pivot in the constants column: no solution
    x = [_ZERO] * a.cols
    for r, p in enumerate(pivots):
        x[p] = reduced.data[r][a.cols]
    return tuple(x)
