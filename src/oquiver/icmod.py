"""
IC-modules over a computed module family: a finite-dimensional stalk per
vertex and, per incident ordered pair, a boundary map expressed in the
canonical Hom^1 basis (index k plus a stalk matrix), subject to the chain
complex axiom d^2 = 0 for the assembled total differential

    d = sum over pairs of  sum_k  A^k_{y,w} (x) B^k : (+)_w V_w (x) M_w.

An IC-module is its own representation of the quiver: stalks are the
vertex spaces, and the term (k, matrix) on pair (y, w) is the map on arrow
k of y -> w.  The block (y, w) of d^2 is the sum over the paths
y -> z -> w of (A^i_{z,w} A^j_{y,z}) (x) (B^i_{z,w} B^j_{y,z}), so d^2 = 0
exactly when every relator of the quiver acts by zero on the stalk maps:
:func:`validate` tests that at stalk size, reading each relator as the
Row over `q.paths(y, w)` the quiver holds, and never assembles d.  Only
:func:`assemble_differential` and :func:`total_cohomology`, which ranks
its degree pieces, build the total complex.
Verdier duality dualizes stalks and transposes boundary maps against the
self-duality of each V_w, with no extra signs.

What depends only on the quiver is solved once per quiver: the element
names (stored on each element when the group is generated), the relators,
the pairings V_w -> V_w*, and per pair the dual of each arrow in the
Hom^1 basis.  So an operation on a document does only per-document work,
and copies no matrix only to read it once more: matrix entries are parsed
straight into Rows and element names are looked up (`WeylGroup.parse`);
the relators are evaluated on its stalk products; d is written entry by
entry into the rows of the total complex, and cohomology ranks those rows
degree by degree as they are; a dual writes each stalk entry, scaled,
straight into its transposed place in the dual rows; and writing reads
the stored names.
"""

from __future__ import annotations

import functools

from .linalg import (
    DimensionMismatch,
    QMatrix,
    Row,
    exact_row,
    format_rational,
    in_span,
    parse_rational,
    rank,
    subtract_scaled,
)
from .quiver import PathKey, Quiver
from .schubert import InternalConsistencyError
from .soergel import GradedModule, graded_hom_basis


#: the largest total dimension sum_w stalk_w dim V_w a document may give:
#: the total complex allocates a row and a degree per basis vector
MAX_TOTAL_DIM = 100_000


class ShapeError(ValueError):
    """Stalk or boundary data does not fit the quiver; message names the pair."""


class InvalidModule(ValueError):
    """Operation requires the chain complex axiom but d^2 != 0."""


class ICModule:
    """Stalk dimensions plus boundary terms (hom index, stalk matrix).

    Zero stalk matrices and empty pairs are normalized away, so equality of
    the stored data is meaningful.  The zero terms are set aside, not
    forgotten: their shapes are checked like those of the others.  A module
    is not changed after it is made, so its shapes are checked once per
    quiver, by the first operation (or on reading a document), and
    `_checked` holds the quiver they passed against.
    """

    __slots__ = ("stalks", "boundary", "_zero_terms", "_checked")

    def __init__(
        self,
        stalks: dict[int, int],
        boundary: dict[tuple[int, int], list[tuple[int, QMatrix]]],
    ):
        self.stalks = {w: int(d) for w, d in stalks.items() if d}
        self.boundary = {}
        self._zero_terms = []
        self._checked: Quiver | None = None
        for pair, terms in boundary.items():
            kept = []
            for k, m in terms:
                if m.is_zero():
                    self._zero_terms.append((pair, k, m))
                else:
                    kept.append((k, m))
            kept.sort(key=lambda km: km[0])
            if kept:
                self.boundary[pair] = kept

    def stalk_dim(self, idx: int) -> int:
        return self.stalks.get(idx, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ICModule):
            return NotImplemented
        return self.stalks == other.stalks and self.boundary == other.boundary


def _check_term(q: Quiver, stalks: dict[int, int], y: int, w: int, k: int, mat: QMatrix) -> None:
    """Term (k, mat) of the pair (y, w) names an arrow and maps stalk y to stalk w."""
    narrows = len(q.hom1.get((y, w), ()))
    if narrows == 0:
        raise ShapeError(f"boundary on non-incident pair ({y}, {w})")
    if not 0 <= k < narrows:
        raise ShapeError(f"hom index {k} out of range on pair ({y}, {w})")
    sy, sw = stalks.get(y, 0), stalks.get(w, 0)
    if mat.rows != sw or mat.cols != sy:
        raise ShapeError(
            f"stalk matrix on pair ({y}, {w}) is {mat.rows}x{mat.cols}, expected {sw}x{sy}"
        )


def _check_shapes(q: Quiver, m: ICModule) -> None:
    """Every term of m, zero terms included, fits q; checked once per quiver."""
    if m._checked is q:
        return
    for (y, w), terms in m.boundary.items():
        for k, mat in terms:
            _check_term(q, m.stalks, y, w, k, mat)
    for (y, w), k, mat in m._zero_terms:
        _check_term(q, m.stalks, y, w, k, mat)
    m._checked = q


def _total_layout(q: Quiver, m: ICModule):
    """Basis offsets of (+)_w V_w (x) M_w, in canonical vertex order."""
    offsets: dict[int, int] = {}
    degrees: list[int] = []
    total = 0
    for w in q.group.elements:
        s = m.stalk_dim(w.idx)
        if not s:
            continue
        offsets[w.idx] = total
        module = q.family.modules[w.idx]
        for a in range(module.dim):
            degrees.extend([module.degrees[a]] * s)
        total += module.dim * s
    return offsets, degrees, total


def assemble_differential(q: Quiver, m: ICModule) -> tuple[QMatrix, list[int]]:
    """The total differential and the degree of each total-complex basis vector.

    Term (k, B) on pair (y, w) adds A (x) B for the arrow A = hom1[(y, w)][k]:
    entry A[r, c] B[s, t] lands at row r s_w + s of block w and column
    c s_y + t of block y, written straight into the rows of d."""
    _check_shapes(q, m)
    offsets, degrees, total = _total_layout(q, m)
    rows: list[Row] = [{} for _ in range(total)]
    for (y, w), terms in m.boundary.items():
        if y not in offsets or w not in offsets:
            continue  # a zero-dimensional stalk carries no maps
        oy, ow = offsets[y], offsets[w]
        sy, sw = m.stalk_dim(y), m.stalk_dim(w)
        arrows = q.hom1[(y, w)]
        for k, stalk_map in terms:
            for r, arrow_row in enumerate(arrows[k].data):
                for c, a in arrow_row.items():
                    base = oy + c * sy
                    for s, stalk_row in enumerate(stalk_map.data, ow + r * sw):
                        target = rows[s]
                        for t, b in stalk_row.items():
                            target[base + t] = target.get(base + t, 0) + a * b
    return QMatrix.from_rows(map(exact_row, rows), total), degrees


def validate(q: Quiver, m: ICModule) -> bool:
    """The chain complex axiom d^2 = 0, tested on the quiver's relators.

    Block (y, w) of d^2 is the sum over the paths y -> z -> w of
    (A^i_{z,w} A^j_{y,z}) (x) (B^i_{z,w} B^j_{y,z}).  It vanishes exactly
    when sum_path r[path] B_path = 0 for every r in the span of the entries
    of the arrow products, and the relators of (y, w) are a basis of that
    span.  So only the pairs that the module's own maps join are visited,
    each path's stalk product is formed once, and the first relator that
    does not vanish ends the test."""
    _check_shapes(q, m)
    # the map on each arrow of a pair, repeated terms summed, by source vertex
    leaving: dict[int, list[tuple[int, dict[int, QMatrix]]]] = {}
    for (y, z), terms in m.boundary.items():
        maps: dict[int, QMatrix] = {}
        for k, mat in terms:
            maps[k] = maps[k] + mat if k in maps else mat
        leaving.setdefault(y, []).append((z, maps))
    # the pairs joined by two maps, each with its middle vertices
    joined: dict[tuple[int, int], list[tuple[int, dict[int, QMatrix], dict[int, QMatrix]]]] = {}
    for y, firsts in leaving.items():
        for z, first in firsts:
            for w, second in leaving.get(z, ()):
                joined.setdefault((y, w), []).append((z, first, second))
    relators = q.relators()
    for (y, w), middles in joined.items():
        products: dict[PathKey, tuple[Row, ...]] = {}
        for z, first, second in middles:
            for j, a in first.items():
                for i, b in second.items():
                    products[(y, j, z, i, w)] = (b * a).data
        keys = q.paths(y, w)
        for relator in relators[(y, w)]:
            acc: list[Row] = [{} for _ in range(m.stalk_dim(w))]
            for n, c in relator.items():
                product = products.get(keys[n])
                if product is not None:
                    for target, row in zip(acc, product):
                        subtract_scaled(target, -c, row)
            if any(acc):
                return False
    return True


def total_cohomology(q: Quiver, m: ICModule) -> dict[int, int]:
    """Exact graded dimensions of ker/im of the total complex."""
    if not validate(q, m):
        raise InvalidModule("total cohomology requires d^2 = 0")
    d, degrees = assemble_differential(q, m)
    by_degree: dict[int, list[int]] = {}
    for idx, deg in enumerate(degrees):
        by_degree.setdefault(deg, []).append(idx)
    # d has degree 1, so the rows of degree n + 1 are the piece of d from degree n
    ranks = {n: rank([d.data[r] for r in by_degree.get(n + 1, [])]) for n in by_degree}
    out = {}
    for n in sorted(by_degree):
        h = len(by_degree[n]) - ranks[n] - ranks.get(n - 1, 0)
        if h:
            out[n] = h
    return out


def euler_characteristic(dims: dict[int, int]) -> int:
    return sum((-1) ** (n % 2) * d for n, d in dims.items())


# -- Verdier duality ------------------------------------------------------------


def _dual_module(module: GradedModule) -> GradedModule:
    return GradedModule([-d for d in module.degrees], [a.transpose() for a in module.gens])


@functools.lru_cache(maxsize=1)
def _duality(q: Quiver) -> tuple[list[QMatrix], dict[tuple[int, int], list[Row]]]:
    """The degree-0 isomorphisms V_w -> V_w* realizing Poincare self-duality,
    and the transport of each pair, filled in by :func:`_transport` on first
    use; kept for the last quiver only (it hashes by identity)."""
    isos = []
    for w in q.group.elements:
        module = q.family.modules[w.idx]
        maps = graded_hom_basis(q.family.ring, module, _dual_module(module), 0)
        if len(maps) != 1 or rank(maps[0].data) != module.dim:
            raise InternalConsistencyError(  # pragma: no cover - internal self-check
                f"self-duality pairing of V[{w}] is not unique and invertible"
            )
        isos.append(maps[0])
    return isos, {}


def _entries(m: QMatrix) -> Row:
    """The entries of a matrix as one Row, indexed row-major."""
    return {p * m.cols + c: v for p, c, v in m.nonzero_items()}


def _transport(q: Quiver, isos: list[QMatrix], w: int, y: int) -> list[Row]:
    """Per arrow A_k of the pair (w, y), the coefficients c of its dual
    phi_w^-1 A_k^T phi_y = sum c_j B_j over the basis B_j of hom1[(y, w)].

    That equation holds exactly when A_k^T phi_y = sum c_j phi_w B_j, since
    the pairing phi_w is invertible; so no inverse is ever formed."""
    basis = q.hom1[(y, w)]
    size = basis[0].rows * basis[0].cols
    basis_rows = [_entries(isos[w] * b) for b in basis]
    out = []
    for arrow in q.hom1[(w, y)]:
        ok, coeffs = in_span(_entries(arrow.transpose() * isos[y]), basis_rows, size)
        if not ok:  # pragma: no cover - internal self-check
            raise InternalConsistencyError("transposed boundary left Hom^1")
        out.append(coeffs)
    return out


def verdier_dual(q: Quiver, m: ICModule) -> ICModule:
    """Dual stalks; boundary (y, w) is the graded transpose of boundary (w, y),
    re-expressed in the canonical Hom^1 bases.  No sign is introduced.

    The re-expression depends only on the quiver: arrow k of (w, y) dualizes
    to sum_j c_j B_j, with c solved once per quiver and pair (`_transport`).
    A term (k, S) then contributes c_j S^T to the dual term j: each entry
    S[i, col] adds c_j S[i, col] at row col, column i of that term."""
    _check_shapes(q, m)
    isos, transport = _duality(q)
    boundary: dict[tuple[int, int], list[tuple[int, QMatrix]]] = {}
    for (w, y), terms in m.boundary.items():
        # the stored pair maps stalk w -> stalk y; the dual pair is (y, w)
        if (w, y) not in transport:
            transport[(w, y)] = _transport(q, isos, w, y)
        coeffs = transport[(w, y)]
        sums: dict[int, list[Row]] = {}
        for k, stalk_map in terms:
            for j, c in coeffs[k].items():
                rows = sums.setdefault(j, [{} for _ in range(stalk_map.cols)])
                for i, row in enumerate(stalk_map.data):
                    for col, a in row.items():
                        target = rows[col]
                        target[i] = target.get(i, 0) + c * a
        boundary[(y, w)] = [
            (j, QMatrix.from_rows(map(exact_row, rows), m.stalk_dim(y)))
            for j, rows in sorted(sums.items())
        ]
    dual = ICModule(dict(m.stalks), boundary)
    dual._checked = q  # each dual term is on an incident pair, shaped by construction
    return dual


# -- document format ------------------------------------------------------------


def icmodule_to_doc(q: Quiver, m: ICModule) -> dict:
    g = q.group
    return {
        "system": {"type": g.rootsystem.type_label, "rank": g.rootsystem.rank},
        "stalks": {str(g.elements[w]): d for w, d in sorted(m.stalks.items())},
        "boundary": [
            {
                "from": str(g.elements[y]),
                "to": str(g.elements[w]),
                "k": k,
                "matrix": [[format_rational(row.get(j, 0)) for j in range(mat.cols)] for row in mat.data],
            }
            for (y, w), terms in sorted(m.boundary.items())
            for k, mat in terms
        ],
    }


def _system(doc) -> dict:
    if not isinstance(doc, dict):
        raise ShapeError("document is not a JSON object")
    system = doc.get("system") or {}
    if not isinstance(system, dict):
        raise ShapeError("document system is not an object")
    return system


def document_type(doc) -> str:
    """The root system name, like "A3", that an IC-module document is for."""
    system = _system(doc)
    name = f"{system.get('type', '')}{system.get('rank', '')}"
    if not name:
        raise ShapeError("document has no system field")
    return name


def _element(q: Quiver, text, where: str) -> int:
    if not isinstance(text, str):
        raise ShapeError(f"{where} is {text!r}, not an element string")
    return q.group.parse(text).idx


def _stalk_matrix(rows, cols: int, where: str) -> QMatrix:
    """A matrix of "p/q" strings, parsed straight into Rows.  A malformed
    matrix is named by its first fault in this order: not a list of lists,
    an entry that is not a string, an entry that is not a rational, ragged
    rows."""
    if not isinstance(rows, list):
        raise ShapeError(f"{where}: matrix is not a list of rows")
    data = []
    try:
        for r in rows:
            if not isinstance(r, list):
                raise TypeError
            # parse_rational raises TypeError on an entry that is not a string
            data.append({j: v for j, x in enumerate(r) if (v := parse_rational(x))})
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        if not all(isinstance(r, list) for r in rows):
            raise ShapeError(f"{where}: matrix is not a list of rows") from None
        if not all(isinstance(x, str) for r in rows for x in r):
            raise ShapeError(f'{where}: matrix entries must be strings like "p/q"') from None
        raise ShapeError(f"{where}: bad matrix entry ({exc})") from None
    if rows:
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise DimensionMismatch("ragged rows")
    return QMatrix.from_rows(data, cols)


def icmodule_from_doc(q: Quiver, doc: dict) -> ICModule:
    """Read a document; malformed content raises ShapeError naming the problem."""
    rs = q.group.rootsystem
    system = _system(doc)
    if system and (system.get("type") != rs.type_label or system.get("rank") != rs.rank):
        raise ShapeError(
            f"document is for {system.get('type')}{system.get('rank')}, quiver is {rs.name}"
        )
    if not isinstance(doc.get("stalks"), dict):
        raise ShapeError("document has no stalks object")
    stalks = {}
    for el, d in doc["stalks"].items():
        if type(d) is not int or d < 0:
            raise ShapeError(f"stalk of {el} is {d!r}, not a nonnegative integer")
        w = _element(q, el, "stalk element")
        if w in stalks:
            # two names of one element ("e" and "1.1" over A1) would keep the last stalk
            raise ShapeError(f"stalk element {el} names {q.group.elements[w]} again")
        stalks[w] = d
    if sum(d * q.family.modules[w].dim for w, d in stalks.items()) > MAX_TOTAL_DIM:
        raise ShapeError(f"stalks give a total complex of more than {MAX_TOTAL_DIM} dimensions")
    entries = doc.get("boundary", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ShapeError("document boundary is not a list of objects")
    boundary: dict[tuple[int, int], list[tuple[int, QMatrix]]] = {}
    seen: set[tuple[int, int, int]] = set()
    for n, entry in enumerate(entries):
        where = f"boundary entry {n}"
        y = _element(q, entry.get("from"), f"{where} from")
        w = _element(q, entry.get("to"), f"{where} to")
        k = entry.get("k")
        if type(k) is not int:
            raise ShapeError(f"{where}: k is {k!r}, not an integer")
        mat = _stalk_matrix(entry.get("matrix"), stalks.get(y, 0), where)
        # checked on reading, so a bad entry is refused before a repeated one
        _check_term(q, stalks, y, w, k, mat)
        if (y, w, k) in seen:
            # d would sum the two maps, but a dual written back gives one term
            raise ShapeError(f"{where} repeats hom index {k} on pair ({y}, {w})")
        seen.add((y, w, k))
        boundary.setdefault((y, w), []).append((k, mat))
    module = ICModule(stalks, boundary)
    module._checked = q  # every term was checked above
    return module
