"""
The quiver with quadratic relations underlying the regular block.

Vertices are the Weyl group elements, with dim Hom^1(V_y, V_w) arrows from
y to w bound to the canonical hom-basis matrices A^k_{y,w}.  Writing

    dtilde = sum over (y, w, k) of  a^k_{y,w} A^k_{y,w}

as a matrix over the free path algebra, every linear relation between
length-2 paths is a matrix entry of dtilde^2: the (p, q) entry of the
(w, y) block is the combination

    sum over (z, i, j) of  (A^i_{z,w} A^j_{y,z})[p, q] . path(y, j, z, i, w).

Stacking those rows over the path coordinates of one ordered pair and
taking the RREF row basis gives the canonical relator basis of that pair.
Relator spaces are only ever compared as subspaces: arrow rescaling moves
individual coefficients but not spans.  Every path product is C-linear,
so its column q is a combination of sigma_v applied to its columns at the
generators of V_y's presentation: the rows of those few columns span the
same relator space, and only they are formed.

Hom^1(V_y, V_w) and Hom^1(V_w, V_y) vanish together, since each V_w is
self-dual (the pairings `icmod` solves, tested by `verdier-involution`),
so a pair whose reverse was solved to zero is not solved again.

The quiver keeps each datum in one form: an arrow is a (y, w, k) index
into `hom1`, and a relator is a Row over the indices into `paths(y, w)`,
which the cache, `icmod.validate` and the renderers all read as they are.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import QMatrix, Row, RowSpan, canonical_basis, exact, format_rational
from .rootsystem import WeylElement
from .homspace import hom_basis
from .soergel import ModuleFamily, presentation

# (y, j, z, i, w): first the j-th arrow y -> z, then the i-th arrow z -> w
PathKey = tuple[int, int, int, int, int]
# (y, w, k): the k-th arrow y -> w, bound to hom1[(y, w)][k]
ArrowKey = tuple[int, int, int]
# (y, w) -> canonical basis of Hom^1(V_y, V_w), for the pairs where it is nonzero
Hom1 = dict[tuple[int, int], tuple[QMatrix, ...]]


class MalformedPath(ValueError):
    """A path reference names a missing vertex or arrow, or endpoints clash."""


class Quiver:
    """Arrows plus the canonical relator basis of every ordered pair.

    `hom1` maps each ordered pair (y, w) with dim Hom^1(V_y, V_w) > 0 to its
    canonical basis, pairs in y-major order; `arrows` lists its (y, w, k)
    triples in that order.  `relators` maps each pair with length-2 paths
    to its relator basis, one Row per relator over the indices into
    `paths(y, w)`; a Row's order is its relator's term order.  The Rows are
    kept as given.  :func:`build_quiver` solves both, `cache.restore`
    decodes them.
    """

    def __init__(
        self,
        family: ModuleFamily,
        hom1: Hom1,
        relators: dict[tuple[int, int], list[Row]],
    ):
        self.family = family
        self.group = family.group
        self.hom1 = hom1
        self.arrows: list[ArrowKey] = [
            (y, w, k) for (y, w), basis in hom1.items() for k in range(len(basis))
        ]
        self._paths = _length2_paths(hom1)
        if relators.keys() != self._paths.keys():
            raise MalformedPath("relators are not given for exactly the pairs joined by length-2 paths")
        for (y, w), rows in relators.items():
            npaths = len(self._paths[(y, w)])
            if any(not 0 <= n < npaths for row in rows for n in row):
                raise MalformedPath(f"a relator from {y} to {w} names a path it does not have")
        self._relators = relators

    # -- structure queries --------------------------------------------------

    def arrow_count(self, y: WeylElement, w: WeylElement) -> int:
        return len(self.hom1.get((y.idx, w.idx), ()))

    def paths(self, y_idx: int, w_idx: int) -> list[PathKey]:
        """Length-2 paths y -> z -> w, ordered by (z, j, i) canonically."""
        return self._paths.get((y_idx, w_idx), [])

    # -- relators ------------------------------------------------------------

    def relators(self) -> dict[tuple[int, int], list[Row]]:
        """Per pair, its relators as Rows over the indices into `paths(y, w)`."""
        return self._relators

    def relator_dim(self) -> int:
        return sum(len(v) for v in self.relators().values())

    def all_pm_one(self) -> bool:
        """Whether the canonical relator basis has all coefficients in {0, +-1}.

        Purely observational; nothing downstream depends on the outcome.
        """
        return all(
            c in (1, -1) for rows in self.relators().values() for row in rows for c in row.values()
        )

    def relator_span_contains_all_products(self) -> bool:
        """Every entry of dtilde^2, in every column, reduces to 0 mod the
        relators, which `build_quiver` spans from the generator columns."""
        for (y, w), rows in self.relators().items():
            keys = self.paths(y, w)
            span = RowSpan(len(keys))
            for row in rows:
                span.add(row)
            columns = range(self.family.modules[y].dim)
            if not all(span.contains(row) for row in _product_rows(self.hom1, keys, columns)):
                return False
        return True


def _length2_paths(hom1: Hom1) -> dict[tuple[int, int], list[PathKey]]:
    """Every length-2 path of a y-major `hom1`, grouped by (source, target),
    each group ordered by (z, j, i) canonically."""
    successors: dict[int, list[tuple[int, int]]] = {}
    for (z, w), basis in hom1.items():
        successors.setdefault(z, []).append((w, len(basis)))
    out: dict[tuple[int, int], list[PathKey]] = {}
    for (y, z), first in hom1.items():
        for w, second in successors.get(z, ()):
            keys = out.setdefault((y, w), [])
            for j in range(len(first)):
                for i in range(second):
                    keys.append((y, j, z, i, w))
    return out


def _product_rows(hom1: Hom1, keys: Sequence[PathKey], columns: Sequence[int]) -> list[Row]:
    """The entries of dtilde^2 on one pair in the given source columns: a
    Row over the paths `keys` per nonzero matrix entry (p, q) of the path
    products with q in `columns`, in (p, q) order."""
    entries: dict[tuple[int, int], Row] = {}
    for n, (y, j, z, i, w) in enumerate(keys):
        first, second = hom1[(y, z)][j].data, hom1[(z, w)][i].data
        for q in columns:
            image = [(k, row[q]) for k, row in enumerate(first) if q in row]  # first arrow on e_q
            for p, row in enumerate(second):
                value = 0
                for k, b in image:
                    a = row.get(k)
                    if a:
                        value += a * b
                if value:
                    entries.setdefault((p, q), {})[n] = exact(value)
    return [entries[pq] for pq in sorted(entries)]


def build_quiver(family: ModuleFamily) -> Quiver:
    """Solve every Hom^1 space and the relator basis of every pair.

    The sweep runs target-major, so each target's orbits are formed once
    and (w, y) is solved before (y, w) when y precedes w; a pair whose
    reverse is zero is zero by self-duality and is not solved.  Relators
    are spanned from the product columns at the source's presentation
    generators."""
    g = family.group
    found: Hom1 = {}
    for w in g.elements:
        for y in g.elements:
            if y.idx < w.idx and (w.idx, y.idx) not in found:
                continue
            basis = hom_basis(family, y, w, 1).basis
            if basis:
                found[(y.idx, w.idx)] = basis
    hom1 = {pair: found[pair] for pair in sorted(found)}
    modules = family.modules
    relators = {
        (y, w): canonical_basis(
            _product_rows(hom1, keys, presentation(family.ring, modules[y]).generators), len(keys)
        )
        for (y, w), keys in sorted(_length2_paths(hom1).items())
    }
    return Quiver(family, hom1, relators)


# -- vertex numbering and rendering ------------------------------------------

#: the classical numbering of the A2 quiver (longest element first)
_A2_APPENDIX_IDS = {"1.2.1": 1, "1.2": 2, "2.1": 3, "1": 4, "2": 5, "e": 6}


def vertex_ids(q: Quiver, appendix_numbering: bool = False) -> list[int]:
    """Vertex id per canonical element index (1-based by default)."""
    g = q.group
    if not appendix_numbering:
        return [w.idx + 1 for w in g.elements]
    if g.rootsystem.name != "A2":
        raise ValueError("appendix numbering is only defined for A2")
    return [_A2_APPENDIX_IDS[str(w)] for w in g.elements]


def _token(ids: Sequence[int], *vs: int) -> str:
    parts = [str(ids[v]) for v in vs]
    if all(ids[v] <= 9 for v in vs):
        return "(" + "".join(parts) + ")"
    return "(" + ".".join(parts) + ")"


def arrow_token(ids: Sequence[int], arrow: ArrowKey) -> str:
    y, w, k = arrow
    t = _token(ids, y, w)
    return t if k == 0 else f"{t[:-1]}#{k})"


def path_token(ids: Sequence[int], key: PathKey) -> str:
    y, j, z, i, w = key
    t = _token(ids, y, z, w)
    return t if i == 0 and j == 0 else f"{t[:-1]}#{j}.{i})"


def relator_str(ids: Sequence[int], keys: Sequence[PathKey], row: Row) -> str:
    """One relator Row over the paths `keys` of its pair, in its term order."""
    parts: list[str] = []
    for n, c in row.items():
        token = path_token(ids, keys[n])
        if not parts:
            if c == 1:
                parts.append(token)
            elif c == -1:
                parts.append(f"-{token}")
            else:
                parts.append(f"{format_rational(c)} {token}")
        else:
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            term = token if mag == 1 else f"{format_rational(mag)} {token}"
            parts.append(f"{sign} {term}")
    return " ".join(parts) if parts else "0"


def to_json_doc(q: Quiver, appendix_numbering: bool = False) -> dict:
    """The machine-readable export: vertices with their words, arrows, and
    every relator as terms over paths given by vertex ids and arrow indices."""
    g = q.group
    ids = vertex_ids(q, appendix_numbering)
    doc = {
        "system": {"type": g.rootsystem.type_label, "rank": g.rootsystem.rank},
        "vertices": [
            {"id": ids[w.idx], "word": str(w), "length": w.length} for w in g.elements
        ],
        "arrows": [{"from": ids[y], "to": ids[w], "index": k} for y, w, k in q.arrows],
        "relations": [],
    }
    for (y_idx, w_idx), rows in q.relators().items():
        keys = q.paths(y_idx, w_idx)
        source, target = ids[y_idx], ids[w_idx]
        for row in rows:
            terms = []
            for n, c in row.items():
                _, j, z, i, _ = keys[n]
                terms.append({"path": [source, j, ids[z], i, target], "coeff": format_rational(c)})
            doc["relations"].append({"source": source, "target": target, "terms": terms})
    return doc


def to_dot(q: Quiver, appendix_numbering: bool = False) -> str:
    g = q.group
    ids = vertex_ids(q, appendix_numbering)
    lines = [f'digraph "{g.rootsystem.name}" {{']
    for w in g.elements:
        lines.append(f'  v{ids[w.idx]} [label="{ids[w.idx]}: {w}"];')
    for y, w, k in q.arrows:
        label = f' [label="{k}"]' if k else ""
        lines.append(f"  v{ids[y]} -> v{ids[w]}{label};")
    lines.append("  // relations")
    for pair, rows in q.relators().items():
        keys = q.paths(*pair)
        for row in rows:
            lines.append(f"  // {relator_str(ids, keys, row)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_text(q: Quiver, appendix_numbering: bool = False) -> str:
    g = q.group
    ids = vertex_ids(q, appendix_numbering)
    nrel = q.relator_dim()
    lines = [
        f"quiver {g.rootsystem.name}: {len(g)} vertices, {len(q.arrows)} arrows, {nrel} relators"
    ]
    lines.append("vertices:")
    for w in g.elements:
        lines.append(f"  {ids[w.idx]} = {w}  (length {w.length})")
    lines.append("arrows:")
    lines.append("  " + " ".join(arrow_token(ids, a) for a in q.arrows))
    lines.append(f"relators ({nrel}):")
    for pair, rows in q.relators().items():
        keys = q.paths(*pair)
        for row in rows:
            lines.append(f"  {relator_str(ids, keys, row)}")
    verdict = "yes" if q.all_pm_one() else "no"
    lines.append(f"all relator coefficients in {{0, +1, -1}}: {verdict}")
    return "\n".join(lines) + "\n"
