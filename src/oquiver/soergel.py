"""
Graded modules over the Schubert-basis cohomology ring, and the inductive
construction of the intersection cohomology modules V_w = IH*(Xbar_w).

The building block is extension along a simple reflection,

    extend(i, M) = C (x)_{C^{s_i}} M,

with basis {1 (x) b, sigma_{s_i} (x) b} (interleaved per basis vector of M)
and degrees deg(1 (x) b) = deg b - 1, deg(sigma_i (x) b) = deg b + 1.  A
module is stored as the action matrices of the rank generators sigma_{s_j}
alone, since they generate the ring; every other class acts through the
ring's generator expressions, applied to whole matrices
(`CohRing.action_rows`) or to one basis vector (`schubert.Orbits`, which
also gives the ring its own multiplication table).  The
generator action on the extension is computed by splitting
sigma_{s_j} . a = x + sigma_i y with x, y invariant under s_i (a = 1 or
sigma_i, so x and y have degree at most 2), giving
sigma_{s_j} . (a (x) m) = 1 (x) (x . m) + sigma_i (x) (y . m).

V_w is extracted from the single-extension cover extend(i, V_{w s_i}): the
copies of shorter V_y inside are located via degree-0 module maps, solved
only for the y the cover can contain (y s_i < y and y <= w s_i), and a
homogeneous basis of the quotient is grown from cyclic orbits of leftover
basis vectors.  The number of copies of each V_y is fixed by the KL mu
(Soergel), so the family keeps only the modules.  Iterating over a whole
word gives the 2^l-dimensional tensor word module, which serves only as a
rank-2 reference.

Every Hom space is solved through a presentation of the source: a module
map is fixed by the images of the 1-3 generators of the source, subject to
its relations, so the unknowns are those images rather than every matrix
entry of the degree band.  A module's presentation is built once and stays
on the module.  The solves read orbit vectors sigma_v e_q: the Hom
target's in the degree pieces that hold unknowns, a presentation's at its
generators, and `extract_top`'s at leftover vectors.  Each orbit is formed
from the generator columns when it is first read, and only the last
module's orbits are kept, so a sweep that solves many sources against one
target should run target-major.

Degrees are symmetric around 0: V_w lives in [-l(w), l(w)] with parity
l(w) mod 2, and sigma_v shifts degree by +2 l(v).
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

from .linalg import QMatrix, Row, RowSpan, canonical_basis, nullspace_of_rows, subtract_scaled
from .rootsystem import WeylElement, WeylGroup
from .schubert import CohRing, InternalConsistencyError, Orbits


class GradedModule:
    """A graded module over the cohomology ring, stored as the degree of each
    basis vector and one action matrix per rank generator sigma_{s_1}, ...,
    sigma_{s_r}; `dim` is read off the degrees."""

    __slots__ = ("dim", "degrees", "gens", "_presentation")

    def __init__(self, degrees: Sequence[int], gens: Sequence[QMatrix]):
        self.degrees = tuple(degrees)
        self.dim = len(self.degrees)
        self.gens = list(gens)
        # built on the first Hom solve from this module; never refers back to it
        self._presentation: Presentation | None = None

    def graded_dims(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))


def derived_actions(ring: CohRing, gens: Sequence[QMatrix]) -> list[QMatrix]:
    """The action matrix of sigma_v for every v in element order; see
    `CohRing.action_rows`."""
    dim = gens[0].cols
    return [QMatrix.from_rows(rows, dim) for rows in ring.action_rows([a.data for a in gens])]


def class_matrix(actions: Sequence[QMatrix], c: Row, dim: int) -> QMatrix:
    """The action of the class c, given the derived actions of its support."""
    out = QMatrix.zeros(dim, dim)
    for w, coeff in c.items():
        out = out + actions[w].scale(coeff)
    return out


def trivial_module(ring: CohRing) -> GradedModule:
    """V_e: one dimension in degree 0; every sigma_v with v != e acts by 0."""
    gens = [QMatrix.zeros(1, 1) for _ in range(ring.rootsystem.rank)]
    return GradedModule((0,), gens)


def extend(ring: CohRing, i: int, module: GradedModule) -> GradedModule:
    """C tensored over the s_i-invariants with the given module (i 1-based)."""
    g = ring.group
    dim = 2 * module.dim
    degrees = []
    for d in module.degrees:
        degrees.extend((d - 1, d + 1))

    # the split parts below have degree <= 2, so classes up to length 2
    # suffice; shifted[b][v][m] is row m of sigma_v with column k moved to 2k + b
    low = list(ring.action_rows([a.data for a in module.gens], 2))
    shifted = [
        [[{2 * k + b: x for k, x in row.items()} for row in rows] for rows in low] for b in (0, 1)
    ]

    si = g.simple(i)
    gens: list[QMatrix] = []
    for j in range(1, ring.rootsystem.rank + 1):
        x1, y1 = ring.split(i, {g.simple(j).idx: 1})
        x2, y2 = ring.split(i, ring.chevalley_multiply(j, si))
        # entry (2m + a, 2k + b) of the action is entry (m, k) of the part for (a, b)
        rows: list[Row] = [{} for _ in range(dim)]
        for a, b, part in ((0, 0, x1), (0, 1, x2), (1, 0, y1), (1, 1, y2)):
            for v, coeff in part.items():
                for m, row in enumerate(shifted[b][v]):
                    subtract_scaled(rows[2 * m + a], -coeff, row)
        gens.append(QMatrix.from_rows(rows, dim))
    return GradedModule(degrees, gens)


def word_module(ring: CohRing, word: Iterable[int]) -> GradedModule:
    """Iterated extension over a word (need not be reduced); dimension 2^l."""
    module = trivial_module(ring)
    for i in word:
        module = extend(ring, i, module)
    return module


class Presentation:
    """Generators and relations of a graded module over the ring.

    The generators g_k are the unit basis vectors outside sum_i sigma_{s_i}
    M, which generate M by Nakayama; `generators` holds their basis
    indices and `gen_degrees` their degrees.
    The orbit vectors sigma_v g_k are kept up to one length
    past the top degree, so the first vanishing level is present: a deeper
    sigma_v is a combination of sigma_{s_i} sigma_{u'} with sigma_{u'} g_k
    already zero.
    `relations` are the linear dependencies among the orbit vectors (a zero
    orbit vector is the relation sigma_v g_k = 0), each with its degree,
    and `expressions` writes every basis vector of M over the orbit
    vectors.  Relations and expressions are Rows over orbit indices;
    `orbit[j]` is (v.idx, k).
    """

    __slots__ = ("generators", "gen_degrees", "orbit", "relations", "expressions")

    def __init__(self, ring: CohRing, module: GradedModule):
        dim = module.dim
        degrees = module.degrees
        orbits = _orbits(ring, module)
        # every column is homogeneous (column q of a generator lies in degree
        # deg q + 2), so the image is spanned degree by degree
        image = {d: RowSpan(dim) for d in set(degrees)}
        for columns in orbits.columns:
            for q, column in enumerate(columns):
                if column:
                    image[degrees[q] + 2].add(column)
        generators = self.generators = tuple(q for q in range(dim) if image[degrees[q]].add({q: 1}))
        self.gen_degrees = tuple(degrees[q] for q in generators)

        top = max(degrees)
        self.orbit: list[tuple[int, int]] = []
        self.relations: list[tuple[int, Row]] = []
        span = RowSpan(dim, track=True)  # fed every orbit vector, so gen index = orbit index
        for k, q in enumerate(generators):
            level = (top - degrees[q]) // 2 + 1
            orbit = orbits[q]
            for v in ring.group.elements:
                if v.length > level:
                    break
                j = len(self.orbit)
                self.orbit.append((v.idx, k))
                combo = span.insert(orbit[v.idx] if v.idx < len(orbit) else {})
                if combo is not None:
                    relation = {n: -c for n, c in combo.items()}
                    relation[j] = 1
                    self.relations.append((degrees[q] + 2 * v.length, relation))

        self.expressions: list[Row] = []
        for q in range(dim):
            combo = span.coefficients({q: 1})
            if combo is None:  # pragma: no cover - internal self-check
                raise InternalConsistencyError("the generators do not span the module")
            self.expressions.append(combo)


def presentation(ring: CohRing, module: GradedModule) -> Presentation:
    """The module's presentation, computed once and kept on the module."""
    if module._presentation is None:
        module._presentation = Presentation(ring, module)
    return module._presentation


@functools.lru_cache(maxsize=1)
def _orbits(ring: CohRing, module: GradedModule) -> Orbits:
    """The module's orbits sigma_v e_q, each formed on first read; sigma_v
    e_q vanishes once 2 l(v) passes top degree - deg q.

    Only the last module's orbits are kept (both arguments hash by
    identity), so sweeps that solve many sources against one target should
    run target-major.
    """
    top = max(module.degrees)
    columns = [a.transpose().data for a in module.gens]
    return Orbits(ring, columns, [(top - d) // 2 for d in module.degrees])


def _act(orbits: Orbits, v: int, vector: Row) -> Row:
    """sigma_v (element index v) applied to a vector, from the orbits."""
    out: Row = {}
    for m, y in vector.items():
        orbit = orbits[m]
        if v < len(orbit):
            for p, a in orbit[v].items():
                out[p] = out.get(p, 0) + y * a
    return out


def graded_hom_basis(
    ring: CohRing, source: GradedModule, target: GradedModule, degree: int
) -> list[QMatrix]:
    """Basis of the degree-`degree` C-linear maps source -> target.

    Such a map is fixed by the images f(g_k) of the generators of the
    source's presentation, and it is well defined iff the images satisfy
    every relation.  So the unknowns are the f(g_k), each in the target's
    degree piece deg g_k + degree, and a relation sum c sigma_v g_k = 0
    gives the constraints sum c sigma_v f(g_k) = 0.

    The result is canonical: the RREF basis of the solution space over the
    matrix entries in the degree band, ordered row-major.
    """
    pres = presentation(ring, source)
    orbits = _orbits(ring, target)
    by_degree: dict[int, list[int]] = {}
    for p, d in enumerate(target.degrees):
        by_degree.setdefault(d, []).append(p)
    # per generator, the pairs (target basis index m, unknown index)
    unknowns: list[list[tuple[int, int]]] = []
    nvars = 0
    for d in pres.gen_degrees:
        piece = by_degree.get(d + degree, [])
        unknowns.append([(m, nvars + n) for n, m in enumerate(piece)])
        nvars += len(piece)
    if not nvars:
        return []

    rows: list[Row] = []
    for rel_degree, relation in pres.relations:
        if rel_degree + degree not in by_degree:
            continue  # the constraint lands in a zero piece of the target
        constraint: dict[int, Row] = {}
        for j, c in relation.items():
            v, k = pres.orbit[j]
            for m, u in unknowns[k]:
                orbit = orbits[m]
                if v >= len(orbit):
                    continue  # sigma_v e_m is zero
                for p, a in orbit[v].items():
                    cell = constraint.setdefault(p, {})
                    cell[u] = cell.get(u, 0) + c * a
        rows.extend(constraint[p] for p in sorted(constraint))

    kernel = nullspace_of_rows(rows, nvars)
    if not kernel:
        return []

    # flatten each solution over the matrix entries (p, q) of the degree band
    src_by_degree: dict[int, list[int]] = {}
    for q, d in enumerate(source.degrees):
        src_by_degree.setdefault(d, []).append(q)
    positions = [
        (p, q) for p in range(target.dim) for q in src_by_degree.get(target.degrees[p] - degree, [])
    ]
    index = {pq: n for n, pq in enumerate(positions)}
    flats = []
    for vec in kernel:
        gen_images = [{m: vec[u] for m, u in piece if u in vec} for piece in unknowns]
        orbit_images: dict[int, Row] = {}  # orbit index j -> sigma_v f(g_k)
        flat: Row = {}
        for q, expression in enumerate(pres.expressions):
            col: Row = {}
            for j, b in expression.items():
                if j not in orbit_images:
                    v, k = pres.orbit[j]
                    orbit_images[j] = _act(orbits, v, gen_images[k])
                for p, a in orbit_images[j].items():
                    col[p] = col.get(p, 0) + b * a
            flat.update((index[(p, q)], a) for p, a in col.items() if a)
        flats.append(flat)

    out = []
    for vec in canonical_basis(flats, len(positions)):
        grid: list[Row] = [{} for _ in range(target.dim)]
        for k, value in vec.items():
            p, q = positions[k]
            grid[p][q] = value
        out.append(QMatrix.from_rows(grid, source.dim))
    return out


def hom_degree0(ring: CohRing, source: GradedModule, target: GradedModule) -> list[QMatrix]:
    """Degree-0 maps commuting with the generator actions."""
    return graded_hom_basis(ring, source, target, 0)


class CoverNotSeparable(InternalConsistencyError):
    """Degree-0 maps could not cleanly locate the lower summands of a cover.

    Covers built from a single extension decompose into unshifted lower
    modules, so this never fires in `build_all`, where it also guards the
    filter that solves only for the summands a cover can have.  Full word
    modules of long elements, however, can contain grading-shifted copies
    of lower modules; degree-0 maps into those factor through
    positive-degree self-maps with kernels, which is exactly the
    dependence detected here.
    """


class ModuleFamily:
    """All V_w for one root system, keyed by element, built in length order.
    A family restored from the cache has no ring until a solve first reads
    `ring`, so a run that only prints the quiver never builds one."""

    def __init__(self, group: WeylGroup, ring: CohRing | None = None):
        self.group = group
        self._ring = ring
        self.modules: dict[int, GradedModule] = {}

    def __getitem__(self, w: WeylElement) -> GradedModule:
        return self.modules[w.idx]

    @property
    def ring(self) -> CohRing:
        if self._ring is None:
            self._ring = CohRing(self.group)
        return self._ring

    def graded_dims(self, w: WeylElement) -> dict[int, int]:
        return self.modules[w.idx].graded_dims()


def extract_top(
    ring: CohRing,
    module: GradedModule,
    built: dict[int, GradedModule],
    w: WeylElement,
    i: int | None = None,
) -> tuple[GradedModule, dict[int, int]]:
    """Peel the top summand V_w out of a module known to decompose as
    V_w plus copies of V_y for y < w.

    With `i`, the module is the cover extend(i, V_{w s_i}), whose lower
    summands are V_y with y s_i < y and y <= w s_i (Soergel, JAMS 1990: the
    KL product C'_s C'_{w s}), so only those y are solved for.  A summand
    missed that way would leave the quotient decomposable, which the final
    check below refuses.

    Returns the quotient module (basis grown from cyclic orbits, degrees
    inherited) together with the multiplicities n(y) of the lower summands,
    which `build_all` does not keep.
    """
    g = ring.group
    dim = module.dim
    below = w if i is None else g.right_mult(w, i)

    # Step 1: locate the span of the lower summands via degree-0 maps.
    lower_vectors: list[Row] = []
    multiplicities: dict[int, int] = {}
    for y in g.elements:
        if y.length >= w.length or (y.length - w.length) % 2 != 0:
            continue
        if i is not None and g.right_mult(y, i).length > y.length:
            continue
        if not g.bruhat_leq(y, below):
            continue
        maps = hom_degree0(ring, built[y.idx], module)
        if maps:
            multiplicities[y.idx] = len(maps)
            for f in maps:
                for q in range(built[y.idx].dim):
                    lower_vectors.append(f.col(q))

    span = RowSpan(dim)
    for v in lower_vectors:
        if not span.add(v):
            raise CoverNotSeparable(
                f"images of lower modules in the cover of {w} are dependent; "
                "the cover has grading-shifted lower summands (use a "
                "single-extension cover instead of the full word module)"
            )

    if not lower_vectors:
        # nothing to quotient by: the cover itself is V_w
        if len(hom_degree0(ring, module, module)) != 1:
            raise CoverNotSeparable(
                f"cover of {w} has no visible lower summands yet is decomposable"
            )
        return module, {}

    # Step 2: grow a complement basis from cyclic orbits of leftover vectors;
    # the cover's orbits are the memo's entry from the solves above.
    orbits = _orbits(ring, module)
    chosen: list[Row] = []
    for x_idx in range(dim):
        if span.rank == dim:
            break
        if span.contains({x_idx: 1}):
            continue
        for vec in orbits[x_idx]:
            if vec and span.add(vec):
                chosen.append(vec)
    if span.rank != dim:  # pragma: no cover - internal self-check
        raise InternalConsistencyError("orbit sweep failed to span the cover")

    # Step 3: generator actions on the quotient, by solving against (chosen |
    # lower) the image of each chosen vector, summed from the generator columns.
    solver = RowSpan(dim, track=True)
    for vec in chosen + lower_vectors:
        if not solver.add(vec):  # pragma: no cover - internal self-check
            raise InternalConsistencyError("chosen + lower is not a basis")
    new_dim = len(chosen)

    degrees = []
    for vec in chosen:
        degs = {module.degrees[k] for k in vec}
        if len(degs) != 1:  # pragma: no cover - internal self-check
            raise InternalConsistencyError("chosen basis vector is not homogeneous")
        degrees.append(degs.pop())

    gens = []
    for columns in orbits.columns:
        rows: list[Row] = [{} for _ in range(new_dim)]
        for j, cvec in enumerate(chosen):
            image: Row = {}
            for k, a in cvec.items():
                subtract_scaled(image, -a, columns[k])
            combo = solver.coefficients(image)
            if combo is None:  # pragma: no cover - internal self-check
                raise InternalConsistencyError("image escaped the cover")
            for src, coeff in combo.items():
                if src < new_dim:
                    rows[src][j] = coeff
        gens.append(QMatrix.from_rows(rows, new_dim))

    quotient = GradedModule(degrees, gens)
    if len(hom_degree0(ring, quotient, quotient)) != 1:
        raise CoverNotSeparable(
            f"extracted module for {w} is decomposable; the cover hid "
            "grading-shifted lower summands from the degree-0 solves"
        )
    return quotient, multiplicities


def build_all(ring: CohRing) -> ModuleFamily:
    """V_w for every w, ascending length, each extracted from the cover
    extend(i, V_{w s_i}) with i the last letter of the canonical reduced word."""
    g = ring.group
    family = ModuleFamily(g, ring)
    family.modules[0] = trivial_module(ring)
    for w in g.elements[1:]:
        i = w.word[-1]
        cover = extend(ring, i, family.modules[g.right_mult(w, i).idx])
        family.modules[w.idx] = extract_top(ring, cover, family.modules, w, i)[0]
    return family
