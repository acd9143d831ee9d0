"""
Reference IC-module operations for the tests: the direct forms that
`oquiver.icmod` computes faster.

- `kron` is the Kronecker product of two matrices, and `kron_differential`
  assembles d block by block as the sum over the terms (k, B) of a pair of
  the Kronecker products A_k (x) B.
- `squares_to_zero` forms the whole product d*d.
- `reference_cohomology` ranks each degree piece of that d by its RREF
  (`RowSpan`), with Fractions.
- `reference_dual` re-expresses the transpose of each boundary term in the
  Hom^1 basis with one solve per term, A_k^T phi_y = sum c_j phi_w B_j,
  against the self-duality pairings phi.
"""

from __future__ import annotations

from oquiver import icmod
from oquiver.icmod import ICModule
from oquiver.linalg import QMatrix, Row, RowSpan, exact_row, in_span
from oquiver.quiver import Quiver


def kron(a: QMatrix, b: QMatrix) -> QMatrix:
    """Kronecker product; block (i, k) of the result is a[i, k] * b."""
    w = b.cols
    return QMatrix.from_rows(
        (
            exact_row({k * w + u: x * y for k, x in row.items() for u, y in brow.items()})
            for row in a.data
            for brow in b.data
        ),
        a.cols * w,
    )


def kron_differential(q: Quiver, m: ICModule) -> QMatrix:
    offsets, _, total = icmod._total_layout(q, m)
    rows: list[Row] = [{} for _ in range(total)]
    for (y, w), terms in m.boundary.items():
        if y not in offsets or w not in offsets:
            continue
        block = None
        for k, stalk_map in terms:
            piece = kron(q.hom1[(y, w)][k], stalk_map)
            block = piece if block is None else block + piece
        for r, c, value in block.nonzero_items():
            rows[offsets[w] + r][offsets[y] + c] = value
    return QMatrix.from_rows(rows, total)


def squares_to_zero(d: QMatrix) -> bool:
    return (d * d).is_zero()


def reference_cohomology(q: Quiver, m: ICModule) -> dict[int, int]:
    """dim H^n = dim C^n - rank(d from n) - rank(d into n), over kron_differential."""
    d = kron_differential(q, m)
    _, degrees, _ = icmod._total_layout(q, m)

    def rank_from(n: int) -> int:
        span = RowSpan(d.cols)
        for r, row in enumerate(d.data):
            if degrees[r] == n + 1:
                span.add(row)
        return span.rank

    out = {}
    for n in sorted(set(degrees)):
        h = degrees.count(n) - rank_from(n) - rank_from(n - 1)
        if h:
            out[n] = h
    return out


def reference_dual(q: Quiver, m: ICModule) -> ICModule:
    isos, _ = icmod._duality(q)
    boundary: dict[tuple[int, int], list[tuple[int, QMatrix]]] = {}
    for (w, y), terms in m.boundary.items():
        basis = q.hom1[(y, w)]
        size = basis[0].rows * basis[0].cols
        basis_rows = [icmod._entries(isos[w] * b) for b in basis]
        dual_terms: dict[int, QMatrix] = {}
        for k, stalk_map in terms:
            transported = q.hom1[(w, y)][k].transpose() * isos[y]
            ok, coeffs = in_span(icmod._entries(transported), basis_rows, size)
            assert ok, "transposed boundary left Hom^1"
            for j, coeff in coeffs.items():
                piece = stalk_map.transpose().scale(coeff)
                dual_terms[j] = dual_terms[j] + piece if j in dual_terms else piece
        boundary[(y, w)] = sorted(dual_terms.items())
    return ICModule(dict(m.stalks), boundary)
