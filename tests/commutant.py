"""
Reference Hom solve for the tests: the commutant over the whole degree band.

A degree-`degree` map is a matrix X supported on the entries (p, q) with
deg p = deg q + degree, and it is C-linear iff a X = X a for every
generator action a.  Every entry of the band is an unknown, which makes
this solve slow but independent of any presentation of the source.  The
result is the RREF basis over the band entries, ordered row-major, the
same canonical form `oquiver.soergel.graded_hom_basis` returns.
"""

from __future__ import annotations

from fractions import Fraction

from oquiver.linalg import QMatrix, Row, canonical_basis, nullspace_of_rows
from oquiver.soergel import GradedModule


def commutant_hom_basis(source: GradedModule, target: GradedModule, degree: int) -> list[QMatrix]:
    positions = [
        (p, q)
        for p in range(target.dim)
        for q in range(source.dim)
        if target.degrees[p] == source.degrees[q] + degree
    ]
    if not positions:
        return []
    nvars = len(positions)
    # one Row over the unknowns per entry (p, q) of a_target X - X a_source
    rows: list[Row] = []
    for a_target, a_source in zip(target.gens, source.gens):
        target_cols = a_target.transpose().data
        constraint: dict[tuple[int, int], Row] = {}
        for k, (m, q) in enumerate(positions):
            for p, a in target_cols[m].items():
                cell = constraint.setdefault((p, q), {})
                cell[k] = cell.get(k, Fraction(0)) + a
        for k, (p, m) in enumerate(positions):
            for q, a in a_source.data[m].items():
                cell = constraint.setdefault((p, q), {})
                cell[k] = cell.get(k, Fraction(0)) - a
        for key in sorted(constraint):
            p, q = key
            # sanity: constraints live in the degree + 2 band
            assert target.degrees[p] == source.degrees[q] + degree + 2
            rows.append(constraint[key])

    kernel = nullspace_of_rows(rows, nvars)
    out = []
    for vec in canonical_basis(kernel, nvars):
        grid: list[Row] = [{} for _ in range(target.dim)]
        for k, value in vec.items():
            p, q = positions[k]
            grid[p][q] = value
        out.append(QMatrix.from_rows(grid, source.dim))
    return out
