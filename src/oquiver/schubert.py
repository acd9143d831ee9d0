"""
The cohomology ring of the full flag variety in the Schubert basis.

Everything is generated from Chevalley's rule for multiplying by a
degree-one class:

    sigma_{s_i} . sigma_w
        = sum over positive alpha with l(w s_alpha) = l(w) + 1
          of  c_i(alpha) (alpha_i, alpha_i)/(alpha, alpha) . sigma_{w s_alpha}

where c_i(alpha) is the alpha_i coordinate of alpha; the scalar is exactly
the pairing of the i-th fundamental coweight with alpha.  Products of two
arbitrary Schubert classes are forced by generator products: each degree-k
class is expressed as a rational combination of sigma_{s_i} . sigma_{u'}
with l(u') = k - 1 (a triangular solve over the degree-k block).  These
expressions are kept, since they also carry the action of every class on a
module from the generator actions alone; the full multiplication table is
filled from them by iterated Chevalley steps, on first use.

A class is a `linalg.Row` over element indices: sigma_w has the entry 1 at
w.idx, and coefficients follow `linalg`'s number rule.

Grading note: degrees here are l(w), i.e. half the cohomological degree.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Row, RowSpan, exact, format_rational, subtract_scaled
from .rootsystem import WeylElement, WeylGroup


class InternalConsistencyError(RuntimeError):
    """A mathematically impossible situation; indicates a bug, not bad input."""


def class_str(group: WeylGroup, c: Row) -> str:
    """Render a class (a Row over element indices) like "σ[1.2] + 2 σ[2.1]";
    the unit class prints as "1"."""
    if not c:
        return "0"
    parts = []
    for idx in sorted(c):
        w, coeff = group.elements[idx], c[idx]
        term = "1" if w.length == 0 else f"σ[{w}]"
        if coeff == 1:
            parts.append(term)
        elif coeff == -1:
            parts.append(f"-{term}")
        else:
            parts.append(f"{format_rational(coeff)} {term}")
    return " + ".join(parts).replace("+ -", "- ")


class CohRing:
    """H*(G/B): Chevalley's rule, the generator expressions of every class,
    and (built on first use) the full multiplication table.

    Also carries, per simple reflection, the invariant-subalgebra basis
    {sigma_w : w s_i > w} and the change-of-basis data realizing
    C = sigma_{s_i} C^{s_i} (+) C^{s_i}.
    """

    def __init__(self, group: WeylGroup):
        self.group = group
        self.rootsystem = group.rootsystem
        self._chevalley_data = self._prepare_chevalley()
        self.expressions = self._solve_expressions()
        self._table: list[list[Row]] | None = None
        self._invariant: list[list[WeylElement]] = []
        self._split_spans: list[RowSpan] = []
        self._prepare_split()

    # -- Chevalley rule ----------------------------------------------------

    def _prepare_chevalley(self):
        rs = self.rootsystem
        g = self.group
        data = []
        for alpha in rs.positive_roots:
            s_alpha = g.reflection(alpha)
            norm = rs.inner(alpha, alpha)
            coeffs = []
            for i in range(rs.rank):
                ei = tuple(1 if k == i else 0 for k in range(rs.rank))
                coeffs.append(exact(alpha[i] * rs.inner(ei, ei) / norm))
            data.append((s_alpha, tuple(coeffs)))
        return data

    def chevalley_multiply(self, i: int, w: WeylElement) -> Row:
        """sigma_{s_i} . sigma_w straight from the Chevalley rule (i 1-based)."""
        g = self.group
        out: Row = {}
        for s_alpha, coeffs in self._chevalley_data:
            c = coeffs[i - 1]
            if not c:
                continue
            target = g.multiply(w, s_alpha)
            if target.length == w.length + 1:
                out[target.idx] = c  # distinct roots give distinct targets
        return out

    def chevalley_class(self, i: int, c: Row) -> Row:
        out: Row = {}
        for w, coeff in c.items():
            subtract_scaled(out, -coeff, self.chevalley_multiply(i, self.group.elements[w]))
        return out

    # -- generator expressions and the full multiplication table ------------

    def _solve_expressions(self) -> list[tuple[tuple[int, int, int | Fraction], ...]]:
        """Per element u (by index), terms (i, u'.idx, c) with
        sigma_u = sum c . sigma_{s_i} . sigma_{u'} and l(u') = l(u) - 1;
        the identity has no terms."""
        g = self.group
        n = len(g)
        expressions: list[tuple[tuple[int, int, int | Fraction], ...]] = [()] * n
        by_length: dict[int, list[WeylElement]] = {}
        for w in g.elements:
            by_length.setdefault(w.length, []).append(w)
        for k in range(1, g.longest.length + 1):
            sources: list[tuple[int, int]] = []  # (generator i, u'.idx)
            span = RowSpan(n, track=True)
            for u_prime in by_length[k - 1]:
                for i in range(1, self.rootsystem.rank + 1):
                    sources.append((i, u_prime.idx))
                    span.add(self.chevalley_multiply(i, u_prime))
            for u in by_length[k]:
                combo = span.coefficients({u.idx: 1})
                if combo is None:
                    raise InternalConsistencyError(
                        f"sigma_{u} not spanned by generator products in degree {k}"
                    )
                expressions[u.idx] = tuple(
                    (*sources[src], coeff) for src, coeff in combo.items()
                )
        return expressions

    def _full_table(self) -> list[list[Row]]:
        if self._table is None:
            n = len(self.group)
            table = [[{v: 1} for v in range(n)]]  # unit row
            for u in range(1, n):
                row = []
                for v in range(n):
                    acc: Row = {}
                    for i, up_idx, coeff in self.expressions[u]:
                        subtract_scaled(acc, -coeff, self.chevalley_class(i, table[up_idx][v]))
                    row.append(acc)
                table.append(row)
            self._table = table
        return self._table

    def multiply_basis(self, u: WeylElement, v: WeylElement) -> Row:
        return dict(self._full_table()[u.idx][v.idx])

    def multiply(self, a: Row, b: Row) -> Row:
        table = self._full_table()
        out: Row = {}
        for u, cu in a.items():
            for v, cv in b.items():
                subtract_scaled(out, -cu * cv, table[u][v])
        return out

    # -- invariants of a simple reflection and the splitting ---------------

    def _prepare_split(self) -> None:
        g = self.group
        n = len(g)
        for i in range(1, self.rootsystem.rank + 1):
            inv = [w for w in g.elements if g.right_mult(w, i).length > w.length]
            if 2 * len(inv) != n:  # pragma: no cover - internal self-check
                raise InternalConsistencyError("invariant basis is not half the group")
            span = RowSpan(n, track=True)
            for w in inv:
                span.add({w.idx: 1})
            for w in inv:
                span.add(self.chevalley_multiply(i, w))
            if span.rank != n:  # pragma: no cover - internal self-check
                raise InternalConsistencyError(
                    f"sigma_{i} C^s + C^s does not span C for i={i}"
                )
            self._invariant.append(inv)
            self._split_spans.append(span)

    def invariant_basis(self, i: int) -> list[WeylElement]:
        """{w : w s_i > w}, the Schubert support of C^{s_i} (i 1-based)."""
        return list(self._invariant[i - 1])

    def split(self, i: int, c: Row) -> tuple[Row, Row]:
        """Unique x, y with c = x + sigma_{s_i} y and x, y in C^{s_i}."""
        inv = self._invariant[i - 1]
        combo = self._split_spans[i - 1].coefficients(c)
        if combo is None:  # pragma: no cover - internal self-check
            raise InternalConsistencyError("split solve failed on a full basis")
        m = len(inv)
        x: Row = {}
        y: Row = {}
        for src, coeff in combo.items():
            if src < m:
                x[inv[src].idx] = coeff
            else:
                y[inv[src - m].idx] = coeff
        return x, y

    # -- presentation ----------------------------------------------------

    def generator_table(self) -> list[tuple[WeylElement, list[Row]]]:
        """Rows sigma_w, columns sigma_{s_1} ... sigma_{s_r}."""
        return [
            (w, [self.chevalley_multiply(i, w) for i in range(1, self.rootsystem.rank + 1)])
            for w in self.group.elements
        ]


def build_ring(group: WeylGroup) -> CohRing:
    return CohRing(group)
