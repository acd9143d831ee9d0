"""
The cohomology ring of the full flag variety in the Schubert basis.

Everything is generated from Chevalley's rule for multiplying by a
degree-one class:

    sigma_{s_i} . sigma_w
        = sum over positive alpha with l(w s_alpha) = l(w) + 1
          of  c_i(alpha) (alpha_i, alpha_i)/(alpha, alpha) . sigma_{w s_alpha}

where c_i(alpha) is the alpha_i coordinate of alpha; the scalar is exactly
the pairing of the i-th fundamental coweight with alpha.  Every other class
acts on a module through its generator expression: each degree-k class is
a rational combination of sigma_{s_i} . sigma_{u'} with l(u') = k - 1 (a
triangular solve over the degree-k block).  That recursion turns
generator matrices into the action of every sigma_v, row by row in
`CohRing.action_rows`, or into the orbit sigma_v e_q of one basis vector
in `Orbits`.  C is a module over itself, so the multiplication table is
the orbits of the regular module, whose generator columns are Chevalley's
rule.

A class is a `linalg.Row` over element indices: sigma_w has the entry 1 at
w.idx, and coefficients follow `linalg`'s number rule.

Grading note: degrees here are l(w), i.e. half the cohomological degree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .linalg import Row, RowSpan, divide, exact, format_rational, subtract_scaled
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
    the action they give on any module, and (built on first use) the full
    multiplication table as that action on C itself.

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

    def action_rows(self, gens: Sequence[Sequence[Row]], top: int | None = None) -> Iterator[list[Row]]:
        """The rows of sigma_v on a module for every v in element order, up
        to length `top` (all of W when None), from the rows of the generator
        matrices alone through the expressions sigma_u = sum c . sigma_{s_i}
        . sigma_{u'}.

        The recursion runs over the integers.  With d_c and d_g clearing the
        denominators of the expression coefficients and of the generator
        matrices, S_u = (d_c d_g)^l(u) sigma_u is integral and
        S_u = sum (d_c c) (d_g sigma_{s_i}) S_{u'}: row r of S_u sums the rows
        of S_{u'} against row r of d_g sigma_{s_i}.  S_u is divided by its
        scale only when that scale is not 1.  :class:`Orbits` runs the same
        recursion on one basis vector at a time.
        """
        dim = len(gens[0])
        elements = [u for u in self.group.elements if top is None or u.length <= top]
        terms = [self.expressions[u.idx] for u in elements]
        d_coeff = _common_denominator(c for expr in terms for _, _, c in expr)
        d_gen = _common_denominator(v for a in gens for vector in a for v in vector.values())
        int_gens = [_scaled(a, d_gen) for a in gens]
        scaled = [[{j: 1} for j in range(dim)]]
        yield scaled[0]
        for u, expr in zip(elements[1:], terms[1:]):
            acc: list[dict[int, int]] = [{} for _ in range(dim)]
            for i, up_idx, coeff in expr:
                c = coeff.numerator * (d_coeff // coeff.denominator)
                # row x of c G S: sum over k of c G[x][k] S[k]
                for vector, target in zip(int_gens[i - 1], acc):
                    for k, a in vector.items():
                        ca = c * a
                        for j, b in scaled[up_idx][k].items():
                            target[j] = target.get(j, 0) + ca * b
            # drop the entries that cancelled
            acc = [{j: v for j, v in row.items() if v} if 0 in row.values() else row for row in acc]
            scaled.append(acc)
            denominator = (d_coeff * d_gen) ** u.length
            if denominator == 1:
                yield acc
            else:
                yield [{j: divide(v, denominator) for j, v in row.items()} for row in acc]

    def _full_table(self) -> list[list[Row]]:
        """table[u][v] = sigma_v . sigma_u: the orbit of sigma_u in C itself,
        whose generator columns are Chevalley's rule, padded with zeros."""
        if self._table is None:
            g = self.group
            columns = [
                [self.chevalley_multiply(i, w) for w in g.elements]
                for i in range(1, self.rootsystem.rank + 1)
            ]
            orbits = Orbits(self, columns, [g.longest.length - w.length for w in g.elements])
            n = len(g)
            self._table = [orbits[u] + [{}] * (n - len(orbits[u])) for u in range(n)]
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


class Orbits(dict):
    """The orbit vectors sigma_v e_q of one module, each orbit formed when it
    is first read: `orbits[q][v]` is sigma_v e_q for the element index v,
    and the list stops at the length `tops[q]` past which sigma_v e_q
    vanishes (a longer v gives zero).  `columns` holds the columns of the
    module's generator matrices.

    An orbit runs the integer recursion of :meth:`CohRing.action_rows` on
    the one vector e_q: S_u e_q = sum (d_c c) (d_g sigma_{s_i}) S_{u'} e_q,
    with d_c taken over the expressions up to the longest top, so each
    vector is column q of the matrix that recursion gives, entry for entry.
    """

    __slots__ = ("columns", "_tops", "_terms", "_gens", "_scales")

    def __init__(self, ring: CohRing, columns: Sequence[Sequence[Row]], tops: Sequence[int]):
        self.columns = columns
        self._tops = tops
        elements = [u for u in ring.group.elements if u.length <= max(tops)]
        expressions = [ring.expressions[u.idx] for u in elements]
        d_coeff = _common_denominator(c for expr in expressions for _, _, c in expr)
        d_gen = _common_denominator(v for a in columns for vector in a for v in vector.values())
        # per element: its length and terms (generator, u'.idx, d_c c)
        self._terms = [
            (u.length, [(i - 1, up_idx, c.numerator * (d_coeff // c.denominator)) for i, up_idx, c in expr])
            for u, expr in zip(elements, expressions)
        ]
        self._gens = columns if d_gen == 1 else [_scaled(a, d_gen) for a in columns]
        self._scales = [(d_coeff * d_gen) ** k for k in range(max(tops) + 1)]

    def __missing__(self, q: int) -> list[Row]:
        top = self._tops[q]
        gens = self._gens
        scaled: list[dict[int, int]] = [{q: 1}]
        orbit: list[Row] = [{q: 1}]
        for length, terms in self._terms[1:]:
            if length > top:
                break
            acc: dict[int, int] = {}
            for i, up_idx, c in terms:
                gen = gens[i]
                for k, a in scaled[up_idx].items():
                    ca = c * a
                    for j, b in gen[k].items():
                        acc[j] = acc.get(j, 0) + ca * b
            if 0 in acc.values():  # drop the entries that cancelled
                acc = {j: v for j, v in acc.items() if v}
            scaled.append(acc)
            denominator = self._scales[length]
            orbit.append(acc if denominator == 1 else {j: divide(v, denominator) for j, v in acc.items()})
        self[q] = orbit
        return orbit


def _common_denominator(values: Iterable[int | Fraction]) -> int:
    return math.lcm(1, *{v.denominator for v in values})


def _scaled(rows: Iterable[Row], d: int) -> list[dict[int, int]]:
    """d times each Row, as integers; d must clear every denominator."""
    return [{j: v.numerator * (d // v.denominator) for j, v in row.items()} for row in rows]


def build_ring(group: WeylGroup) -> CohRing:
    return CohRing(group)
