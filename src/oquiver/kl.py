"""
Kazhdan-Lusztig polynomials, mu coefficients and intersection-cohomology
Poincare polynomials, as an independent oracle.

The recursion computes the canonical basis element of the Hecke algebra in
T-basis coordinates: with s a left descent of w and v = s w,

    C'_w = C'_s C'_v  -  sum over z < v with s z < z of mu(z, v) C'_z,

where T_s T_y = T_{sy} for s y > y and T_s T_y = q T_{sy} + (q - 1) T_y
otherwise.  Tracking the vector of P_{y, w} directly keeps everything in
integer polynomials in q (no half powers survive because mu terms only
arise at odd length gaps).

This module shares nothing with the Schubert/module pipeline except the
Weyl group itself, so agreement between the two is a genuine cross-check
rather than a tautology.
"""

from __future__ import annotations

from .rootsystem import WeylElement, WeylGroup

Poly = tuple[int, ...]  # coefficients, ascending in q

ZERO_POLY: Poly = ()
ONE_POLY: Poly = (1,)


def pnormalize(a: list[int]) -> Poly:
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return pnormalize([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def pshift(a: Poly, k: int) -> Poly:
    """Multiply by q^k."""
    return ((0,) * k + a) if a else a


def pscale(a: Poly, c: int) -> Poly:
    return pnormalize([c * x for x in a]) if c else ZERO_POLY


def pcoeff(a: Poly, k: int) -> int:
    return a[k] if 0 <= k < len(a) else 0


def peval(a: Poly, x: int = 1) -> int:
    return sum(c * x**i for i, c in enumerate(a))


def pstr(a: Poly) -> str:
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            q = "q" if i == 1 else f"q^{i}"
            parts.append(q if c == 1 else f"{c}{q}")
    return " + ".join(parts)


class KLTable:
    """All P_{y, w} for one Weyl group, built bottom-up and memoized."""

    def __init__(self, group: WeylGroup):
        self.group = group
        # rows[w.idx] maps y.idx -> P_{y, w}; keys are exactly {y : y <= w}
        self.rows: list[dict[int, Poly]] = []
        self._build()

    def _build(self) -> None:
        g = self.group
        self.rows = [dict() for _ in g.elements]
        self.rows[0] = {0: ONE_POLY}
        for w in g.elements[1:]:
            s = w.word[0]
            v = g.left_mult(s, w)
            row_v = self.rows[v.idx]
            coeffs: dict[int, Poly] = {}

            def bump(yi: int, p: Poly) -> None:
                coeffs[yi] = padd(coeffs.get(yi, ZERO_POLY), p)

            for yi, p in row_v.items():
                sy = g.left_mult(s, g.elements[yi])
                if sy.length > g.elements[yi].length:
                    bump(sy.idx, p)
                    bump(yi, p)
                else:
                    bump(sy.idx, pshift(p, 1))
                    bump(yi, pshift(p, 1))
            for zi, pz in row_v.items():
                if zi == v.idx:
                    continue
                z = g.elements[zi]
                if g.left_mult(s, z).length >= z.length:
                    continue
                gap = v.length - z.length
                if gap % 2 == 0:
                    continue
                m = pcoeff(pz, (gap - 1) // 2)
                if not m:
                    continue
                shift = (w.length - z.length) // 2
                for yi, pzy in self.rows[zi].items():
                    bump(yi, pscale(pshift(pzy, shift), -m))

            row = {yi: p for yi, p in coeffs.items() if p}
            assert row[w.idx] == ONE_POLY
            for yi, p in row.items():
                if yi != w.idx:
                    bound = (w.length - g.elements[yi].length - 1) // 2
                    assert len(p) - 1 <= bound, "degree bound violated"
                assert p[0] == 1, "constant term must be 1"
            self.rows[w.idx] = row

    def polynomial(self, y: WeylElement, w: WeylElement) -> Poly:
        return self.rows[w.idx].get(y.idx, ZERO_POLY)

    def mu(self, y: WeylElement, w: WeylElement) -> int:
        """Top coefficient, symmetrized so mu(y, w) = mu(w, y)."""
        if y.length > w.length:
            y, w = w, y
        gap = w.length - y.length
        if gap <= 0 or gap % 2 == 0:
            return 0
        return pcoeff(self.polynomial(y, w), (gap - 1) // 2)

    def ih_poincare(self, w: WeylElement) -> Poly:
        """sum over y <= w of q^{l(y)} P_{y, w}(q)."""
        g = self.group
        total: Poly = ZERO_POLY
        for yi, p in self.rows[w.idx].items():
            total = padd(total, pshift(p, g.elements[yi].length))
        return total

    def ih_graded_dims(self, w: WeylElement) -> dict[int, int]:
        """Graded dimensions keyed by degree d in [-l(w), l(w)], parity l(w)."""
        poincare = self.ih_poincare(w)
        return {2 * k - w.length: c for k, c in enumerate(poincare) if c}


def _table(group: WeylGroup) -> KLTable:
    cached = getattr(group, "_kl_table", None)
    if cached is None:
        cached = KLTable(group)
        group._kl_table = cached
    return cached


def kl_polynomial(group: WeylGroup, y: WeylElement, w: WeylElement) -> Poly:
    """P_{y, w}, its coefficients ascending in q."""
    return _table(group).polynomial(y, w)


def mu(group: WeylGroup, y: WeylElement, w: WeylElement) -> int:
    return _table(group).mu(y, w)


def ih_poincare(group: WeylGroup, w: WeylElement) -> Poly:
    return _table(group).ih_poincare(w)


def ih_graded_dims(group: WeylGroup, w: WeylElement) -> dict[int, int]:
    return _table(group).ih_graded_dims(w)
