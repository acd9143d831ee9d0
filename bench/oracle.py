"""
Output checks of the benchmark, independent of the pipeline they check.

Expected counts come from the Kazhdan-Lusztig recursion in `oquiver.kl`,
which shares nothing with the module pipeline except the Weyl group:

- arrows y -> w number mu(y, w);
- relators of the ordered pair (y, w) number the coefficient of v^2 in
  sum_x h_{x,y} h_{x,w}, where h_{x,y}(v) = v^{l(y)-l(x)} P_{x,y}(v^{-2})
  (Beilinson-Ginzburg-Soergel, Koszul duality patterns, JAMS 1996);
- dim V_w is the IH Poincare polynomial of w at 1.

Linear algebra here (relator ranks, the A2 span comparison, evaluation of
relators on a representation) is the benchmark's own, over `Fraction`.
Every check raises `CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import importlib.util
import json
import re
from fractions import Fraction
from pathlib import Path

from oquiver import kl
from oquiver.rootsystem import build, generate_weyl, parse_type


class CheckFailed(AssertionError):
    pass


def need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def rref(vectors: list[list[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Reduced row echelon basis of the span, canonical for the subspace."""
    rows: list[list[Fraction]] = []
    pivots: list[int] = []
    for vec in vectors:
        v = list(vec)
        for row, p in zip(rows, pivots):
            if v[p]:
                c = v[p]
                v = [a - c * b for a, b in zip(v, row)]
        lead = next((k for k, a in enumerate(v) if a), None)
        if lead is None:
            continue
        c = v[lead]
        v = [a / c for a in v]
        for n, row in enumerate(rows):
            if row[lead]:
                d = row[lead]
                rows[n] = [a - d * b for a, b in zip(row, v)]
        rows.append(v)
        pivots.append(lead)
    order = sorted(range(len(rows)), key=lambda n: pivots[n])
    return [tuple(rows[n]) for n in order]


class Oracle:
    """KL expectations for one root system, keyed by element words."""

    def __init__(self, name: str):
        self.name = name
        self.group = generate_weyl(build(*parse_type(name)))
        self.table = kl.KLTable(self.group)
        g = self.group
        self.words = [str(w) for w in g.elements]
        self.length = {str(w): w.length for w in g.elements}
        self.dim = {str(w): kl.peval(self.table.ih_poincare(w)) for w in g.elements}
        self.mu: dict[tuple[str, str], int] = {}
        self.relators: dict[tuple[str, str], int] = {}
        for y in g.elements:
            for w in g.elements:
                m = self.table.mu(y, w)
                if m:
                    self.mu[(str(y), str(w))] = m
                r = self._hom2(y, w)
                if r:
                    self.relators[(str(y), str(w))] = r

    def _h(self, x, y) -> dict[int, int]:
        """h_{x,y} as {power of v: coefficient}."""
        gap = y.length - x.length
        return {gap - 2 * k: c for k, c in enumerate(self.table.polynomial(x, y)) if c}

    def _hom2(self, y, w) -> int:
        total = 0
        for x in self.group.elements:
            hy, hw = self._h(x, y), self._h(x, w)
            for a, ca in hy.items():
                cb = hw.get(2 - a)
                if cb:
                    total += ca * cb
        return total


# -- quiver documents -------------------------------------------------------------

#: classical A2 numbering used by tests/golden_a2.py (longest element = 1)
A2_APPENDIX = {1: "1.2.1", 2: "1.2", 3: "2.1", 4: "1", 5: "2", 6: "e"}


def golden_a2_relators(root: Path) -> dict[tuple[str, str], list[dict]]:
    """The classical A2 relator list, grouped per ordered pair of words."""
    spec = importlib.util.spec_from_file_location("golden_a2", root / "tests" / "golden_a2.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    grouped: dict[tuple[str, str], list[dict]] = {}
    for chunk in re.split(r",(?![^(]*\))", module.RELATORS_A2.replace("\n", " ")):
        terms = {}
        for sign, digits in re.findall(r"([+-]?)\s*\((\d{3})\)", chunk):
            y, z, w = (A2_APPENDIX[int(d)] for d in digits)
            terms[(y, 0, z, 0, w)] = Fraction(-1 if sign == "-" else 1)
        if terms:
            y, _, _, _, w = next(iter(terms))
            grouped.setdefault((y, w), []).append(terms)
    return grouped


def _span(combos: list[dict], keys: list) -> list[tuple[Fraction, ...]]:
    return rref([[c.get(k, Fraction(0)) for k in keys] for c in combos])


def check_quiver(oracle: Oracle, text: str, golden: dict | None = None) -> dict[tuple[str, str], list[dict]]:
    """Check one `quiver --format json` document; returns its relators per
    ordered pair of words, each as {(y, j, z, i, w): coeff}."""
    doc = json.loads(text)
    words = [v["word"] for v in doc["vertices"]]
    need(sorted(words) == sorted(oracle.words), f"{oracle.name}: vertices are not W")
    need(len(words) == len(oracle.words), f"{oracle.name}: {len(words)} vertices, |W| = {len(oracle.words)}")
    by_id = {v["id"]: v["word"] for v in doc["vertices"]}

    arrows: dict[tuple[str, str], list[int]] = {}
    for a in doc["arrows"]:
        arrows.setdefault((by_id[a["from"]], by_id[a["to"]]), []).append(a["index"])
    for pair in set(arrows) | set(oracle.mu):
        got = sorted(arrows.get(pair, []))
        need(got == list(range(oracle.mu.get(pair, 0))),
             f"{oracle.name}: arrows {pair[0]} -> {pair[1]} are {got}, mu = {oracle.mu.get(pair, 0)}")

    relators: dict[tuple[str, str], list[dict]] = {}
    for rel in doc["relations"]:
        y, w = by_id[rel["source"]], by_id[rel["target"]]
        terms = {}
        for t in rel["terms"]:
            a, j, b, i, c = t["path"]
            key = (by_id[a], j, by_id[b], i, by_id[c])
            need(key[0] == y and key[4] == w, f"{oracle.name}: relator path {key} leaves ({y}, {w})")
            need(j < oracle.mu.get((key[0], key[2]), 0) and i < oracle.mu.get((key[2], key[4]), 0),
                 f"{oracle.name}: relator path {key} uses a missing arrow")
            terms[key] = Fraction(t["coeff"])
        relators.setdefault((y, w), []).append(terms)
    for pair in set(relators) | set(oracle.relators):
        combos = relators.get(pair, [])
        expected = oracle.relators.get(pair, 0)
        need(len(combos) == expected,
             f"{oracle.name}: {len(combos)} relators on ({pair[0]}, {pair[1]}), KL says {expected}")
        keys = sorted({k for c in combos for k in c}, key=str)
        need(len(_span(combos, keys)) == len(combos),
             f"{oracle.name}: relators on ({pair[0]}, {pair[1]}) are dependent")

    if golden is not None:
        for pair in set(relators) | set(golden):
            mine, theirs = relators.get(pair, []), golden.get(pair, [])
            keys = sorted({k for c in mine + theirs for k in c}, key=str)
            need(_span(mine, keys) == _span(theirs, keys),
                 f"{oracle.name}: relator span on ({pair[0]}, {pair[1]}) differs from the classical list")

    return relators


def check_identical(name: str, reference: bytes, other: bytes, what: str) -> None:
    need(reference == other, f"{name}: {what} output differs from the reference bytes")


# -- IC-module documents ---------------------------------------------------------


def _matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[sum((a[r][k] * b[k][c] for k in range(len(b))), Fraction(0))
             for c in range(len(b[0]) if b else 0)] for r in range(len(a))]


def relators_annihilate(relators: dict, doc: dict) -> bool:
    """Whether every relator acts by zero on the document's boundary maps.

    `relators` maps (y, w) words to lists of {(y, j, z, i, w): coeff}.
    """
    stalks = doc["stalks"]
    maps = {}
    for entry in doc["boundary"]:
        maps[(entry["from"], entry["to"], entry["k"])] = [
            [Fraction(x) for x in row] for row in entry["matrix"]
        ]
    for (y, w), combos in relators.items():
        dy, dw = stalks.get(y, 0), stalks.get(w, 0)
        if not dy or not dw:
            continue
        for combo in combos:
            acc = [[Fraction(0)] * dy for _ in range(dw)]
            for (_, j, z, i, _), c in combo.items():
                first, second = maps.get((y, z, j)), maps.get((z, w, i))
                if first is None or second is None or not stalks.get(z, 0):
                    continue
                prod = _matmul(second, first)
                acc = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(acc, prod)]
            if any(x for row in acc for x in row):
                return False
    return True


def expected_euler(oracle: Oracle, doc: dict) -> int:
    """sum_w stalk_w (-1)^l(w) dim V_w, with dim V_w from the KL recursion."""
    return sum(d * (-1) ** oracle.length[w] * oracle.dim[w] for w, d in doc["stalks"].items())


def total_dim(oracle: Oracle, doc: dict) -> int:
    return sum(d * oracle.dim[w] for w, d in doc["stalks"].items())
