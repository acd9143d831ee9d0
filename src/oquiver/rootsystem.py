"""
Root systems and Weyl groups: Cartan data, positive roots, exact inner
products, BFS generation, lengths, Bruhat order and reduced words.

Conventions.  Roots live in simple-root coordinates.  The Cartan matrix is
``cartan[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i)``, so the simple
reflection acts by ``s_i(alpha_j) = alpha_j - cartan[i][j] alpha_i``.  The
symmetrizer ``d_i = (alpha_i, alpha_i) / 2`` makes ``d_i * cartan[i][j]``
the exact inner product ``(alpha_i, alpha_j)``.

Group elements are canonically represented by their integer action matrix
on simple-root coordinates (column j = image of alpha_j); reduced words are
derived data, not the identity of an element.  Generator indices are
1-based throughout the public surface, matching the usual s_1 ... s_r.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

ActionMatrix = tuple[tuple[int, ...], ...]
RootVec = tuple[int, ...]


class InvalidRootSystem(ValueError):
    """Unknown or unsupported (type, rank) combination."""


class GroupTooLarge(ValueError):
    """Weyl group order exceeds the supported desk-scale bound."""


class MixedGroups(ValueError):
    """Operands belong to different Weyl groups."""


#: hard bound on |W|; keeps E-series monsters out without hardcoding types
MAX_GROUP_ORDER = 50000

#: per type label, the ranks the type has and the rule naming them
_RANKS = {
    "A": (lambda n: n >= 1, "A_n needs n >= 1"),
    "B": (lambda n: n >= 2, "B_n needs n >= 2"),
    "C": (lambda n: n >= 3, "C_n needs n >= 3"),
    "D": (lambda n: n >= 4, "D_n needs n >= 4"),
    "E": (lambda n: n in (6, 7, 8), "E_n needs n in {6, 7, 8}"),
    "F": (lambda n: n == 4, "F_n needs n = 4"),
    "G": (lambda n: n == 2, "G_n needs n = 2"),
}


def weyl_order(label: str, rank: int) -> int:
    """|W| from the classical order formulas, per type."""
    if label == "A":
        return math.factorial(rank + 1)
    if label in ("B", "C"):
        return 2**rank * math.factorial(rank)
    if label == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    if label == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[rank]
    if label == "F":
        return 1152
    if label == "G":
        return 12
    raise InvalidRootSystem(label)


def check_type(label: str, rank: int) -> None:
    """Refuse an unknown type or a Weyl group above MAX_GROUP_ORDER from
    (label, rank) alone; |W| >= 2^rank, so a long rank's order is not computed."""
    if label not in _RANKS:
        raise InvalidRootSystem(f"unknown type label {label!r}")
    allowed, rule = _RANKS[label]
    if not allowed(rank):
        raise InvalidRootSystem(rule)
    order = weyl_order(label, rank) if rank < MAX_GROUP_ORDER.bit_length() else None
    if order is None or order > MAX_GROUP_ORDER:
        shown = f"= {order}" if order else f">= 2^{rank}"
        raise GroupTooLarge(f"|W({label}{rank})| {shown} exceeds the supported bound {MAX_GROUP_ORDER}")


def _cartan_and_symmetrizer(label: str, rank: int) -> tuple[list[list[int]], list[Fraction]]:
    """Cartan matrix and d_i for a simple type that `check_type` accepts
    (Bourbaki numbering)."""
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    d = [Fraction(1)] * n
    if label in "ABCD":  # a chain, closed off by the last node outside A
        for i in range(n - 1 if label == "A" else n - 2):
            bond(i, i + 1)
    if label == "B":
        bond(n - 2, n - 1, -1, -2)  # alpha_n short
        d[-1] = Fraction(1, 2)
    elif label == "C":
        bond(n - 2, n - 1, -2, -1)  # alpha_n long
        d[-1] = Fraction(2)
    elif label == "D":
        bond(n - 3, n - 1)  # fork
    elif label == "E":
        for i, j in [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]:
            if j < n:
                bond(i, j)
    elif label == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)  # alpha_3, alpha_4 short
        bond(2, 3)
        d = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    elif label == "G":
        bond(0, 1, -3, -1)  # alpha_1 short, alpha_2 long
        d = [Fraction(1), Fraction(3)]
    return a, d


class RootSystem:
    """Cartan data plus the positive roots, with exact inner products."""

    __slots__ = ("type_label", "rank", "cartan", "symmetrizer", "positive_roots", "_root_index")

    def __init__(self, type_label: str, rank: int, cartan, symmetrizer, positive_roots):
        self.type_label = type_label
        self.rank = rank
        self.cartan: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in cartan)
        self.symmetrizer: tuple[Fraction, ...] = tuple(symmetrizer)
        self.positive_roots: tuple[RootVec, ...] = tuple(tuple(v) for v in positive_roots)
        self._root_index = {v: k for k, v in enumerate(self.positive_roots)}

    @property
    def name(self) -> str:
        return f"{self.type_label}{self.rank}"

    def inner(self, u: Sequence[int], v: Sequence[int]) -> Fraction:
        """Exact inner product of two vectors in simple-root coordinates."""
        total = Fraction(0)
        for i, ui in enumerate(u):
            if not ui:
                continue
            di = self.symmetrizer[i]
            row = self.cartan[i]
            for j, vj in enumerate(v):
                if vj:
                    total += ui * vj * di * row[j]
        return total

    def simple_reflection_matrix(self, i: int) -> ActionMatrix:
        """Action of s_i (0-based) on simple-root coordinates."""
        n = self.rank
        rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for c in range(n):
            rows[i][c] -= self.cartan[i][c]
        return tuple(tuple(r) for r in rows)

    def reflection_matrix(self, root: Sequence[int]) -> ActionMatrix:
        """Action of s_alpha for any root alpha (not necessarily simple)."""
        root = tuple(root)
        if root not in self._root_index:
            raise InvalidRootSystem(f"{root} is not a positive root of {self.name}")
        norm = self.inner(root, root)
        n = self.rank
        cols = []
        for j in range(n):
            ej = tuple(1 if k == j else 0 for k in range(n))
            c = 2 * self.inner(root, ej) / norm
            if c.denominator != 1:
                raise InvalidRootSystem("non-integral coroot pairing")  # pragma: no cover
            cols.append([(1 if k == j else 0) - c.numerator * root[k] for k in range(n)])
        return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _positive_root_closure(cartan: Sequence[Sequence[int]]) -> list[RootVec]:
    """All positive roots by reflection closure from the simple roots."""
    n = len(cartan)
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for v in frontier:
            for i in range(n):
                pairing = sum(cartan[i][j] * v[j] for j in range(n))
                w = tuple(v[k] - (pairing if k == i else 0) for k in range(n))
                if all(x >= 0 for x in w) and w not in roots:
                    roots.add(w)
                    new.append(w)
        frontier = new
    return sorted(roots, key=lambda v: (sum(v), v))


def parse_type(text: str) -> tuple[str, int]:
    """Parse "A2", "b2", "G 2" into (label, rank)."""
    match = re.fullmatch(r"([A-G])0*([0-9]+)", text.strip().replace(" ", "").replace("_", "").upper())
    if match is None:
        raise InvalidRootSystem(f"cannot parse root system type {text!r}")
    label, digits = match.groups()
    if len(digits) > 9:
        # |W| >= 2^rank is past every bound; int() of a long digit string is slow or refused
        if label in "EFG":
            raise InvalidRootSystem(_RANKS[label][1])
        raise GroupTooLarge(f"|W({label}n)| for a {len(digits)}-digit n exceeds the supported bound {MAX_GROUP_ORDER}")
    return label, int(digits)


def build(type_label: str, rank: int | None = None) -> RootSystem:
    """Validated root system for a simple type, e.g. build("A", 2) or build("A2").

    The type and the |W| bound are checked before any root data is built.
    """
    if rank is None:
        type_label, rank = parse_type(type_label)
    label = type_label.strip().upper()
    check_type(label, rank)
    cartan, d = _cartan_and_symmetrizer(label, rank)
    roots = _positive_root_closure(cartan)
    return RootSystem(label, rank, cartan, d, roots)


class WeylElement:
    """A Weyl group element: integer action matrix, cached length, word and name.

    `word` is the lexicographically least reduced word, as 1-based generator
    indices, and `name` is that word dot-separated ("1.2.1"), "e" for the
    identity: the string `str(w)` returns, formed once when the group is
    generated.  Elements are interned by their group; equality checks the
    action matrix and refuses cross-group comparisons.
    """

    __slots__ = ("group", "action", "length", "word", "name", "idx", "_hash")

    def __init__(self, group: "WeylGroup", action: ActionMatrix, length: int, word: tuple[int, ...], idx: int):
        self.group = group
        self.action = action
        self.length = length
        self.word = word
        self.name = ".".join(map(str, word)) if word else "e"
        self.idx = idx
        self._hash = hash(action)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.group is not other.group:
            raise MixedGroups("elements of different root systems")
        return self.action == other.action

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return self.group.multiply(self, other)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<{self.group.rootsystem.name} {self.name}>"


class WeylGroup:
    """A finite Weyl group, generated once and then immutable.

    Elements sit in canonical order: by length, then by lexicographically
    least reduced word.  All multiplication goes through precomputed index
    tables, so group operations never touch matrices after generation.
    """

    def __init__(self, rootsystem: RootSystem):
        self.rootsystem = rootsystem
        check_type(rootsystem.type_label, rootsystem.rank)
        order = weyl_order(rootsystem.type_label, rootsystem.rank)
        self._generate()
        if len(self.elements) != order:
            raise InvalidRootSystem(  # pragma: no cover - internal self-check
                f"BFS closure produced {len(self.elements)} elements, expected {order}"
            )
        self._bruhat_memo: dict[tuple[int, int], bool] = {}

    # -- generation -------------------------------------------------------

    def _generate(self) -> None:
        """BFS by length layers, each product formed once: the right
        products `m s_i` of every element feed the BFS and the right table,
        the left products `s_i m` the reduced words and the left table.
        `m s_i` subtracts column i of `m` times row i of the Cartan matrix,
        and `s_i m` changes only row i of `m`."""
        cartan = self.rootsystem.cartan
        n = len(cartan)
        bonds = [[(k, c) for k, c in enumerate(row) if c] for row in cartan]
        identity = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))

        def right_products(m: ActionMatrix) -> list[ActionMatrix]:
            return [
                tuple(tuple(x - r[i] * c for x, c in zip(r, cartan[i])) if r[i] else r for r in m)
                for i in range(n)
            ]

        def left_products(m: ActionMatrix) -> list[ActionMatrix]:
            return [
                m[:i] + (tuple(m[i][c] - sum(a * m[k][c] for k, a in bonds[i]) for c in range(n)),) + m[i + 1 :]
                for i in range(n)
            ]

        layer_of: dict[ActionMatrix, int] = {identity: 0}
        right: dict[ActionMatrix, list[ActionMatrix]] = {}
        layers: list[list[ActionMatrix]] = [[identity]]
        while layers[-1]:
            nxt = []
            for m in layers[-1]:
                right[m] = products = right_products(m)
                for prod in products:  # a descent's product lies in an earlier layer
                    if prod not in layer_of:
                        layer_of[prod] = len(layers)
                        nxt.append(prod)
            layers.append(nxt)
        layers.pop()

        # Lex-least reduced words by greedy smallest left descent.
        left = {m: left_products(m) for m in layer_of}
        words: dict[ActionMatrix, tuple[int, ...]] = {identity: ()}
        for length in range(1, len(layers)):
            for m in layers[length]:
                i = next(i for i, prev in enumerate(left[m]) if layer_of[prev] == length - 1)
                words[m] = (i + 1,) + words[left[m][i]]

        ordered = sorted(layer_of, key=lambda m: (layer_of[m], words[m]))
        self.elements: list[WeylElement] = [
            WeylElement(self, m, layer_of[m], words[m], k) for k, m in enumerate(ordered)
        ]
        self.index: dict[ActionMatrix, int] = {m: k for k, m in enumerate(ordered)}
        #: canonical element name -> element, the names `str(w)` writes
        self.by_name: dict[str, WeylElement] = {w.name: w for w in self.elements}
        index = self.index
        self._right: list[list[int]] = [[index[p] for p in right[m]] for m in ordered]
        self._left: list[list[int]] = [[index[p] for p in left[m]] for m in ordered]
        self.generators: list[WeylElement] = [self.elements[k] for k in self._right[0]]

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    @property
    def longest(self) -> WeylElement:
        return self.elements[-1]

    def simple(self, i: int) -> WeylElement:
        """Generator s_i, 1-based."""
        return self.generators[i - 1]

    def _own(self, w: WeylElement) -> WeylElement:
        if w.group is not self:
            raise MixedGroups("element from a different Weyl group")
        return w

    def right_mult(self, w: WeylElement, i: int) -> WeylElement:
        return self.elements[self._right[self._own(w).idx][i - 1]]

    def left_mult(self, i: int, w: WeylElement) -> WeylElement:
        return self.elements[self._left[self._own(w).idx][i - 1]]

    def multiply(self, w1: WeylElement, w2: WeylElement) -> WeylElement:
        self._own(w1)
        self._own(w2)
        k = w1.idx
        for i in w2.word:
            k = self._right[k][i - 1]
        return self.elements[k]

    def evaluate(self, word: Iterable[int]) -> WeylElement:
        """Product s_{i1} ... s_{il} of a (not necessarily reduced) word."""
        k = 0
        for i in word:
            if not 1 <= i <= self.rootsystem.rank:
                raise InvalidRootSystem(f"generator index {i} out of range")
            k = self._right[k][i - 1]
        return self.elements[k]

    def parse(self, text: str) -> WeylElement:
        """Accepts "e" or dot-separated generator indices like "1.2.1"; a
        canonical name is looked up, any other word is evaluated."""
        t = text.strip()
        w = self.by_name.get(t)
        if w is not None:
            return w
        if t == "":
            return self.identity
        try:
            word = [int(p) for p in t.split(".")]
        except ValueError:
            raise InvalidRootSystem(f"cannot parse element {text!r}") from None
        return self.evaluate(word)

    def reflection(self, root: Sequence[int]) -> WeylElement:
        """The reflection s_alpha for a positive root alpha."""
        m = self.rootsystem.reflection_matrix(root)
        return self.elements[self.index[m]]

    def bruhat_leq(self, y: WeylElement, w: WeylElement) -> bool:
        """Bruhat order via the descent-lifting recursion."""
        self._own(y)
        self._own(w)

        def go(yi: int, wi: int) -> bool:
            if yi == wi:
                return True
            ye, we = self.elements[yi], self.elements[wi]
            if ye.length >= we.length:
                return False
            key = (yi, wi)
            cached = self._bruhat_memo.get(key)
            if cached is not None:
                return cached
            s = we.word[0]  # a left descent of w
            swi = self._left[wi][s - 1]
            syi = self._left[yi][s - 1]
            if self.elements[syi].length < ye.length:
                result = go(syi, swi)
            else:
                result = go(yi, swi)
            self._bruhat_memo[key] = result
            return result

        return go(y.idx, w.idx)


def generate_weyl(rs: RootSystem) -> WeylGroup:
    """Generate the full Weyl group of a root system (BFS closure)."""
    return WeylGroup(rs)
