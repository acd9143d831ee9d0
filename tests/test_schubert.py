import random
from fractions import Fraction

import pytest

from oquiver.linalg import subtract_scaled
from oquiver.rootsystem import build, generate_weyl
from oquiver.schubert import build_ring, class_str


@pytest.fixture(scope="module")
def a2():
    g = generate_weyl(build("A2"))
    return g, build_ring(g)


def cls(g, *words):
    """The sum of the Schubert classes of the given words, as a Row."""
    return {g.parse(word).idx: 1 for word in words}


def test_chevalley_examples(a2):
    g, ring = a2
    s1 = g.parse("1")
    assert ring.chevalley_multiply(1, s1) == cls(g, "2.1")
    assert ring.chevalley_multiply(2, s1) == cls(g, "2.1", "1.2")
    assert ring.chevalley_multiply(1, g.parse("1.2.1")) == {}


def test_full_a2_generator_table(a2):
    # the complete sigma_w x {sigma_1, sigma_2} table
    g, ring = a2
    zero = {}
    expected = {
        ("e", 1): cls(g, "1"),
        ("e", 2): cls(g, "2"),
        ("1", 1): cls(g, "2.1"),
        ("1", 2): cls(g, "2.1", "1.2"),
        ("2", 1): cls(g, "2.1", "1.2"),
        ("2", 2): cls(g, "1.2"),
        ("1.2", 1): cls(g, "1.2.1"),
        ("1.2", 2): zero,
        ("2.1", 1): zero,
        ("2.1", 2): cls(g, "1.2.1"),
        ("1.2.1", 1): zero,
        ("1.2.1", 2): zero,
    }
    for (word, i), want in expected.items():
        got = ring.multiply_basis(g.parse(word), g.simple(i))
        assert got == want, (word, i, class_str(g, got))


def test_unit_row(a2):
    g, ring = a2
    for v in g:
        assert ring.multiply_basis(g.identity, v) == {v.idx: 1}
        assert ring.multiply_basis(v, g.identity) == {v.idx: 1}


def test_invariant_bases(a2):
    g, ring = a2
    assert {str(w) for w in ring.invariant_basis(1)} == {"e", "2", "1.2"}
    assert {str(w) for w in ring.invariant_basis(2)} == {"e", "1", "2.1"}


def test_invariant_basis_generic():
    g = generate_weyl(build("B2"))
    ring = build_ring(g)
    for i in (1, 2):
        inv = ring.invariant_basis(i)
        assert len(inv) == len(g) // 2
        assert g.identity in inv
        assert g.longest not in inv


def test_split_examples(a2):
    g, ring = a2
    x, y = ring.split(1, cls(g, "1"))
    assert x == {} and y == cls(g, "e")
    x, y = ring.split(1, cls(g, "2"))
    assert x == cls(g, "2") and y == {}
    x, y = ring.split(1, cls(g, "2.1", "1.2"))
    assert x == {} and y == cls(g, "2")


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_split_recombine_identity(name):
    g = generate_weyl(build(name))
    ring = build_ring(g)
    for i in range(1, g.rootsystem.rank + 1):
        si = {g.simple(i).idx: 1}
        for w in g:
            x, y = ring.split(i, {w.idx: 1})
            recombined = ring.multiply(si, y)
            subtract_scaled(recombined, -1, x)
            assert recombined == {w.idx: 1}
            inv = {v.idx for v in ring.invariant_basis(i)}
            assert x.keys() <= inv and y.keys() <= inv


@pytest.mark.parametrize("name", ["A2", "B2", "A3"])
def test_commutative_exhaustive(name):
    g = generate_weyl(build(name))
    ring = build_ring(g)
    for u in g:
        for v in g:
            assert ring.multiply_basis(u, v) == ring.multiply_basis(v, u)


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_associative_random_triples(name):
    g = generate_weyl(build(name))
    ring = build_ring(g)
    rng = random.Random(7)
    for _ in range(25):
        u, v, t = (rng.choice(g.elements) for _ in range(3))
        lhs = ring.multiply(ring.multiply_basis(u, v), {t.idx: 1})
        rhs = ring.multiply({u.idx: 1}, ring.multiply_basis(v, t))
        assert lhs == rhs


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
def test_table_obeys_chevalley_rule(name):
    # (sigma_i sigma_u) sigma_v = sum_t table[u][v]_t sigma_i sigma_t for every
    # i, u and v; with the unit row this fixes every row of the table, and off
    # type A fractional expression coefficients reach its division step
    g = generate_weyl(build(name))
    ring = build_ring(g)
    for i in range(1, g.rootsystem.rank + 1):
        by_chevalley = [ring.chevalley_multiply(i, t) for t in g]
        for u in g:
            for v in g:
                want = {}
                for t, c in ring.multiply_basis(u, v).items():
                    subtract_scaled(want, -c, by_chevalley[t])
                assert ring.multiply(by_chevalley[u.idx], {v.idx: 1}) == want, (i, u, v)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_homogeneity(name):
    g = generate_weyl(build(name))
    ring = build_ring(g)
    top = g.longest.length
    for u in g:
        for v in g:
            product = ring.multiply_basis(u, v)
            if u.length + v.length > top:
                assert product == {}
            else:
                for t in product:
                    assert g.elements[t].length == u.length + v.length


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_poincare_pairing_permutation(name):
    # brute force via the table: in complementary degrees the coefficient of
    # sigma_{w0} defines a 0/1 permutation matrix
    g = generate_weyl(build(name))
    ring = build_ring(g)
    w0 = g.longest
    by_length = {}
    for w in g:
        by_length.setdefault(w.length, []).append(w)
    for k in range(w0.length + 1):
        us, vs = by_length[k], by_length[w0.length - k]
        matrix = [
            [ring.multiply_basis(u, v).get(w0.idx, 0) for v in vs] for u in us
        ]
        for row in matrix:
            assert all(x in (0, 1) for x in row)
            assert sum(row) == 1
        for j in range(len(vs)):
            assert sum(matrix[i][j] for i in range(len(us))) == 1


def test_integral_structure_constants():
    # Schubert structure constants are nonnegative integers even in the
    # non-simply-laced types, where Chevalley scalars are ratios
    for name in ["B2", "G2", "B3"]:
        g = generate_weyl(build(name))
        ring = build_ring(g)
        for u in g:
            for v in g:
                for coeff in ring.multiply_basis(u, v).values():
                    assert type(coeff) is int and coeff > 0


def test_class_str(a2):
    g, ring = a2
    assert class_str(g, {}) == "0"
    assert class_str(g, cls(g, "e")) == "1"
    assert class_str(g, cls(g, "2.1", "1.2")) == "σ[1.2] + σ[2.1]"
    assert class_str(g, {g.parse("1").idx: -1}) == "-σ[1]"
    assert class_str(g, {g.parse("2").idx: -2, g.parse("1").idx: Fraction(1, 2)}) == "1/2 σ[1] - 2 σ[2]"


def _obeys_number_rule(v):
    """An exact value is an int when integral and a Fraction only with a denominator."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


@pytest.mark.parametrize("name, fractional", [("A2", 0), ("B2", 2), ("G2", 2), ("B3", 39)])
def test_ring_values_obey_the_number_rule(name, fractional):
    # off type A the Chevalley scalars are ratios, so some expression
    # coefficients keep a denominator; every integral value is a plain int
    g = generate_weyl(build(name))
    ring = build_ring(g)
    rank = g.rootsystem.rank
    classes = [ring.chevalley_multiply(i, w) for w in g for i in range(1, rank + 1)]
    classes += [part for w in g for i in range(1, rank + 1) for part in ring.split(i, {w.idx: 1})]
    classes += [ring.multiply_basis(u, v) for u in g for v in g]
    for c in classes:
        assert all(v != 0 and _obeys_number_rule(v) for v in c.values())
    coeffs = [c for expr in ring.expressions for _, _, c in expr]
    assert all(_obeys_number_rule(c) for c in coeffs)
    assert sum(type(c) is Fraction for c in coeffs) == fractional
