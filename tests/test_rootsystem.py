from fractions import Fraction
from itertools import combinations

import pytest

from oquiver.rootsystem import (
    GroupTooLarge,
    InvalidRootSystem,
    MixedGroups,
    build,
    generate_weyl,
    parse_type,
    weyl_order,
)


def test_build_a1_single_root():
    rs = build("A", 1)
    assert rs.positive_roots == ((1,),)


def test_build_a2_by_hand():
    # reflection closure from {(1,0),(0,1)}: s_1(0,1) = (1,1), nothing further
    rs = build("A", 2)
    assert rs.cartan == ((2, -1), (-1, 2))
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_build_g2_six_roots():
    rs = build("G", 2)
    assert len(rs.positive_roots) == 6
    assert set(rs.positive_roots) == {
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2),
    }


def test_positive_root_counts():
    for name, count in [("A3", 6), ("B2", 4), ("C3", 9), ("D4", 12), ("F4", 24), ("B3", 9)]:
        rs = build(name)
        assert len(rs.positive_roots) == count, name


def test_invalid_types():
    for bad in ["B1", "C2", "D3", "E5", "F3", "G3", "H2", "Q1"]:
        with pytest.raises(InvalidRootSystem):
            build(bad)
    with pytest.raises(InvalidRootSystem):
        parse_type("2A")


def test_symmetrized_cartan_is_symmetric():
    for name in ["A3", "B3", "C3", "D4", "F4", "G2"]:
        rs = build(name)
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert rs.symmetrizer[i] * rs.cartan[i][j] == rs.symmetrizer[j] * rs.cartan[j][i]


def test_weyl_a2_matches_s3():
    g = generate_weyl(build("A2"))
    assert len(g) == 6
    assert [w.length for w in g.elements] == [0, 1, 1, 2, 2, 3]
    assert [str(w) for w in g.elements] == ["e", "1", "2", "1.2", "2.1", "1.2.1"]


def test_weyl_a1():
    g = generate_weyl(build("A1"))
    assert len(g) == 2


def test_weyl_b2():
    g = generate_weyl(build("B2"))
    assert len(g) == 8
    assert g.longest.length == 4


def test_order_table():
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"]:
        rs = build(name)
        g = generate_weyl(rs)
        assert len(g) == weyl_order(rs.type_label, rs.rank)


def test_group_too_large_guard():
    for name in ["E6", "E7", "E8", "A8", "B7"]:
        with pytest.raises(GroupTooLarge):
            generate_weyl(build(name))


def test_lengths_and_products():
    g = generate_weyl(build("A2"))
    e, s1, s2 = g.identity, g.simple(1), g.simple(2)
    assert e.length == 0
    assert (s1 * s2 * s1).length == 3
    assert s1 * s1 == e


def test_longest_element_duality():
    for name in ["A2", "B2", "A3", "G2"]:
        g = generate_weyl(build(name))
        w0 = g.longest
        for w in g:
            assert w.length + (w * w0).length == w0.length


def test_reduced_words():
    g = generate_weyl(build("A2"))
    assert g.identity.word == ()
    assert g.longest.word == (1, 2, 1)  # lex-least of {121, 212}
    assert g.parse("1.2").word == (1, 2)
    for w in g:
        assert g.evaluate(w.word) == w
        assert len(w.word) == w.length


def test_parse_element_strings():
    g = generate_weyl(build("B2"))
    assert g.parse("e") == g.identity
    assert g.parse("1.2.1.2") == g.longest
    assert str(g.parse("2.2")) == "e"
    assert g.parse("") is g.identity
    with pytest.raises(InvalidRootSystem, match=r"^cannot parse element '1\.x'$"):
        g.parse("1.x")
    with pytest.raises(InvalidRootSystem, match=r"^generator index 3 out of range$"):
        g.parse("3")
    # a spelling other than the canonical name is evaluated
    a2 = generate_weyl(build("A2"))
    assert "2.1.2" not in a2.by_name
    assert a2.parse("2.1.2") is a2.longest


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_canonical_names_are_looked_up(name, monkeypatch):
    g = generate_weyl(build(name))
    assert g.by_name == {str(w): w for w in g.elements}
    evaluated = []
    monkeypatch.setattr(g, "evaluate", lambda word: evaluated.append(word))
    for w in g.elements:
        assert g.parse(str(w)) is w
        assert g.parse(f" {w} ") is w
    assert evaluated == []


def test_reflections():
    rs = build("A2")
    g = generate_weyl(rs)
    assert g.reflection((1, 0)) == g.simple(1)
    assert g.reflection((1, 1)) == g.parse("1.2.1")  # highest root
    for alpha in rs.positive_roots:
        s = g.reflection(alpha)
        assert s * s == g.identity
    with pytest.raises(InvalidRootSystem):
        g.reflection((2, 0))


def test_mixed_group_error():
    g1 = generate_weyl(build("A2"))
    g2 = generate_weyl(build("A2"))
    with pytest.raises(MixedGroups):
        g1.multiply(g1.simple(1), g2.simple(1))


def _subword_closure(g, w):
    """Brute-force {v : v <= w} via evaluations of all subwords of w.word."""
    seen = set()
    word = w.word
    for r in range(len(word) + 1):
        for picks in combinations(range(len(word)), r):
            seen.add(g.evaluate([word[i] for i in picks]).idx)
    return seen


@pytest.mark.parametrize("name", ["A2", "B2", "A3"])
def test_bruhat_matches_subword_bruteforce(name):
    g = generate_weyl(build(name))
    for w in g:
        below = _subword_closure(g, w)
        for y in g:
            assert g.bruhat_leq(y, w) == (y.idx in below), (str(y), str(w))


def test_bruhat_basics():
    g = generate_weyl(build("A2"))
    s1, s2 = g.simple(1), g.simple(2)
    for w in g:
        assert g.bruhat_leq(g.identity, w)
    assert g.bruhat_leq(s1, s1 * s2)
    assert g.bruhat_leq(s1, s2 * s1)
    assert not g.bruhat_leq(s1, s2)
    # unique maximum and minimum
    maxima = [w for w in g if all(not g.bruhat_leq(w, v) for v in g if v != w)]
    minima = [w for w in g if all(not g.bruhat_leq(v, w) for v in g if v != w)]
    assert maxima == [g.longest]
    assert minima == [g.identity]


def test_inner_products_g2():
    rs = build("G2")
    a1, a2 = (1, 0), (0, 1)
    assert rs.inner(a1, a1) == 2
    assert rs.inner(a2, a2) == 6
    assert rs.inner(a1, a2) == -3
    assert rs.inner((3, 2), (3, 2)) == 6  # long root


def _matrix_product_tables(rs):
    """Element order, words and right/left tables straight from the
    definition: BFS over full n x n products by the simple reflections,
    each word the lex-least reduced word by greedy smallest left descent."""
    n = rs.rank
    gens = [rs.simple_reflection_matrix(i) for i in range(n)]

    def matmul(a, b):
        return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)) for r in range(n))

    identity = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    length = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for s in gens:
                prod = matmul(m, s)
                if prod not in length:
                    length[prod] = length[m] + 1
                    nxt.append(prod)
        frontier = nxt
    words = {identity: ()}
    for m in sorted(length, key=length.get)[1:]:
        i = next(i for i in range(n) if length[matmul(gens[i], m)] == length[m] - 1)
        words[m] = (i + 1,) + words[matmul(gens[i], m)]
    order = sorted(length, key=lambda m: (length[m], words[m]))
    index = {m: k for k, m in enumerate(order)}
    right = [[index[matmul(m, s)] for s in gens] for m in order]
    left = [[index[matmul(s, m)] for s in gens] for m in order]
    return order, [words[m] for m in order], right, left


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "G2", "F4"])
def test_weyl_tables_are_the_matrix_products(name):
    # the group forms each product by a one-row or rank-one change of the
    # action matrix; every type with |W| <= 1152
    rs = build(name)
    g = generate_weyl(rs)
    order, words, right, left = _matrix_product_tables(rs)
    assert [w.action for w in g.elements] == order
    assert [w.word for w in g.elements] == words
    assert [w.length for w in g.elements] == [len(word) for word in words]
    assert g._right == right and g._left == left
    assert [s.action for s in g.generators] == [rs.simple_reflection_matrix(i) for i in range(rs.rank)]
