import pytest

from oquiver.kl import (
    KLTable,
    ih_graded_dims,
    ih_poincare,
    kl_polynomial,
    mu,
    pcoeff,
    peval,
    pshift,
    pstr,
)
from oquiver.rootsystem import build, generate_weyl


def group(name):
    return generate_weyl(build(name))


def test_kl_a2_all_ones():
    g = group("A2")
    for w in g:
        for y in g:
            p = kl_polynomial(g, y, w)
            if g.bruhat_leq(y, w):
                assert p == (1,)
            else:
                assert p == ()


def test_kl_diagonal_and_non_comparable():
    g = group("A3")
    for w in g:
        assert kl_polynomial(g, w, w) == (1,)
    s1, s2 = g.simple(1), g.simple(2)
    assert kl_polynomial(g, s1, s2) == ()


def test_kl_support_is_bruhat_interval():
    # the set of y with P_{y,w} != 0 must be exactly {y <= w}
    for name in ["B2", "A3", "G2"]:
        g = group(name)
        table = KLTable(g)
        for w in g:
            support = set(table.rows[w.idx])
            interval = {y.idx for y in g if g.bruhat_leq(y, w)}
            assert support == interval


def test_kl_degree_bound_and_nonneg():
    for name in ["A3", "B3", "G2"]:
        g = group(name)
        for w in g:
            for y in g:
                p = kl_polynomial(g, y, w)
                if not p:
                    continue
                assert all(c >= 0 for c in p)
                if y != w:
                    assert len(p) - 1 <= (w.length - y.length - 1) // 2


def test_kl_dihedral_all_ones():
    # rank-2 groups have only smooth Schubert varieties
    for name in ["B2", "G2"]:
        g = group(name)
        for w in g:
            for y in g:
                if g.bruhat_leq(y, w):
                    assert kl_polynomial(g, y, w) == (1,)


def test_kl_a3_has_a_singular_pair():
    # S_4 famously has nontrivial KL polynomials (1 + q)
    g = group("A3")
    nontrivial = {
        (str(y), str(w)): kl_polynomial(g, y, w)
        for w in g
        for y in g
        if len(kl_polynomial(g, y, w)) > 1
    }
    assert nontrivial, "expected some P_{y,w} = 1 + q in A3"
    assert all(p == (1, 1) for p in nontrivial.values())
    assert ("e", "2.1.3.2") in nontrivial


def test_mu_basics():
    g = group("A2")
    for w in g:
        assert mu(g, w, w) == 0
    assert mu(g, g.identity, g.longest) == 0  # gap 3, coefficient of q in P=1 is 0
    pairs = [(y, w) for w in g for y in g if mu(g, y, w) == 1]
    # 8 unordered incident pairs, seen twice by symmetry
    assert len(pairs) == 16
    for y, w in pairs:
        assert mu(g, w, y) == mu(g, y, w)


def test_mu_symmetric_everywhere():
    for name in ["B2", "A3", "G2"]:
        g = group(name)
        for w in g:
            for y in g:
                assert mu(g, y, w) == mu(g, w, y)


def test_ih_poincare_values():
    g = group("A2")
    assert ih_poincare(g, g.identity) == (1,)
    assert ih_poincare(g, g.simple(1)) == (1, 1)
    assert ih_poincare(g, g.longest) == (1, 2, 2, 1)


def test_ih_poincare_palindromic():
    for name in ["A2", "B2", "A3", "G2"]:
        g = group(name)
        for w in g:
            p = ih_poincare(g, w)
            assert len(p) - 1 == w.length
            assert p == tuple(reversed(p))


def test_ih_graded_dims():
    g = group("A2")
    assert ih_graded_dims(g, g.longest) == {-3: 1, -1: 2, 1: 2, 3: 1}
    assert ih_graded_dims(g, g.simple(2)) == {-1: 1, 1: 1}
    assert ih_graded_dims(g, g.identity) == {0: 1}


def test_poly_helpers():
    assert pshift((1, 1), 2) == (0, 0, 1, 1)
    assert pcoeff((1, 2, 3), 5) == 0
    assert peval((1, 2, 2, 1)) == 6
    assert pstr((1, 2, 0, 1)) == "1 + 2q + q^3"
    assert pstr(()) == "0"
