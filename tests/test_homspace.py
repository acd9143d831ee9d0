import pytest

from oquiver.homspace import hom_basis
from oquiver.kl import mu
from oquiver.linalg import QMatrix
from oquiver.rootsystem import build, generate_weyl
from oquiver.schubert import build_ring
from oquiver.soergel import build_all, derived_actions


@pytest.fixture(scope="module")
def a2_family():
    g = generate_weyl(build("A2"))
    return build_all(build_ring(g))


def test_hom1_e_to_s1(a2_family):
    g = a2_family.group
    hb = hom_basis(a2_family, g.identity, g.simple(1), 1)
    assert hb.dim == 1
    assert hb.basis[0] == QMatrix([[0], [1]])


def test_hom1_s1_to_s1s2(a2_family):
    g = a2_family.group
    hb = hom_basis(a2_family, g.simple(1), g.parse("1.2"), 1)
    assert hb.dim == 1
    assert hb.basis[0] == QMatrix([[0, 0], [1, 0], [-1, 0], [0, 1]])


def test_hom0_identity(a2_family):
    g = a2_family.group
    for y in g:
        hb = hom_basis(a2_family, y, y, 0)
        assert hb.dim == 1
        assert hb.basis[0] == QMatrix.identity(a2_family[y].dim)


def test_hom1_matrices_commute_and_are_graded(a2_family):
    g = a2_family.group
    for y in g:
        for w in g:
            hb = hom_basis(a2_family, y, w, 1)
            my, mw = a2_family[y], a2_family[w]
            for f in hb.basis:
                for a_w, a_y in zip(mw.gens, my.gens):
                    assert a_w * f == f * a_y
                for p, q, _ in f.nonzero_items():
                    assert mw.degrees[p] == my.degrees[q] + 1


def test_a2_sixteen_incident_pairs(a2_family):
    g = a2_family.group
    counts = {
        (str(y), str(w)): hom_basis(a2_family, y, w, 1).dim for y in g for w in g
    }
    ones = {k for k, v in counts.items() if v == 1}
    assert all(v in (0, 1) for v in counts.values())
    assert len(ones) == 16
    expected = set()
    for a, b in [
        ("e", "1"), ("e", "2"),
        ("1", "1.2"), ("1", "2.1"), ("2", "1.2"), ("2", "2.1"),
        ("1.2", "1.2.1"), ("2.1", "1.2.1"),
    ]:
        expected.add((a, b))
        expected.add((b, a))
    assert ones == expected


def test_no_loops(a2_family):
    g = a2_family.group
    for w in g:
        assert hom_basis(a2_family, w, w, 1).dim == 0


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_arrow_count_matches_mu(name):
    g = generate_weyl(build(name))
    family = build_all(build_ring(g))
    for y in g:
        for w in g:
            assert hom_basis(family, y, w, 1).dim == mu(g, y, w), (str(y), str(w))


def test_symmetry_of_counts(a2_family):
    g = a2_family.group
    for y in g:
        for w in g:
            assert hom_basis(a2_family, y, w, 1).dim == hom_basis(a2_family, w, y, 1).dim


def test_parity_vanishing(a2_family):
    g = a2_family.group
    for y in g:
        for w in g:
            for d in range(-2, 4):
                if (d - (w.length - y.length)) % 2 != 0:
                    assert hom_basis(a2_family, y, w, d).dim == 0


def test_hom1_intertwines_every_derived_class_action(a2_family):
    # the Hom^1 solves impose only the generators; every class must follow
    g = a2_family.group
    ring = a2_family.ring
    actions = {
        w.idx: derived_actions(ring, a2_family[w].gens)
        for w in g
    }
    checked = 0
    for y in g:
        for w in g:
            for f in hom_basis(a2_family, y, w, 1).basis:
                for v in g:
                    assert actions[w.idx][v.idx] * f == f * actions[y.idx][v.idx]
                checked += 1
    assert checked == 16
