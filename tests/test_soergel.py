from fractions import Fraction

import pytest

from icmod_reference import kron
from oquiver.checks import word_module_family
from oquiver.kl import ih_graded_dims
from oquiver.linalg import QMatrix, rank
from oquiver.rootsystem import build, generate_weyl
from oquiver.schubert import build_ring
from oquiver.soergel import (
    _orbits,
    build_all,
    class_matrix,
    derived_actions,
    extend,
    extract_top,
    graded_hom_basis,
    hom_degree0,
    trivial_module,
    word_module,
)

F = Fraction


def all_actions(ring, m):
    """The action matrix of every class on m, in element order."""
    return derived_actions(ring, m.gens)


#: the 2x2 matrix units E_ab, which place a block at rows 2m + a, columns 2k + b
UNIT = [[QMatrix([[1, 0], [0, 0]]), QMatrix([[0, 1], [0, 0]])],
        [QMatrix([[0, 0], [1, 0]]), QMatrix([[0, 0], [0, 1]])]]


def reference_extend_gens(ring, i, module):
    """The generators of extend(i, module) as sums of Kronecker products
    x1 (x) E_00 + x2 (x) E_01 + y1 (x) E_10 + y2 (x) E_11 of class matrices,
    where sigma_{s_j} . 1 = x1 + sigma_i y1 and sigma_{s_j} . sigma_i =
    x2 + sigma_i y2."""
    g = ring.group
    actions = derived_actions(ring, module.gens)
    gens = []
    for j in range(1, ring.rootsystem.rank + 1):
        x1, y1 = ring.split(i, {g.simple(j).idx: 1})
        x2, y2 = ring.split(i, ring.chevalley_multiply(j, g.simple(i)))
        x1m, y1m, x2m, y2m = (class_matrix(actions, c, module.dim) for c in (x1, y1, x2, y2))
        gens.append(
            kron(x1m, UNIT[0][0]) + kron(x2m, UNIT[0][1]) + kron(y1m, UNIT[1][0]) + kron(y2m, UNIT[1][1])
        )
    return gens


def assert_extend_matches_reference(ring, i, module):
    # entries in stored order too: the cache writes a cover kept as V_w in it
    cover = extend(ring, i, module)
    assert [list(row.items()) for a in cover.gens for row in a.data] == [
        list(row.items()) for a in reference_extend_gens(ring, i, module) for row in a.data
    ]
    assert cover.degrees == tuple(d + e for d in module.degrees for e in (-1, 1))


def assert_orbits_are_columns_of_derived_actions(ring, module):
    # every orbit sigma_v e_q, formed on its own, is column q of sigma_v entry
    # for entry; past the end of the orbit the column is zero
    orbits = _orbits(ring, module)
    columns = [action.transpose().data for action in derived_actions(ring, module.gens)]
    for q in range(module.dim):
        orbit = orbits[q]
        assert orbit == [col[q] for col in columns[: len(orbit)]]
        assert all(not col[q] for col in columns[len(orbit):])
    assert orbits.columns == [a.transpose().data for a in module.gens]


def modules_and_covers(g, ring, fam):
    """Every V_w and its single-extension cover extend(i, V_{w s_i})."""
    for w in g:
        yield fam[w]
        if w.length:
            i = w.word[-1]
            yield extend(ring, i, fam[g.right_mult(w, i)])


def family_of(name):
    g = generate_weyl(build(name))
    ring = build_ring(g)
    return g, ring, build_all(ring)


@pytest.fixture(scope="module", params=["A2", "B2", "G2", "A3"])
def named_family(request):
    return family_of(request.param)


@pytest.fixture(scope="module")
def a2():
    g = generate_weyl(build("A2"))
    return g, build_ring(g)


@pytest.fixture(scope="module")
def a2_family(a2):
    _, ring = a2
    return build_all(ring)


def test_trivial_module(a2):
    g, ring = a2
    t = trivial_module(ring)
    assert t.dim == 1 and t.degrees == (0,)
    actions = all_actions(ring, t)
    assert actions[0] == QMatrix.identity(1)
    for v in g.elements[1:]:
        assert actions[v.idx].is_zero()
    assert actions[g.longest.idx].is_zero()


def test_extend_v_s1(a2):
    g, ring = a2
    v_s1 = extend(ring, 1, trivial_module(ring))
    assert v_s1.dim == 2
    assert v_s1.degrees == (-1, 1)
    assert v_s1.gens[0] == QMatrix([[0, 0], [1, 0]])
    assert v_s1.gens[1].is_zero()


def test_extend_v_s2(a2):
    g, ring = a2
    v_s2 = extend(ring, 2, trivial_module(ring))
    assert v_s2.gens[1] == QMatrix([[0, 0], [1, 0]])
    assert v_s2.gens[0].is_zero()


def test_word_module_12_matches_atlas(a2):
    # C tensored over C^{s_2} then C^{s_1}: the pair of 4x4 matrices
    g, ring = a2
    m = word_module(ring, [1, 2])
    assert m.dim == 4
    assert m.degrees == (-2, 0, 0, 2)
    assert m.gens[0] == QMatrix(
        [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    assert m.gens[1] == QMatrix(
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0]]
    )


def test_word_module_21(a2):
    g, ring = a2
    m = word_module(ring, [2, 1])
    assert m.gens[0] == QMatrix(
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0]]
    )
    assert m.gens[1] == QMatrix(
        [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]
    )


def test_word_module_dimensions(a2):
    _, ring = a2
    assert word_module(ring, []).dim == 1
    assert word_module(ring, [1, 2, 1]).dim == 8
    assert word_module(ring, [1, 1, 2]).dim == 8  # words need not be reduced


def test_word_module_121_action_table(a2):
    # the full action table of the 8-dimensional module of the word (1,2,1);
    # basis order is the binary counter on (a_3, a_2, a_1), outermost fastest
    g, ring = a2
    m = word_module(ring, [1, 2, 1])
    s1, s2 = m.gens[0], m.gens[1]

    def col(mat, j):
        return {k: mat[k, j] for k in range(8) if mat[k, j]}

    assert col(s1, 0) == {1: 1}
    assert col(s2, 0) == {2: 1}
    assert col(s1, 4) == {5: 1}
    assert col(s2, 4) == {6: 1}
    assert col(s1, 2) == {3: 1}
    assert col(s2, 2) == {6: 1}
    assert col(s1, 1) == {3: 1, 6: -1}
    assert col(s2, 1) == {3: 1}
    assert col(s1, 6) == {7: 1}
    assert col(s2, 6) == {}
    assert col(s1, 5) == {7: 1}
    assert col(s2, 5) == {7: 1}
    assert col(s1, 3) == {7: 1}
    assert col(s2, 3) == {7: 1}
    assert col(s1, 7) == {}
    assert col(s2, 7) == {}


def test_hom_degree0_delta(a2, a2_family):
    g, ring = a2
    fam = a2_family
    for y in g:
        for w in g:
            maps = hom_degree0(ring, fam[y], fam[w])
            if y == w:
                assert len(maps) == 1
                assert maps[0] == QMatrix.identity(fam[y].dim)
            else:
                assert maps == []


def test_embedded_v_s1_in_word_121(a2, a2_family):
    # the submodule isomorphic to V_{s_1}: 1 (x) 1 goes to
    # 1 (x) 1 (x) sigma_1 (x) 1 - 1 (x) sigma_2 (x) 1 (x) 1, up to scale
    g, ring = a2
    u = word_module(ring, [1, 2, 1])
    maps = hom_degree0(ring, a2_family[g.simple(1)], u)
    assert len(maps) == 1
    f = maps[0]
    image = [f[k, 0] for k in range(f.rows)]
    expected = [0, 0, -1, 0, 1, 0, 0, 0]  # index 4 minus index 2
    scale = None
    for a, b in zip(image, expected):
        if b == 0:
            assert a == 0
        else:
            s = F(a) / b
            scale = s if scale is None else scale
            assert s == scale
    assert scale != 0


def test_extract_top_w0(a2, a2_family):
    g, ring = a2
    u = word_module(ring, [1, 2, 1])
    v_w0, mults = extract_top(ring, u, {w.idx: a2_family[w] for w in g}, g.longest)
    assert v_w0.dim == 6
    assert sorted(v_w0.degrees) == [-3, -1, -1, 1, 1, 3]
    assert v_w0.graded_dims() == {-3: 1, -1: 2, 1: 2, 3: 1}
    assert mults == {g.simple(1).idx: 1}


def test_extract_top_no_lower_terms(a2):
    g, ring = a2
    u = word_module(ring, [1, 2])
    built = {
        g.identity.idx: trivial_module(ring),
        g.simple(1).idx: word_module(ring, [1]),
        g.simple(2).idx: word_module(ring, [2]),
    }
    v, mults = extract_top(ring, u, built, g.parse("1.2"))
    assert mults == {}
    assert v.dim == 4
    assert v.gens == u.gens  # identity extraction keeps the basis


def test_family_a2_graded_dims(a2, a2_family):
    g, _ = a2
    fam = a2_family
    assert fam.graded_dims(g.identity) == {0: 1}
    assert fam.graded_dims(g.simple(1)) == {-1: 1, 1: 1}
    assert fam.graded_dims(g.simple(2)) == {-1: 1, 1: 1}
    assert fam.graded_dims(g.parse("1.2")) == {-2: 1, 0: 2, 2: 1}
    assert fam.graded_dims(g.parse("2.1")) == {-2: 1, 0: 2, 2: 1}
    assert fam.graded_dims(g.longest) == {-3: 1, -1: 2, 1: 2, 3: 1}


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_family_matches_kl_poincare(name):
    g = generate_weyl(build(name))
    ring = build_ring(g)
    fam = build_all(ring)
    for w in g:
        assert fam.graded_dims(w) == ih_graded_dims(g, w), str(w)


def test_degree_symmetry_and_parity(a2_family, a2):
    g, _ = a2
    for w in g:
        m = a2_family[w]
        dims = m.graded_dims()
        for d, n in dims.items():
            assert dims.get(-d) == n
            assert (d - w.length) % 2 == 0
            assert -w.length <= d <= w.length


def test_action_matrices_commute_and_compose(a2, a2_family):
    g, ring = a2
    for w in g:
        m = a2_family[w]
        actions = all_actions(ring, m)
        for u in g:
            for v in g:
                left = actions[u.idx] * actions[v.idx]
                assert left == actions[v.idx] * actions[u.idx]
                expanded = class_matrix(actions, ring.multiply_basis(u, v), m.dim)
                assert left == expanded


def test_action_degree_shift(a2, a2_family):
    g, ring = a2
    for w in g:
        m = a2_family[w]
        actions = all_actions(ring, m)
        for v in g:
            for p, q, value in actions[v.idx].nonzero_items():
                assert m.degrees[p] == m.degrees[q] + 2 * v.length


def test_full_mode_g2_matches_oracle():
    g = generate_weyl(build("G2"))
    ring = build_ring(g)
    full = word_module_family(ring)
    for w in g:
        assert full[w.idx].graded_dims() == ih_graded_dims(g, w)


def test_full_mode_a3_fails_loudly():
    # the full word module of the longest element contains grading-shifted
    # lower summands, which the degree-0 extraction cannot separate; the
    # failure must be detected, never silent
    from oquiver.soergel import CoverNotSeparable

    g = generate_weyl(build("A3"))
    ring = build_ring(g)
    with pytest.raises(CoverNotSeparable):
        word_module_family(ring)


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_shortcut_vs_full_isomorphic(name):
    g = generate_weyl(build(name))
    ring = build_ring(g)
    fast = build_all(ring)
    full = word_module_family(ring)
    for w in g:
        assert fast.graded_dims(w) == full[w.idx].graded_dims()
        maps = hom_degree0(ring, fast[w], full[w.idx])
        assert len(maps) == 1
        assert rank(maps[0].data) == fast[w].dim  # the canonical map is invertible


def cover_multiplicities(ring, fam, w):
    """The multiplicities n(y) that `extract_top` finds in the cover
    extend(i, V_{w s_i}) that `build_all` splits V_w off."""
    i = w.word[-1]
    cover = extend(ring, i, fam[ring.group.right_mult(w, i)])
    return extract_top(ring, cover, fam.modules, w)[1]


def test_multiplicity_example_a2(a2, a2_family):
    # the 8-dimensional word module of (1,2,1) contains V_{s_1} once
    g, ring = a2
    assert cover_multiplicities(ring, a2_family, g.longest) == {g.simple(1).idx: 1}


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_multiplicities_match_hecke_prediction(name):
    # for a single-extension cover of w = w' s_i the lower multiplicities are
    # forced: n(y) = mu(y, w') exactly when y s_i < y; an independent
    # cross-check of the degree-0 hom dimensions against the KL oracle
    from oquiver.kl import mu

    g = generate_weyl(build(name))
    ring = build_ring(g)
    fam = build_all(ring)
    for w in g.elements[1:]:
        i = w.word[-1]
        parent = g.right_mult(w, i)
        predicted = {}
        for y in g.elements:
            if y != w and g.right_mult(y, i).length < y.length:
                m = mu(g, y, parent)
                if m:
                    predicted[y.idx] = m
        assert cover_multiplicities(ring, fam, w) == predicted, str(w)


def test_extend_matches_kron_construction_on_every_cover(named_family):
    g, ring, fam = named_family
    for w in g.elements[1:]:
        i = w.word[-1]
        assert_extend_matches_reference(ring, i, fam[g.right_mult(w, i)])


@pytest.mark.parametrize("name", ["B2", "G2"])
def test_extend_matches_kron_construction_on_word_modules(name):
    # B2 and G2 split classes have fractional coefficients
    g = generate_weyl(build(name))
    ring = build_ring(g)
    for word in (g.longest.word, g.longest.word[::-1], (1, 1, 2)):
        module = trivial_module(ring)
        for i in word:
            assert_extend_matches_reference(ring, i, module)
            module = extend(ring, i, module)


def test_action_cols_are_transposed_derived_actions(named_family):
    g, ring, fam = named_family
    for module in modules_and_covers(g, ring, fam):
        assert_orbits_are_columns_of_derived_actions(ring, module)


def test_action_cols_divide_when_generators_have_denominators():
    # three B3 modules (no cover) have generator entries with a denominator,
    # so their orbits take the division step; every other one runs too
    g, ring, fam = family_of("B3")
    modules = list(modules_and_covers(g, ring, fam))
    fractional = [
        m for m in modules
        if any(type(v) is Fraction for a in m.gens for row in a.data for v in row.values())
    ]
    assert len(fractional) == 3
    for module in modules:
        assert_orbits_are_columns_of_derived_actions(ring, module)
