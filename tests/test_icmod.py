import random
from fractions import Fraction

import pytest

import icmod_reference
from oquiver import icmod
from oquiver.checks import (
    check_prop36,
    check_verdier_involution,
    generic_rep,
    one_way_rep,
    sample_reps,
    semisimple_rep,
)
from oquiver.icmod import (
    ICModule,
    InvalidModule,
    ShapeError,
    euler_characteristic,
    icmodule_from_doc,
    icmodule_to_doc,
    total_cohomology,
    validate,
    verdier_dual,
)
from oquiver.linalg import QMatrix, rank
from oquiver.quiver import build_quiver
from oquiver.rootsystem import build, generate_weyl
from oquiver.schubert import build_ring
from oquiver.soergel import build_all

F = Fraction


@pytest.fixture(scope="module")
def a2q():
    g = generate_weyl(build("A2"))
    return build_quiver(build_all(build_ring(g)))


@pytest.fixture(scope="module")
def a1q():
    g = generate_weyl(build("A1"))
    return build_quiver(build_all(build_ring(g)))


def test_simple_modules_valid_and_compute_ih(a2q):
    g = a2q.group
    for w in g.elements:
        m = ICModule({w.idx: 1}, {})
        assert validate(a2q, m)
        assert total_cohomology(a2q, m) == a2q.family.graded_dims(w)


def test_p1_shriek_and_star_extensions(a1q):
    g = a1q.group
    e, s = g.identity, g.longest
    # nonzero map from the open cell down to the point: H concentrated in degree 1
    shriek = ICModule({e.idx: 1, s.idx: 1}, {(s.idx, e.idx): [(0, QMatrix([[1]]))]})
    assert validate(a1q, shriek)
    assert total_cohomology(a1q, shriek) == {1: 1}
    # the other direction: concentrated in degree -1
    star = ICModule({e.idx: 1, s.idx: 1}, {(e.idx, s.idx): [(0, QMatrix([[1]]))]})
    assert validate(a1q, star)
    assert total_cohomology(a1q, star) == {-1: 1}
    for m in (shriek, star):
        assert euler_characteristic(total_cohomology(a1q, m)) == -1


def test_p1_invalid_both_maps(a1q):
    g = a1q.group
    e, s = g.identity, g.longest
    m = ICModule(
        {e.idx: 1, s.idx: 1},
        {
            (s.idx, e.idx): [(0, QMatrix([[1]]))],
            (e.idx, s.idx): [(0, QMatrix([[1]]))],
        },
    )
    assert not validate(a1q, m)
    with pytest.raises(InvalidModule):
        total_cohomology(a1q, m)


def test_semisimple_rep_is_valid(a2q):
    m = ICModule({w.idx: 1 for w in a2q.group.elements}, {})
    assert validate(a2q, m)


def test_one_way_rep_at_covering_pair_is_valid(a2q):
    # the projective-line pattern embedded at a covering pair: stalk 1 at
    # each end, exactly one of the two opposite arrows nonzero
    g = a2q.group
    y, w = g.simple(1), g.parse("1.2")
    m = ICModule({y.idx: 1, w.idx: 1}, {(w.idx, y.idx): [(0, QMatrix([[1]]))]})
    assert validate(a2q, m)
    dims = total_cohomology(a2q, m)
    assert euler_characteristic(dims) == sum(
        (-1) ** (d % 2) for d in a2q.family.modules[y.idx].degrees
    ) + sum((-1) ** (d % 2) for d in a2q.family.modules[w.idx].degrees)


def test_singleton_relator_violation(a2q):
    # the loop at the longest element through s1s2 is itself a relator, so a
    # module making both of those arrows nonzero (and nothing else) breaks it
    g = a2q.group
    w0, mid = g.longest, g.parse("1.2")
    m = ICModule(
        {w0.idx: 1, mid.idx: 1},
        {
            (w0.idx, mid.idx): [(0, QMatrix([[1]]))],
            (mid.idx, w0.idx): [(0, QMatrix([[1]]))],
        },
    )
    assert not validate(a2q, m)
    d, _ = icmod.assemble_differential(a2q, m)
    assert not (d * d).is_zero()


def test_repeated_terms_are_summed(a2q):
    # two terms on one arrow act as their sum: here they cancel, which
    # leaves a single map and no path through both arrows of the loop
    g = a2q.group
    w0, mid = g.longest.idx, g.parse("1.2").idx
    one, minus = QMatrix([[1]]), QMatrix([[-1]])
    cancelled = ICModule({w0: 1, mid: 1}, {(w0, mid): [(0, one)], (mid, w0): [(0, one), (0, minus)]})
    assert validate(a2q, cancelled)
    assert total_cohomology(a2q, cancelled) == total_cohomology(
        a2q, ICModule({w0: 1, mid: 1}, {(w0, mid): [(0, one)]})
    )
    doubled = ICModule({w0: 1, mid: 1}, {(w0, mid): [(0, one)], (mid, w0): [(0, one), (0, one)]})
    assert not validate(a2q, doubled)


def test_prop36_equivalence_200_samples(a2q):
    valid, invalid = check_prop36(a2q, seed=20240817, count=200)
    assert valid + invalid == 200
    assert valid >= 50 and invalid >= 50


def test_euler_characteristic_is_differential_free(a2q):
    rng = random.Random(11)
    for _ in range(20):
        m = generic_rep(a2q, rng)
        if not validate(a2q, m):
            continue
        dims = total_cohomology(a2q, m)
        expected = 0
        for w in a2q.group.elements:
            chi = sum((-1) ** (d % 2) for d in a2q.family.modules[w.idx].degrees)
            expected += chi * m.stalk_dim(w.idx)
        assert euler_characteristic(dims) == expected


def test_verdier_involution_and_validity(a2q):
    check_verdier_involution(a2q, seed=5, count=50)


def test_verdier_involution_other_types(a1q):
    check_verdier_involution(a1q, seed=5, count=20)
    g = generate_weyl(build("B2"))
    b2q = build_quiver(build_all(build_ring(g)))
    check_verdier_involution(b2q, seed=5, count=20)


def test_duality_pairings_are_symmetric(a2q):
    # the degree-0 isomorphism V_w -> V_w* is a symmetric pairing, which is
    # what makes applying the dual twice land exactly on the original data
    isos, _ = icmod._duality(a2q)
    assert len(isos) == len(a2q.group)
    for phi in isos:
        assert phi == phi.transpose()
        assert rank(phi.data) == phi.rows == phi.cols
    assert icmod._duality(a2q) is icmod._duality(a2q)


def test_simple_is_self_dual(a2q):
    for w in a2q.group.elements:
        m = ICModule({w.idx: 1}, {})
        assert verdier_dual(a2q, m) == m


def test_dual_swaps_p1_extensions(a1q):
    g = a1q.group
    e, s = g.identity, g.longest
    shriek = ICModule({e.idx: 1, s.idx: 1}, {(s.idx, e.idx): [(0, QMatrix([[1]]))]})
    dual = verdier_dual(a1q, shriek)
    assert set(dual.boundary) == {(e.idx, s.idx)}
    assert total_cohomology(a1q, dual) == {-1: 1}


def test_zero_rep(a2q):
    m = ICModule({}, {})
    assert m.stalks == {} and m.boundary == {}
    assert validate(a2q, m)
    assert total_cohomology(a2q, m) == {}


def test_shape_errors(a2q):
    g = a2q.group
    w0, e = g.longest, g.identity
    with pytest.raises(ShapeError):
        # non-incident pair (identity to longest has no arrows)
        validate(a2q, ICModule({e.idx: 1, w0.idx: 1}, {(e.idx, w0.idx): [(0, QMatrix([[1]]))]}))
    with pytest.raises(ShapeError):
        # bad stalk matrix shape
        validate(
            a2q,
            ICModule({e.idx: 2, g.simple(1).idx: 1}, {(e.idx, g.simple(1).idx): [(0, QMatrix([[1]]))]}),
        )
    with pytest.raises(ShapeError):
        # arrow index out of range
        validate(
            a2q, ICModule({e.idx: 1, g.simple(1).idx: 1}, {(e.idx, g.simple(1).idx): [(5, QMatrix([[1]]))]})
        )


@pytest.mark.parametrize("operation", [validate, total_cohomology, verdier_dual])
def test_zero_term_shapes_are_checked(a2q, operation):
    # the zero matrix is normalized out of the boundary, but the pair it
    # sits on is still not incident, and the wrong shape still wrong
    g = a2q.group
    w0, e, s1 = g.longest.idx, g.identity.idx, g.simple(1).idx
    nonincident = ICModule({e: 1, w0: 1}, {(e, w0): [(0, QMatrix([[0]]))]})
    assert nonincident.boundary == {}
    with pytest.raises(ShapeError, match=r"non-incident pair \(0, 5\)"):
        operation(a2q, nonincident)
    with pytest.raises(ShapeError, match="expected 1x2"):
        operation(a2q, ICModule({e: 2, s1: 1}, {(e, s1): [(0, QMatrix([[0]]))]}))
    fine = ICModule({e: 1, s1: 1}, {(e, s1): [(0, QMatrix([[0]]))]})
    assert fine == ICModule({e: 1, s1: 1}, {})
    operation(a2q, fine)


def test_each_term_shape_is_checked_once(a2q, monkeypatch):
    # a document's terms are checked on reading, a module built in code by
    # its first operation; later operations, and the duals they write, do
    # not check again.  A module that fails is refused by every operation
    checked = []
    check_term = icmod._check_term

    def counting(q, stalks, y, w, k, mat):
        checked.append((y, w, k))
        check_term(q, stalks, y, w, k, mat)

    def every_operation(m):
        if validate(a2q, m):
            total_cohomology(a2q, m)
        icmod.assemble_differential(a2q, m)
        dual = verdier_dual(a2q, m)
        validate(a2q, dual)
        verdier_dual(a2q, dual)

    monkeypatch.setattr(icmod, "_check_term", counting)
    for m in sample_reps(a2q, 9, 12):
        terms = sum(len(t) for t in m.boundary.values())
        checked.clear()
        every_operation(icmodule_from_doc(a2q, icmodule_to_doc(a2q, m)))
        assert len(checked) == terms
        checked.clear()
        every_operation(ICModule(m.stalks, m.boundary))
        assert len(checked) == terms
    g = a2q.group
    e, s1 = g.identity.idx, g.simple(1).idx
    checked.clear()
    every_operation(ICModule({e: 1, s1: 1}, {(e, s1): [(0, QMatrix([[0]]))]}))
    assert checked == [(e, s1, 0)]
    bad = ICModule({e: 2, s1: 1}, {(e, s1): [(0, QMatrix([[0]]))]})
    for operation in (validate, total_cohomology, verdier_dual, icmod.assemble_differential) * 2:
        with pytest.raises(ShapeError, match="expected 1x2"):
            operation(a2q, bad)


def test_document_round_trip(a2q):
    rng = random.Random(9)
    for m in sample_reps(a2q, 9, 12):
        doc = icmodule_to_doc(a2q, m)
        back = icmodule_from_doc(a2q, doc)
        assert back == m
    with pytest.raises(ShapeError):
        icmodule_from_doc(a2q, {"system": {"type": "B", "rank": 2}, "stalks": {}, "boundary": []})


def test_boundary_absent_between_nonincident(a2q):
    # generated boundaries only ever sit on incident pairs by construction
    rng = random.Random(13)
    for _ in range(5):
        for (y, w) in generic_rep(a2q, rng).boundary:
            assert (y, w) in a2q.hom1


@pytest.fixture(scope="module", params=["A1", "A2", "B2", "G2", "A3"])
def any_quiver(request):
    return build_quiver(build_all(build_ring(generate_weyl(build(request.param)))))


def test_fast_paths_agree_with_references(any_quiver):
    # assembly without Kronecker blocks, the relator test of d^2 = 0, the
    # fraction-free ranks and the memoized duality transport against their
    # direct forms; G2 has fractional arrows
    q = any_quiver
    verdicts = set()
    samples = sample_reps(q, 21, 24)
    # every arrow multiplicity in these types is 1, so repeat each term to
    # make the terms of a pair meet on the same entries
    repeated = [ICModule(m.stalks, {p: terms * 2 for p, terms in m.boundary.items()}) for m in samples]
    for m in samples + repeated:
        d, _ = icmod.assemble_differential(q, m)
        assert d == icmod_reference.kron_differential(q, m)
        valid = validate(q, m)
        assert valid == icmod_reference.squares_to_zero(d)
        if valid:
            assert total_cohomology(q, m) == icmod_reference.reference_cohomology(q, m)
        verdicts.add(valid)
        assert verdier_dual(q, m) == icmod_reference.reference_dual(q, m)
    assert verdicts == {True, False}


def two_level_rep(q, rng, level):
    """Stalks of 1..2 on the elements of lengths `level` and `level + 1`,
    and random integer maps in -2..2 on every arrow from the lower level to
    the upper one.  No path of two arrows carries two maps, so d^2 = 0 by
    construction, while a pair may carry several maps at once."""
    g = q.group
    stalks = {w.idx: rng.randint(1, 2) for w in g.elements if w.length in (level, level + 1)}
    boundary = {}
    for (y, w), arrows in q.hom1.items():
        if g.elements[y].length == level and g.elements[w].length == level + 1:
            boundary[(y, w)] = [
                (k, QMatrix([[rng.randint(-2, 2) for _ in range(stalks[y])] for _ in range(stalks[w])]))
                for k in range(len(arrows))
            ]
    return ICModule(stalks, boundary)


def test_two_level_complexes_agree_with_references(any_quiver):
    # valid complexes with many maps, so the fraction-free ranks meet
    # non-unit pivots (and G2's fractional arrows) that one map never gives
    q = any_quiver
    rng = random.Random(5)
    ranked = 0
    for level in range(q.group.longest.length):
        for _ in range(2):
            m = two_level_rep(q, rng, level)
            assert validate(q, m)
            dims = total_cohomology(q, m)
            assert dims == icmod_reference.reference_cohomology(q, m)
            ranked += sum(dims.values()) < sum(
                s * q.family.modules[w].dim for w, s in m.stalks.items()
            )
            assert verdier_dual(q, m) == icmod_reference.reference_dual(q, m)
    assert ranked  # some differential has nonzero rank


def _count_assemblies(monkeypatch):
    calls = []
    assemble = icmod.assemble_differential

    def counting(q, m):
        calls.append(m)
        return assemble(q, m)

    monkeypatch.setattr(icmod, "assemble_differential", counting)
    return calls


def test_validate_never_assembles(a2q, monkeypatch):
    calls = _count_assemblies(monkeypatch)
    verdicts = [validate(a2q, m) for m in sample_reps(a2q, 21, 24)]
    assert set(verdicts) == {True, False}
    assert calls == []


def test_cohomology_assembles_once_and_only_when_valid(a2q, monkeypatch):
    calls = _count_assemblies(monkeypatch)
    samples = sample_reps(a2q, 21, 24)
    valid = [m for m in samples if validate(a2q, m)]
    invalid = [m for m in samples if not validate(a2q, m)]
    assert valid and invalid
    for m in valid:
        total_cohomology(a2q, m)
        assert calls == [m]
        calls.clear()
    for m in invalid:
        with pytest.raises(InvalidModule, match="total cohomology requires d\\^2 = 0"):
            total_cohomology(a2q, m)
    assert calls == []


def test_second_dual_solves_nothing(any_quiver, monkeypatch):
    # the transport of each pair is solved on first use; a second dual over
    # the same pairs solves neither a pairing nor a transport
    q = any_quiver
    samples = sample_reps(q, 21, 24)
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(icmod, "in_span", counting("in_span", icmod.in_span))
    monkeypatch.setattr(icmod, "graded_hom_basis", counting("hom", icmod.graded_hom_basis))
    icmod._duality.cache_clear()
    first = [verdier_dual(q, m) for m in samples]
    assert calls.count("hom") == len(q.group) and "in_span" in calls
    calls.clear()
    assert [verdier_dual(q, m) for m in samples] == first
    assert calls == []
