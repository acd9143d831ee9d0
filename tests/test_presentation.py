"""The presentation Hom solve against the commutant reference in tests/commutant.py."""

import gc

import pytest

from commutant import commutant_hom_basis
from oquiver import homspace, icmod, schubert, soergel
from oquiver.cache import load_pipeline
from oquiver.icmod import ICModule, _dual_module, verdier_dual
from oquiver.linalg import RowSpan
from oquiver.quiver import to_json_doc
from oquiver.rootsystem import build, generate_weyl
from oquiver.schubert import build_ring
from oquiver.soergel import (
    build_all,
    extend,
    graded_hom_basis,
    presentation,
    trivial_module,
    word_module,
)


@pytest.fixture(scope="module")
def families():
    out = {}
    for name in ("A2", "B2", "G2", "A3"):
        g = generate_weyl(build(name))
        out[name] = build_all(build_ring(g))
    return out


def assert_same(ring, source, target, degree):
    mine = graded_hom_basis(ring, source, target, degree)
    assert mine == commutant_hom_basis(source, target, degree)
    return len(mine)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_every_pair_in_degrees_0_1_2(families, name):
    fam = families[name]
    g = fam.group
    dims = {d: 0 for d in (0, 1, 2)}
    for y in g:
        for w in g:
            for d in dims:
                dims[d] += assert_same(fam.ring, fam[y], fam[w], d)
    assert dims[0] == len(g)  # Hom^0 is the identity on each V_w
    assert dims[1] > 0 and dims[2] > 0


def test_every_a3_pair_in_degree_1(families):
    fam = families["A3"]
    g = fam.group
    total = sum(assert_same(fam.ring, fam[y], fam[w], 1) for y in g for w in g)
    assert total == 120  # the arrows of the A3 quiver


def test_word_module_and_cover_sources(families):
    # sources that are not IC modules, as met by extract_top: the word module
    # of (1,2,1) and the single-extension covers, including the no-lower-terms
    # self-check on word_module([1, 2])
    fam = families["A2"]
    ring, g = fam.ring, fam.group
    modules = [word_module(ring, [1, 2, 1]), word_module(ring, [1, 2])]
    modules += [extend(ring, w.word[-1], fam[g.right_mult(w, w.word[-1])]) for w in g.elements[1:]]
    for m in modules:
        for d in (-1, 0, 1, 2):
            assert_same(ring, m, m, d)
            for w in g:
                assert_same(ring, m, fam[w], d)
                assert_same(ring, fam[w], m, d)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_dual_module_targets(families, name):
    fam = families[name]
    for w in fam.group:
        module = fam[w]
        assert assert_same(fam.ring, module, _dual_module(module), 0) == 1


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_trivial_source(families, name):
    # every relation of V_e is a zero orbit vector sigma_s g = 0; a
    # presentation without them would map V_e onto whole degree pieces
    fam = families[name]
    ring = fam.ring
    v_e = trivial_module(ring)
    pres = presentation(ring, v_e)
    assert pres.gen_degrees == (0,)
    assert len(pres.relations) == ring.rootsystem.rank
    targets = [fam[w] for w in fam.group] + [word_module(ring, [1, 2, 1])]
    for target in targets:
        for d in range(-3, 4):
            assert_same(ring, v_e, target, d)


def test_a3_generator_counts(families):
    # dim V - rank(sum_i sigma_{s_i} V): 22 modules need one generator, 2 need two
    fam = families["A3"]
    counts = {}
    for w in fam.group:
        n = len(presentation(fam.ring, fam[w]).gen_degrees)
        counts[n] = counts.get(n, 0) + 1
    assert counts == {1: 22, 2: 2}


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
def test_generators_match_one_span_over_all_degrees(families, name):
    # the generators are searched degree by degree; one span over every
    # degree, fed every generator column, must give the same indices
    fam = families[name] if name in families else build_all(build_ring(generate_weyl(build(name))))
    for w in fam.group:
        module = fam[w]
        image = RowSpan(module.dim)
        for a in module.gens:
            for column in a.transpose().data:
                image.add(column)
        expected = tuple(q for q in range(module.dim) if image.add({q: 1}))
        assert presentation(fam.ring, module).generators == expected


def test_each_presentation_is_built_once(monkeypatch):
    # presentations stay on their module, so the A3 pipeline, its quiver and
    # its duality pairings build each of the 24 exactly once
    built = []
    init = soergel.Presentation.__init__

    def counting_init(self, ring, module):
        built.append(module)
        init(self, ring, module)

    monkeypatch.setattr(soergel.Presentation, "__init__", counting_init)
    q = load_pipeline("A3", no_cache=True).quiver
    verdier_dual(q, ICModule({}, {}))
    assert len(built) == 24


def test_cold_build_forms_only_the_orbits_it_reads(monkeypatch):
    # each orbit sigma_v e_q is formed when a solve first reads it.  Forming
    # every column of every sigma_v for each target and cover instead gave
    # 11233 column vectors with 4548 nonzero entries on this build
    counts = {"vectors": 0, "entries": 0}
    form = schubert.Orbits.__missing__

    def counting(self, q):
        orbit = form(self, q)
        counts["vectors"] += len(orbit)
        counts["entries"] += sum(map(len, orbit))
        return orbit

    monkeypatch.setattr(schubert.Orbits, "__missing__", counting)
    load_pipeline("A3", no_cache=True)
    assert counts == {"vectors": 3008, "entries": 2522}
    assert counts["vectors"] < 11233 and counts["entries"] < 4548


def test_warm_pipeline_solves_nothing(tmp_path, monkeypatch):
    # the cache holds the Hom^1 bases and relators, so a warm pipeline and
    # its export build no presentation and solve no Hom space (576 solves
    # when the quiver was rebuilt from the cached modules)
    load_pipeline("A3", cache_dir=tmp_path)
    calls = []
    init = soergel.Presentation.__init__

    def counting_init(self, ring, module):
        calls.append("presentation")
        init(self, ring, module)

    def counting_solve(solve):
        def wrapper(*args):
            calls.append("hom")
            return solve(*args)
        return wrapper

    monkeypatch.setattr(soergel.Presentation, "__init__", counting_init)
    for module in (soergel, homspace, icmod):
        monkeypatch.setattr(module, "graded_hom_basis", counting_solve(module.graded_hom_basis))
    q = load_pipeline("A3", cache_dir=tmp_path, warn=pytest.fail).quiver
    q.relators()
    to_json_doc(q)
    assert calls == []


def test_hom_solve_leaves_no_reference_cycle():
    # neither the presentation kept on the module nor the memoized orbits
    # may point back at the module, or every temporary cover would outlive
    # its stage until a collection
    g = generate_weyl(build("A2"))
    ring = build_ring(g)
    other = trivial_module(ring)
    graded_hom_basis(ring, other, other, 0)  # evict an earlier test's target
    gc.collect()
    m = word_module(ring, [1, 2, 1])
    assert graded_hom_basis(ring, m, m, 0)
    assert m._presentation is not None
    graded_hom_basis(ring, other, other, 0)  # the orbit memo lets go of m
    del m
    assert gc.collect() == 0
