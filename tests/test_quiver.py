import json

from fractions import Fraction

import pytest

from oquiver.cache import load_pipeline
from oquiver.homspace import hom_basis
from oquiver.quiver import (
    MalformedPath,
    build_quiver,
    relator_str,
    to_dot,
    to_json_doc,
    to_text,
    vertex_ids,
)
from oquiver.rootsystem import build, generate_weyl
from oquiver.schubert import build_ring
from oquiver.soergel import build_all


@pytest.fixture(scope="module")
def a2_quiver():
    g = generate_weyl(build("A2"))
    family = build_all(build_ring(g))
    return build_quiver(family)


@pytest.fixture(scope="module")
def a1_quiver():
    g = generate_weyl(build("A1"))
    family = build_all(build_ring(g))
    return build_quiver(family)


from golden_a2 import RELATORS_A2, parse_appendix_relators
from relator_space import parse_relations, verify_relator_space


def _relators_as_dicts(q, skip=None):
    """The computed relators in the form of a relator list from outside,
    leaving out the pair `skip`."""
    return [
        {q.paths(*pair)[n]: c for n, c in row.items()}
        for pair, rows in q.relators().items()
        if pair != skip
        for row in rows
    ]


def test_a2_sixteen_arrows(a2_quiver):
    assert len(a2_quiver.group) == 6
    assert len(a2_quiver.arrows) == 16


def test_a2_relator_dimension_22(a2_quiver):
    assert a2_quiver.relator_dim() == 22


def test_a2_matches_classical_relator_list(a2_quiver):
    combos = parse_appendix_relators(a2_quiver, RELATORS_A2)
    assert len(combos) == 22
    assert verify_relator_space(a2_quiver, combos)


def test_a2_loop_pair_kills_both_loops(a2_quiver):
    g = a2_quiver.group
    w0 = g.longest
    rel = a2_quiver.relators()[(w0.idx, w0.idx)]
    assert len(rel) == 2
    assert len(a2_quiver.paths(w0.idx, w0.idx)) == 2


def test_a2_pair_23_span(a2_quiver):
    # relators from s1s2 (appendix 2) to s2s1 (appendix 3):
    # span{(243) + (213), (253) + (213)}
    g = a2_quiver.group
    y, w = g.parse("1.2"), g.parse("2.1")
    computed = a2_quiver.relators()[(y.idx, w.idx)]
    assert len(computed) == 2
    w0, s1, s2 = g.longest, g.simple(1), g.simple(2)
    want = [
        {(y.idx, 0, s1.idx, 0, w.idx): Fraction(1), (y.idx, 0, w0.idx, 0, w.idx): Fraction(1)},
        {(y.idx, 0, s2.idx, 0, w.idx): Fraction(1), (y.idx, 0, w0.idx, 0, w.idx): Fraction(1)},
    ]
    candidate = want + _relators_as_dicts(a2_quiver, skip=(y.idx, w.idx))
    assert verify_relator_space(a2_quiver, candidate)


def test_a1_projective_line(a1_quiver):
    g = a1_quiver.group
    assert len(a1_quiver.arrows) == 2
    dims = a1_quiver.quadratic_dims()
    s = g.longest  # the open-cell vertex
    e = g.identity
    assert dims["pairs"][(s.idx, s.idx)] == (1, 1, 0)
    assert dims["pairs"][(e.idx, e.idx)] == (1, 0, 1)
    assert dims["totals"] == (2, 1, 1)
    rel = a1_quiver.relators()
    assert rel[(s.idx, s.idx)] == [{0: 1}]
    assert a1_quiver.paths(s.idx, s.idx) == [(s.idx, 0, e.idx, 0, s.idx)]
    assert rel.get((e.idx, e.idx)) == []


def test_quadratic_dims_aggregate_matches_hom2(a2_quiver):
    g = a2_quiver.group
    fam = a2_quiver.family
    total_hom2 = sum(
        hom_basis(fam, y, w, 2).dim for y in g.elements for w in g.elements
    )
    dims = a2_quiver.quadratic_dims()
    assert dims["totals"][1] == 22
    assert total_hom2 == 22


def test_relator_pairs_have_even_gap(a2_quiver):
    g = a2_quiver.group
    for (y_idx, w_idx), rows in a2_quiver.relators().items():
        if rows:
            gap = g.elements[w_idx].length - g.elements[y_idx].length
            assert gap % 2 == 0


def test_arrow_symmetry(a2_quiver):
    g = a2_quiver.group
    for y in g.elements:
        for w in g.elements:
            assert a2_quiver.arrow_count(y, w) == a2_quiver.arrow_count(w, y)


def test_pm_one_reports(a2_quiver, a1_quiver):
    assert a2_quiver.all_pm_one()
    assert a1_quiver.all_pm_one()


def test_dsquared_entries_reduce_to_zero(a2_quiver):
    assert a2_quiver.relator_span_contains_all_products()


def test_verify_rejects_empty_and_accepts_self(a2_quiver):
    assert not verify_relator_space(a2_quiver, [])
    assert verify_relator_space(a2_quiver, _relators_as_dicts(a2_quiver))


def test_verify_malformed_path(a2_quiver):
    g = a2_quiver.group
    w0 = g.longest
    # a missing arrow: w0 -> e has one arrow, not four
    with pytest.raises(MalformedPath):
        verify_relator_space(a2_quiver, [{(w0.idx, 3, g.identity.idx, 0, w0.idx): 1}])
    # a missing vertex
    with pytest.raises(MalformedPath):
        verify_relator_space(a2_quiver, [{(w0.idx, 0, len(g), 0, w0.idx): 1}])
    # two paths that exist, but from different pairs
    first, second = (a2_quiver.paths(*pair)[0] for pair in list(a2_quiver.relators())[:2])
    assert (first[0], first[-1]) != (second[0], second[-1])
    with pytest.raises(MalformedPath, match="span the pairs"):
        verify_relator_space(a2_quiver, [{first: 1, second: 1}])


def test_parse_relations_rejects_endpoints_off_the_relation(a2_quiver):
    doc = json.loads(json.dumps(to_json_doc(a2_quiver)))
    rel = next(r for r in doc["relations"] if r["source"] != r["target"])
    path = rel["terms"][0]["path"]
    path[0], path[4] = path[4], path[0]  # a path of the reversed pair
    with pytest.raises(MalformedPath, match="does not run from"):
        parse_relations(a2_quiver, doc)


def test_json_round_trip(a2_quiver):
    for appendix in (False, True):
        doc = json.loads(json.dumps(to_json_doc(a2_quiver, appendix_numbering=appendix)))
        combos = parse_relations(a2_quiver, doc)
        assert verify_relator_space(a2_quiver, combos)
        assert len(doc["arrows"]) == 16
        assert len(doc["vertices"]) == 6


@pytest.mark.parametrize("coeff", ["0.5", "1e10000000"])
def test_parse_relations_reads_only_written_rationals(a2_quiver, coeff):
    # "p" and "p/q" only: a decimal is refused, and an exponent never builds its integer
    doc = json.loads(json.dumps(to_json_doc(a2_quiver)))
    doc["relations"][0]["terms"][0]["coeff"] = coeff
    with pytest.raises(ValueError):
        parse_relations(a2_quiver, doc)


def test_vertex_ids(a2_quiver, a1_quiver):
    g = a2_quiver.group
    ids = vertex_ids(a2_quiver, appendix_numbering=True)
    assert ids == [6, 4, 5, 2, 3, 1]  # e, s1, s2, s1s2, s2s1, w0
    assert vertex_ids(a2_quiver) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        vertex_ids(a1_quiver, appendix_numbering=True)


def test_text_and_dot_exports(a2_quiver):
    text = to_text(a2_quiver, appendix_numbering=True)
    assert "quiver A2: 6 vertices, 16 arrows, 22 relators" in text
    assert "(121)" in text
    dot = to_dot(a2_quiver)
    assert dot.startswith('digraph "A2"')
    assert dot.count("->") == 16


def test_combo_rendering(a2_quiver):
    ids = vertex_ids(a2_quiver, appendix_numbering=True)
    g = a2_quiver.group
    w0 = g.longest
    keys = a2_quiver.paths(w0.idx, w0.idx)
    rendered = {relator_str(ids, keys, row) for row in a2_quiver.relators()[(w0.idx, w0.idx)]}
    assert rendered == {"(121)", "(131)"}


def test_g2_pipeline_entries_are_int_or_fractions_with_denominators(tmp_path):
    """G2 has fractional Hom^1 entries; cold and restored, every generator,
    Hom^1 and relator entry is an int when integral and a Fraction otherwise."""
    cold = load_pipeline("G2", cache_dir=tmp_path)
    warm = load_pipeline("G2", cache_dir=tmp_path)
    for q in (cold.quiver, warm.quiver):
        hom1 = [v for basis in q.hom1.values() for b in basis for _, _, v in b.nonzero_items()]
        gens = [v for m in q.family.modules.values() for a in m.gens for _, _, v in a.nonzero_items()]
        relators = [c for rows in q.relators().values() for row in rows for c in row.values()]
        assert any(type(v) is Fraction for v in hom1)
        for v in hom1 + gens + relators:
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1)
    assert warm.quiver.hom1 == cold.quiver.hom1
    assert warm.quiver.relators() == cold.quiver.relators()
