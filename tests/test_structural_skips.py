"""The cold build skips solves and products whose result structure fixes:
Hom^0 solves for lower summands a cover cannot have, Hom^1 solves whose
reverse pair is zero, and the dtilde^2 rows outside the source's generator
columns.  Each skip must give what the full computation gives."""

import pytest

from oquiver.checks import CheckFailure, check_hom1_symmetry
from oquiver.linalg import canonical_basis
from oquiver.quiver import Quiver, _length2_paths, _product_rows, build_quiver
from oquiver.rootsystem import build, generate_weyl
from oquiver.schubert import build_ring
from oquiver.soergel import build_all, extend, extract_top, graded_hom_basis, presentation

TYPES = ["A2", "B2", "G2", "A3", "B3"]


@pytest.fixture(scope="module", params=TYPES)
def built(request):
    g = generate_weyl(build(request.param))
    family = build_all(build_ring(g))
    return family, build_quiver(family)


def test_filtered_cover_split_matches_the_unfiltered_one(built):
    family, _ = built
    g, ring = family.group, family.ring
    for w in g.elements[1:]:
        i = w.word[-1]
        cover = extend(ring, i, family[g.right_mult(w, i)])
        full, full_mults = extract_top(ring, cover, family.modules, w)
        quotient, mults = extract_top(ring, cover, family.modules, w, i)
        assert mults == full_mults, str(w)
        assert (quotient.degrees, quotient.gens) == (full.degrees, full.gens), str(w)
        assert (quotient.degrees, quotient.gens) == (family[w].degrees, family[w].gens), str(w)


def test_every_skipped_hom1_pair_solves_to_zero(built):
    family, q = built
    g, ring = family.group, family.ring
    skipped = 0
    for w in g.elements:  # target-major, as the build runs
        for y in g.elements:
            if y.idx < w.idx and (w.idx, y.idx) not in q.hom1:
                skipped += 1
                assert graded_hom_basis(ring, family[y], family[w], 1) == [], (str(y), str(w))
    assert skipped > 0


def test_generator_columns_span_every_relator_space(built):
    family, q = built
    for (y, w), keys in _length2_paths(q.hom1).items():
        source = family.modules[y]
        generators = presentation(family.ring, source).generators
        assert len(generators) < source.dim or source.dim == 1
        restricted = canonical_basis(_product_rows(q.hom1, keys, generators), len(keys))
        everything = canonical_basis(_product_rows(q.hom1, keys, range(source.dim)), len(keys))
        assert restricted == everything == q.relators()[(y, w)], (y, w)


def test_hom1_symmetry_solves_the_pairs_the_build_skips():
    # drop a nonzero pair in both directions: the counts stay symmetric, so
    # only solving the pair the build would skip finds the missing arrows
    g = generate_weyl(build("A2"))
    family = build_all(build_ring(g))
    q = build_quiver(family)
    check_hom1_symmetry(q)
    y, w = next((y, w) for y, w in q.hom1 if y < w)
    hom1 = {pair: basis for pair, basis in q.hom1.items() if pair not in ((y, w), (w, y))}
    dropped = Quiver(family, hom1, {pair: [] for pair in _length2_paths(hom1)})
    with pytest.raises(CheckFailure, match="nonzero but its reverse is zero"):
        check_hom1_symmetry(dropped)
