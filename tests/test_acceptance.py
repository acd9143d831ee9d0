"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything is exact rational arithmetic, so every comparison below
is equality, never approximate.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from golden_a2 import parse_appendix_relators
from relator_space import verify_relator_space

from oquiver.cache import load_pipeline
from oquiver.checks import check_prop36, check_verdier_involution, word_module_family
from oquiver.homspace import hom_basis
from oquiver.kl import ih_graded_dims, mu
from oquiver.soergel import hom_degree0

_PIPELINES = {}


def pipeline(name):
    if name not in _PIPELINES:
        _PIPELINES[name] = load_pipeline(name, no_cache=True)
        _PIPELINES[name].quiver  # force arrows
    return _PIPELINES[name]


def note(line):
    print(f"ACCEPTANCE {line}")


def test_criterion_1_a2_golden_quiver():
    t0 = time.perf_counter()
    q = pipeline("A2").quiver
    assert len(q.group) == 6
    assert len(q.arrows) == 16
    assert q.relator_dim() == 22
    assert verify_relator_space(q, parse_appendix_relators(q))
    took = time.perf_counter() - t0
    note(f"PASS 1: A2 golden quiver (6 vertices, 16 arrows, dim R = 22, "
         f"relator span matches the classical list; {took:.2f}s)")


def test_criterion_2_a2_cohomology_ring():
    p = pipeline("A2")
    g, ring = p.group, p.ring

    def cls(*words):
        return {g.parse(word).idx: 1 for word in words}

    table = {
        ("e", 1): cls("1"), ("e", 2): cls("2"),
        ("1", 1): cls("2.1"), ("1", 2): cls("2.1", "1.2"),
        ("2", 1): cls("2.1", "1.2"), ("2", 2): cls("1.2"),
        ("1.2", 1): cls("1.2.1"), ("1.2", 2): {},
        ("2.1", 1): {}, ("2.1", 2): cls("1.2.1"),
        ("1.2.1", 1): {}, ("1.2.1", 2): {},
    }
    for (word, i), want in table.items():
        assert ring.multiply_basis(g.parse(word), g.simple(i)) == want, (word, i)
    assert [str(w) for w in ring.invariant_basis(1)] == ["e", "2", "1.2"]
    assert [str(w) for w in ring.invariant_basis(2)] == ["e", "1", "2.1"]
    note("PASS 2: A2 generator multiplication table and invariant subalgebras "
         "match the classical tables exactly")


def test_criterion_3_a2_modules_and_hom1():
    p = pipeline("A2")
    g, fam, q = p.group, p.family, p.quiver
    expected_dims = {
        "e": {0: 1},
        "1": {-1: 1, 1: 1},
        "2": {-1: 1, 1: 1},
        "1.2": {-2: 1, 0: 2, 2: 1},
        "2.1": {-2: 1, 0: 2, 2: 1},
        "1.2.1": {-3: 1, -1: 2, 1: 2, 3: 1},
    }
    for word, dims in expected_dims.items():
        assert fam.graded_dims(g.parse(word)) == dims, word
    incident = set()
    for a, b in [("e", "1"), ("e", "2"), ("1", "1.2"), ("1", "2.1"),
                 ("2", "1.2"), ("2", "2.1"), ("1.2", "1.2.1"), ("2.1", "1.2.1")]:
        incident.add((g.parse(a).idx, g.parse(b).idx))
        incident.add((g.parse(b).idx, g.parse(a).idx))
    for y in g.elements:
        for w in g.elements:
            want = 1 if (y.idx, w.idx) in incident else 0
            assert q.arrow_count(y, w) == want, (str(y), str(w))
    note("PASS 3: A2 graded module dimensions and the 16 ordered Hom^1 pairs "
         "are exactly as tabulated")


def test_criterion_4_projective_line():
    q = pipeline("A1").quiver
    g = q.group
    assert len(g) == 2
    assert len(q.arrows) == 2
    relators = [(pair, row) for pair, rows in q.relators().items() for row in rows]
    assert len(relators) == 1
    (pair, row) = relators[0]
    s, e = g.longest, g.identity
    assert pair == (s.idx, s.idx)  # loop at the open-cell vertex
    assert [q.paths(*pair)[n] for n in row] == [(s.idx, 0, e.idx, 0, s.idx)]  # through the point
    note("PASS 4: A1 quiver is two vertices, two arrows, one relator "
         "(the loop at the open cell through the point)")


@pytest.mark.parametrize(
    "name,budget", [("A1", 30), ("A2", 30), ("B2", 30), ("G2", 30), ("A3", 600)]
)
def test_criterion_5_kl_oracle_suite(name, budget):
    t0 = time.perf_counter()
    p = pipeline(name)
    g, fam, q = p.group, p.family, p.quiver
    for w in g.elements:
        assert fam.graded_dims(w) == ih_graded_dims(g, w), str(w)
        for y in g.elements:
            assert q.arrow_count(y, w) == mu(g, y, w), (str(y), str(w))
    took = time.perf_counter() - t0
    assert took < budget
    note(f"PASS 5[{name}]: arrow counts equal mu and graded dims equal the KL "
         f"Poincare polynomials, exhaustively ({took:.1f}s < {budget}s)")


def test_criterion_6_prop36_equivalence():
    q = pipeline("A2").quiver
    valid, invalid = check_prop36(q, seed=20240817, count=200)
    assert valid + invalid == 200
    note(f"PASS 6: 200 seeded A2 representations, relator annihilation and "
         f"d^2 = 0 agreed on every one ({valid} valid, {invalid} invalid)")


def test_criterion_7_structural_invariants():
    p = pipeline("A2")
    g, fam, ring, q = p.group, p.family, p.ring, p.quiver
    # Hom^0 delta
    for y in g.elements:
        for w in g.elements:
            assert len(hom_degree0(ring, fam[y], fam[w])) == (1 if y == w else 0)
    # arrow-count symmetry and parity vanishing
    for y in g.elements:
        for w in g.elements:
            assert q.arrow_count(y, w) == q.arrow_count(w, y)
            for d in (0, 1, 2):
                if (d - (w.length - y.length)) % 2 != 0:
                    assert hom_basis(fam, y, w, d).dim == 0
    # aggregate dim R vs Hom^2, both computed, both 22
    total_hom2 = sum(hom_basis(fam, y, w, 2).dim for y in g.elements for w in g.elements)
    assert q.relator_dim() == 22
    assert total_hom2 == 22
    # Verdier involution on 50 seeded modules
    check_verdier_involution(q, seed=7, count=50)
    # shortcut vs full construction for A2 and B2
    for name in ("A2", "B2"):
        pp = pipeline(name)
        full = word_module_family(pp.ring)
        for w in pp.group.elements:
            assert pp.family.graded_dims(w) == full[w.idx].graded_dims()
            maps = hom_degree0(pp.ring, pp.family[w], full[w.idx])
            assert len(maps) == 1
    note("PASS 7: Hom^0 delta, arrow symmetry, parity vanishing, "
         "sum dim R = sum dim Hom^2 = 22, Verdier involution on 50 modules, "
         "and shortcut/full agreement for A2 and B2")


def test_criterion_8_determinism(tmp_path):
    args = [sys.executable, "-m", "oquiver.cli", "quiver", "--type", "A3", "--format", "json"]
    root = Path(__file__).resolve().parent.parent
    cwd = str(root)

    def run(cache_dir):
        return subprocess.run(
            args,
            env={
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": str(root / "src"),
                "OQUIVER_CACHE": str(cache_dir),
            },
            capture_output=True,
            cwd=cwd,
        )

    cold_a = run(tmp_path / "one")
    cold_b = run(tmp_path / "two")
    warm = run(tmp_path / "one")
    assert cold_a.returncode == cold_b.returncode == warm.returncode == 0
    assert cold_a.stdout == cold_b.stdout
    assert cold_a.stdout == warm.stdout
    doc = json.loads(cold_a.stdout)
    assert len(doc["vertices"]) == 24
    note("PASS 8: two cold runs and a warm run of `quiver --type A3 --format json` "
         "are byte-identical")
