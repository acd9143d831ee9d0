import contextlib
import functools
import gc
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oquiver import cache, homspace, rootsystem, schubert
from oquiver.cli import main
from oquiver.checks import sample_reps
from oquiver.icmod import MAX_TOTAL_DIM, icmodule_from_doc, icmodule_to_doc, verdier_dual
from oquiver.linalg import exact, format_rational, parse_rational
from oquiver.quiver import to_json_doc, to_text
from relator_space import parse_relations, verify_relator_space


def run_cli(*argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "oquiver.cli", *argv],
        capture_output=True,
        env=env,
        cwd=str(Path(__file__).resolve().parent.parent),
    )


def test_weyl(capsys):
    code, out, _ = run_cli("weyl", "--type", "B2", capsys=capsys)
    assert code == 0
    assert "W(B2): 8 elements" in out
    assert "1.2.1.2  (length 4)" in out


def test_cohomology_table(capsys):
    code, out, _ = run_cli("cohomology", "--type", "A2", "--table", capsys=capsys)
    assert code == 0
    assert "dimension 6" in out
    assert "σ[1.2] + σ[2.1]" in out


#: sha256 of `cohomology --table` stdout; B2, G2 and B3 have fractional
#: Chevalley scalars, so their tables pin the ring arithmetic off type A
COHOMOLOGY_TABLE_SHA256 = {
    "A2": "4d2c9664628f57f2f3613498d5d6792709fed7c8fe7e30d5c353dc80c49c0b22",
    "B2": "15e7d0f866d1185b225bd1f039119e856ee9aef77033b661d635f7ae66b30ad1",
    "G2": "02b99add8a5a5d9b0a69dbb70a6f3345ea40e2deb18fb685b68d8fc3087b5c7f",
    "B3": "0a188de55a7cb2be279fd82bd6b2f46cf9f7ff3623565c9e28e4f784a1cdf3a8",
}


@pytest.mark.parametrize("name", sorted(COHOMOLOGY_TABLE_SHA256))
def test_cohomology_table_bytes_are_pinned(name, capsys):
    code, out, _ = run_cli("cohomology", "--type", name, "--table", capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COHOMOLOGY_TABLE_SHA256[name]


def test_cohomology_invariants(capsys):
    code, out, _ = run_cli("cohomology", "--type", "A2", capsys=capsys)
    assert code == 0
    assert "invariants of s_1: 1, σ[2], σ[1.2]" in out


def test_ih_graded_dims(capsys):
    code, out, _ = run_cli(
        "ih", "--type", "A2", "--element", "1.2.1", "--no-cache", capsys=capsys
    )
    assert code == 0
    assert out.strip() == "1 2 2 1"


def test_ih_dump(capsys):
    code, out, _ = run_cli(
        "ih", "--type", "A2", "--element", "1", "--dump", "--no-cache", capsys=capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"system", "element", "degrees", "action"}
    assert doc["degrees"] == [-1, 1]
    assert doc["action"]["1"] == [["0", "0"], ["1", "0"]]


#: sha256 of `ih --dump --no-cache` stdout: degrees and every class's action
IH_DUMP_SHA256 = {
    ("A2", "1"): "c9572e1934d88d7bc278d1df68447cafcefafcf8abcc1e27444972c09b3e1b02",
    ("B2", "1.2.1"): "8c3615f0104ed3a75a3778bbe42a532f5484325fc0140767bd8660db5a380ee8",
}


@pytest.mark.parametrize("name,element", sorted(IH_DUMP_SHA256))
def test_ih_dump_bytes_are_pinned(name, element, capsys):
    code, out, _ = run_cli("ih", "--type", name, "--element", element, "--dump", "--no-cache", capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == IH_DUMP_SHA256[(name, element)]


def test_hom(capsys):
    code, out, _ = run_cli(
        "hom", "--type", "A2", "--from", "e", "--to", "1", "--degree", "1",
        "--no-cache", capsys=capsys,
    )
    assert code == 0
    assert "dim Hom^1(V[e], V[1]) = 1" in out


def test_kl(capsys):
    code, out, _ = run_cli("kl", "--type", "B2", "--from", "e", "--to", "1.2.1.2", capsys=capsys)
    assert code == 0
    assert "P[e, 1.2.1.2] = 1" in out
    assert "mu = 0" in out


def test_quiver_text_appendix(capsys):
    code, out, _ = run_cli(
        "quiver", "--type", "A2", "--format", "text", "--appendix-numbering",
        "--no-cache", capsys=capsys,
    )
    assert code == 0
    assert "quiver A2: 6 vertices, 16 arrows, 22 relators" in out
    assert "(121)" in out and "(131)" in out


def test_quiver_json_round_trip(tmp_path, capsys):
    out_file = tmp_path / "a2.json"
    code, _, _ = run_cli(
        "quiver", "--type", "A2", "--format", "json", "--no-cache",
        "--out", str(out_file), capsys=capsys,
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    q = cache.load_pipeline("A2", no_cache=True).quiver
    assert verify_relator_space(q, parse_relations(q, doc))


def test_quiver_dot(capsys):
    code, out, _ = run_cli(
        "quiver", "--type", "A1", "--format", "dot", "--no-cache", capsys=capsys
    )
    assert code == 0
    assert out.startswith('digraph "A1"')
    assert out.count("->") == 2


def test_check_suite(capsys):
    code, out, _ = run_cli(
        "check", "--type", "A2", "--suite", "ring", "--no-cache", "--seed", "3",
        capsys=capsys,
    )
    assert code == 0
    assert "ok   ring-commutative" in out
    assert "checks passed" in out


def test_check_modules_suite_a3(capsys):
    # the comparison with the word-module reference is gated to rank 2:
    # full word modules cannot be separated from A3 on
    code, out, _ = run_cli(
        "check", "--type", "A3", "--suite", "modules", "--no-cache", capsys=capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("2/2 checks passed")
    assert all(line.startswith("ok   ") for line in lines[:-1])


def test_unknown_type_is_domain_error(capsys):
    code, _, err = run_cli("weyl", "--type", "Z9", capsys=capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "name,fragment",
    [("A8", "= 362880 exceeds"), ("B7", "= 645120 exceeds"), ("E6", "= 51840 exceeds"),
     ("A1000", ">= 2^1000 exceeds"), ("A1000000000000", "13-digit n exceeds"),
     ("A" + "1" * 4301, "4301-digit n exceeds"), ("E9", "E_n needs n in {6, 7, 8}"),
     ("E" + "1" * 4301, "E_n needs n in {6, 7, 8}")],
    ids=["A8", "B7", "E6", "A1000", "A10^12", "4301-digit", "E9", "E-4301-digit"],
)
def test_group_bound_is_decided_before_any_root_data(name, fragment, monkeypatch, capsys):
    # building A1000's Cartan matrix and roots would take hours, so refuse
    # from (type, rank) alone: any root data built here fails the test
    def refuse(*args):
        raise AssertionError("root data built for a type past the bound")

    monkeypatch.setattr(rootsystem, "_cartan_and_symmetrizer", refuse)
    monkeypatch.setattr(rootsystem, "_positive_root_closure", refuse)
    code, out, err = run_cli("weyl", "--type", name, capsys=capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err


def test_document_rank_past_the_bound_is_one_error_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(rootsystem, "_positive_root_closure", pytest.fail)
    file = tmp_path / "doc.json"
    file.write_text(json.dumps({"system": {"type": "A", "rank": 1000}, "stalks": {}}))
    code, out, err = run_cli("icmod", "validate", str(file), "--no-cache", capsys=capsys)
    assert (code, out) == (1, "")
    assert err == "error: |W(A1000)| >= 2^1000 exceeds the supported bound 50000\n"


def test_bad_element_is_domain_error(capsys):
    code, _, err = run_cli(
        "ih", "--type", "A2", "--element", "7.7", "--no-cache", capsys=capsys
    )
    assert code == 1
    assert "error:" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["quiver", "--type", "A2", "--format", "yaml"])
    assert info.value.code == 2
    # modules are built one way only: no subcommand takes --full
    for argv in (
        ["quiver", "--type", "A2"],
        ["ih", "--type", "A2", "--element", "e"],
        ["hom", "--type", "A2", "--from", "e", "--to", "1"],
        ["check", "--type", "A2"],
        ["icmod", "validate", "module.json"],
    ):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--full", "--no-cache"])
        assert info.value.code == 2, argv


@pytest.mark.parametrize("name", ["A1", "B2"])
def test_appendix_numbering_outside_a2_is_domain_error(name, tmp_path, capsys):
    # rejected before the pipeline is built: no traceback, no cache file
    code, out, err = run_cli(
        "quiver", "--type", name, "--appendix-numbering",
        "--cache-dir", str(tmp_path / "cache"), capsys=capsys,
    )
    assert code == 1
    assert out == ""
    assert err == "error: appendix numbering is only defined for A2\n"
    assert not (tmp_path / "cache").exists()


def test_icmod_commands(tmp_path, capsys):
    from oquiver.icmod import ICModule
    from oquiver.linalg import QMatrix

    pipeline = cache.load_pipeline("A1", no_cache=True)
    q = pipeline.quiver
    g = pipeline.group
    e, s = g.identity, g.longest
    module = ICModule({e.idx: 1, s.idx: 1}, {(s.idx, e.idx): [(0, QMatrix([[1]]))]})
    file = tmp_path / "p1.json"
    file.write_text(json.dumps(icmodule_to_doc(q, module)))

    code, out, _ = run_cli("icmod", "validate", str(file), "--no-cache", capsys=capsys)
    assert code == 0 and "valid: d^2 = 0" in out

    code, out, _ = run_cli("icmod", "cohomology", str(file), "--no-cache", capsys=capsys)
    assert code == 0 and out.strip() == "H^1: 1"

    dual_file = tmp_path / "dual.json"
    code, _, _ = run_cli(
        "icmod", "dual", str(file), "--out", str(dual_file), "--no-cache", capsys=capsys
    )
    assert code == 0
    dual = icmodule_from_doc(q, json.loads(dual_file.read_text()))
    assert set(dual.boundary) == {(e.idx, s.idx)}

    # an invalid module: both boundary maps nonzero
    bad = ICModule(
        {e.idx: 1, s.idx: 1},
        {(s.idx, e.idx): [(0, QMatrix([[1]]))], (e.idx, s.idx): [(0, QMatrix([[1]]))]},
    )
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(icmodule_to_doc(q, bad)))
    code, out, _ = run_cli("icmod", "validate", str(bad_file), "--no-cache", capsys=capsys)
    assert code == 1 and "invalid" in out
    code, _, err = run_cli("icmod", "cohomology", str(bad_file), "--no-cache", capsys=capsys)
    assert code == 1 and "error:" in err


def test_cold_warm_and_corrupt_cache(tmp_path):
    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
        "OQUIVER_CACHE": str(tmp_path / "cache"),
    }
    args = ("quiver", "--type", "A2", "--format", "json")
    cold = run_proc(*args, env=env)
    assert cold.returncode == 0
    warm = run_proc(*args, env=env)
    assert warm.returncode == 0
    assert cold.stdout == warm.stdout
    assert warm.stderr == b""

    # the other exports and an IC-module document read the same from the cache
    document = tmp_path / "doc.json"
    document.write_text(json.dumps({
        "system": {"type": "A", "rank": 2},
        "stalks": {"e": 1, "1": 1},
        "boundary": [{"from": "1", "to": "e", "k": 0, "matrix": [["1"]]}],
    }))
    for argv in (
        ("quiver", "--type", "A2", "--format", "text"),
        ("quiver", "--type", "A2", "--format", "dot"),
        ("icmod", "validate", str(document)),
    ):
        uncached = run_proc(*argv, "--no-cache", env=env)
        assert uncached.returncode == 0
        warm = run_proc(*argv, env=env)
        assert (warm.returncode, warm.stdout, warm.stderr) == (0, uncached.stdout, b"")

    # flip one byte inside the cache file: checksum must catch it
    (cache_file,) = (tmp_path / "cache").glob("*.json")
    assert cache_file.name == f"a2-v{cache.ARTIFACT_VERSION}.json"
    original = cache_file.read_bytes()
    blob = bytearray(original)
    pos = blob.find(b'"degrees"')
    blob[pos + 1 : pos + 2] = b"x"
    cache_file.write_bytes(bytes(blob))
    again = run_proc(*args, env=env)
    assert again.returncode == 0
    assert b"recomputing" in again.stderr
    assert again.stdout == cold.stdout

    # not UTF-8, or valid JSON of the wrong shape: warn and recompute, never a traceback
    wrong_payload = json.dumps({"artifact_version": cache.ARTIFACT_VERSION, "payload": [1]})
    for blob in (b"garbage\xff", b"[1, 2]", wrong_payload.encode()):
        cache_file.write_bytes(blob)
        again = run_proc(*args, env=env)
        assert again.returncode == 0
        assert b"recomputing" in again.stderr
        assert again.stdout == cold.stdout

    # a version-3 document (modules with "provenance"), checksum intact, at
    # the current path is stale: recomputed and replaced by the current document.
    # Versions up to 6 hashed the payload's sorted compact dump
    payload = json.loads(original)["payload"]
    for doc in payload["modules"].values():
        doc["provenance"] = "V[w] from extend(i, V[w s_i]) / lower terms"
    checksum = hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    stale = {"artifact_version": 3, "system": payload["system"], "checksum": checksum, "payload": payload}
    cache_file.write_text(json.dumps(stale))
    again = run_proc(*args, env=env)
    assert again.returncode == 0
    assert f"cache {cache_file.name} has version 3; recomputing".encode() in again.stderr
    assert again.stdout == cold.stdout
    assert cache_file.read_bytes() == original

    nocache = run_proc(*args, "--no-cache", env=env)
    assert nocache.stdout == cold.stdout


#: sha256 of the cold `quiver --format json` stdout and of the cache file
#: it writes; a cache written by one version must reproduce a cold run of the next.
#: The file is the artifact-v7 header, the compact payload with integral
#: entries as JSON numbers, and "}"
PINNED_SHA256 = {
    "A1": ("2c36909f11c58de5f4a6c8d8427ab18fb56368aa03e3f3a8514bd578154d2a97",
           "483c4f3afbc39bd01e42c9d8b4013b1c3ceea0baa5d6139f39160bf3442bc0ed"),
    "A2": ("9eaeb144c01d7bd252f7e2f57a4bf3a91bdc36ebf4f1a7bbb417e7e9d875c962",
           "5f15489ba8ea0aceb41891198c20a2507db94ec845ad6f8fa67f962617b1c402"),
    "B2": ("d067556ecac1c594d857b19d47d0dcacc45de2ea05a705205eacec96a15348b6",
           "2d994a07b5840031db9d6f9ddf4a924c58e49d2d6d5e802f4fade2bdae6a58e0"),
    "G2": ("4426d788588bfd1c918146263dc2cd2d7698e924f08d3afdf1afb22d507c581e",
           "1c50a14e9293116ba247b99baef02cfeb9e66d31af48693f9198398ddabbd76b"),
    "A3": ("1328de2b71e7bd7433816575dfe808687f1385c11e14bc2ab6e19268d6aea454",
           "4883c3e41351a9f7be5e3688d4af141dc369eec058298f2a1be7a3ee1a286f62"),
    # the only pinned type whose generator matrices have denominators
    "B3": ("34865411effc66570c59995870ac26122dea59e06444e46cab579c6e67b14f07",
           "1385eacf7130ad8be873329a6b689ac6838ee6e18b4518655bbae4fd82c71736"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_cold_json_and_cache_file_bytes_are_pinned(name, tmp_path, capsys):
    code, out, _ = run_cli("quiver", "--type", name, "--format", "json", "--cache-dir", str(tmp_path), capsys=capsys)
    assert code == 0
    digests = (hashlib.sha256(out.encode()).hexdigest(),
               hashlib.sha256(cache.cache_file(tmp_path, name).read_bytes()).hexdigest())
    assert digests == PINNED_SHA256[name]


#: sha256 of cold `quiver --format text` and `--format dot` output; B2 and G2
#: have fractional relator coefficients and the verdict "no"
PINNED_TEXT_DOT_SHA256 = {
    ("A2", "text"): "2610722b45653b0b272abedd5ccaf8624c3ab3bb7a88518c8daf958066acb3ff",
    ("A2", "dot"): "cdb9296e31471e3955b00f5335df73f9780f2b01f1c381418e7098ff33c5a3d9",
    ("B2", "text"): "ab326457d7ee267a811bd7f4c5c2a9040973900739e801dc7bf11e6ada9fe50e",
    ("B2", "dot"): "07f58d73422fafd000dbea6b56438af916a9effd96097ba14bcfdcfaf7c881eb",
    ("G2", "text"): "fdf321f7221e3db7ece034b4dfb0fcb583460dc7bf996f3318401915218c3b61",
    ("G2", "dot"): "1d10a407f3c141b6dfae7444888ad1269e3806ff636af97dd5b380cdb03a9a49",
    ("A3", "text"): "1c133b09d5d6df2c20b840c91a1c4dbb8dc0573645193c6a4b6f2fd40370a0cd",
    ("A3", "dot"): "03f1b9292baf76b5ef42ce480f66856a09b98e36bd34930c5cc96f1633a9e24d",
}


@pytest.mark.parametrize("name,fmt", sorted(PINNED_TEXT_DOT_SHA256))
def test_cold_text_and_dot_are_pinned(name, fmt, capsys):
    code, out, _ = run_cli("quiver", "--type", name, "--format", fmt, "--no-cache", capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TEXT_DOT_SHA256[(name, fmt)]


def _in_module_1(change):
    def mutate(payload):
        change(payload["modules"]["1"])
    return mutate


def _push_entry_past_last_row(doc):
    doc["gens"][0][0][0] = len(doc["degrees"])


def _set_first_entry(value):
    def change(doc):
        doc["gens"][0][0][2] = value
    return change


def _set_degrees(degrees, gens=None):
    def change(doc):
        doc["degrees"] = degrees
        if gens is not None:
            doc["gens"] = gens
    return change


def _first_hom1_map(payload):
    """The first Hom^1 map's triples, with the degrees of its source and target."""
    y, w, basis = payload["hom1"][0]
    degrees = [payload["modules"][payload["elements"][v]]["degrees"] for v in (y, w)]
    return basis[0], degrees[0], degrees[1]


def _hom1_pair_out_of_range(payload):
    payload["hom1"][0][1] = len(payload["elements"])


def _hom1_map_too_tall(payload):
    triples, _, target = _first_hom1_map(payload)
    triples[0][0] = len(target)


def _hom1_entry_off_degree(payload):
    triples, source, target = _first_hom1_map(payload)
    q = triples[0][1]
    triples[0][0] = next(p for p, d in enumerate(target) if d != source[q] + 1)


def _hom1_map_repeated(payload):
    # a second copy of the first map: two arrows where Hom^1 has one
    basis = payload["hom1"][0][2]
    basis.append([list(triple) for triple in basis[0]])


def _hom1_map_zero(payload):
    # a zero map is no basis vector, yet would print as an arrow
    payload["hom1"][0][2][0] = []


def _hom1_map_rescaled(payload):
    # the same arrow, but no longer the canonical basis (pivot 2, not 1)
    triples, _, _ = _first_hom1_map(payload)
    for triple in triples:
        value = exact(2 * parse_rational(str(triple[2])))
        triple[2] = value if type(value) is int else format_rational(value)


def _first_relator_term(value):
    def mutate(payload):
        rows = next(rows for _, _, rows in payload["relators"] if rows)
        rows[0][0] = value
    return mutate


def _drop_last_relator_pair(payload):
    payload["relators"].pop()


def _set_system(label, rank):
    # B3 and C3 have the same element words, so only the system tells them apart
    def mutate(payload):
        payload["system"] = {"type": label, "rank": rank}
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _in_module_1(_push_entry_past_last_row),
        _in_module_1(_set_degrees([0, 0])),
        _in_module_1(_set_degrees(["a", 1])),
        _in_module_1(_set_degrees([], gens=[[], []])),
        _in_module_1(_set_first_entry("1")),
        _in_module_1(_set_first_entry(True)),
        _in_module_1(_set_first_entry("1e5")),
        _hom1_pair_out_of_range,
        _hom1_map_too_tall,
        _hom1_entry_off_degree,
        _hom1_map_repeated,
        _hom1_map_zero,
        _hom1_map_rescaled,
        _first_relator_term([999, "1"]),
        _first_relator_term([-1, "1"]),
        _first_relator_term([0, 0]),
        _first_relator_term([0, 1.0]),
        _drop_last_relator_pair,
        _set_system("B", 2),
    ],
    ids=["generator-not-square", "degrees-not-shifted", "degree-not-int", "no-degrees",
         "entry-integral-string", "entry-bool", "entry-exponent", "hom1-pair-out-of-range",
         "hom1-map-too-tall", "hom1-entry-off-degree", "hom1-map-repeated", "hom1-map-zero",
         "hom1-map-rescaled",
         "relator-path-out-of-range", "relator-path-negative",
         "relator-coefficient-zero", "relator-coefficient-1.0", "relator-pair-missing",
         "system-mismatch"],
)
def test_checksummed_cache_with_malformed_module_is_recomputed(mutate, tmp_path, capsys):
    # a cache file whose checksum holds but whose module, Hom^1 basis or
    # relator is not shaped like one must be rebuilt, never trusted (a cut
    # generator gave a wrong quiver)
    args = ("quiver", "--type", "A2", "--format", "json", "--cache-dir", str(tmp_path))
    code, cold, _ = run_cli(*args, capsys=capsys)
    assert code == 0
    path = cache.cache_file(tmp_path, "A2")
    payload = json.loads(path.read_bytes())["payload"]
    mutate(payload)
    path.write_bytes(cache.encode_file(payload))
    # the forged file passes its checksum, so only `restore` can refuse it
    group = rootsystem.generate_weyl(rootsystem.build("A2"))
    with pytest.raises((KeyError, ValueError, IndexError, TypeError, ZeroDivisionError)):
        cache.restore(group, json.loads(path.read_bytes())["payload"])
    code, out, err = run_cli(*args, capsys=capsys)
    assert code == 0
    assert err.startswith(f"warning: cache {path.name} malformed (") and err.endswith("; recomputing\n")
    assert err.count("\n") == 1
    assert out == cold


def test_store_writes_through_a_private_temporary_file(tmp_path):
    # an entry at "<name>.tmp" (another writer's, say) must not break a
    # store, and a store leaves nothing but the cache file behind
    pipeline = cache.load_pipeline("A1", no_cache=True)
    path = cache.cache_file(tmp_path, "A1")
    path.with_suffix(".tmp").mkdir()
    cache.store(path, pipeline.quiver)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [path.name, path.with_suffix(".tmp").name]
    )
    restored = cache.load(path, pipeline.group, warn=pytest.fail)
    assert restored is not None
    assert [m.gens for m in restored.family.modules.values()] == [
        m.gens for m in pipeline.family.modules.values()
    ]


def test_cache_file_in_another_layout_is_one_warning_line(tmp_path, capsys):
    # the single-dump envelope of artifact v6 and earlier, at the current path:
    # a stale version is named, and the current version in that layout is
    # refused as not stored by this writer; both are recomputed and replaced
    args = ("quiver", "--type", "A2", "--format", "json", "--cache-dir", str(tmp_path))
    code, cold, _ = run_cli(*args, capsys=capsys)
    assert code == 0
    path = cache.cache_file(tmp_path, "A2")
    original = path.read_bytes()
    envelope = json.loads(original)
    for version, reason in ((6, "has version 6"), (cache.ARTIFACT_VERSION, "malformed (not in the stored layout)")):
        envelope["artifact_version"] = version
        path.write_text(json.dumps(envelope))
        code, out, err = run_cli(*args, capsys=capsys)
        assert (code, out, err) == (0, cold, f"warning: cache {path.name} {reason}; recomputing\n")
        assert path.read_bytes() == original


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("refused", [False, True], ids=["hit", "refused"])
def test_load_leaves_the_collector_as_it_found_it(enabled, refused, tmp_path):
    group = cache.load_pipeline("A1", cache_dir=tmp_path).group
    path = cache.cache_file(tmp_path, "A1")
    if refused:  # passes its checksum, refused by `restore`
        payload = json.loads(path.read_bytes())["payload"]
        payload["system"] = {"type": "B", "rank": 2}
        path.write_bytes(cache.encode_file(payload))
    was_enabled = gc.isenabled()
    warnings = []
    try:
        gc.enable() if enabled else gc.disable()
        q = cache.load(path, group, warnings.append)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert (q is None, len(warnings)) == (refused, int(refused))


def test_warm_quiver_builds_no_ring_until_a_solve_reads_it(tmp_path, monkeypatch):
    cache.load_pipeline("A2", cache_dir=tmp_path)
    built = []
    init = schubert.CohRing.__init__

    def counted_init(ring, group):
        built.append(ring)
        init(ring, group)

    monkeypatch.setattr(schubert.CohRing, "__init__", counted_init)
    pipeline = cache.load_pipeline("A2", cache_dir=tmp_path, warn=pytest.fail)
    to_json_doc(pipeline.quiver)
    to_text(pipeline.quiver)
    assert built == []

    # built once, on first read, and the ring every later solve is given
    ring = pipeline.family.ring
    assert built == [ring] and pipeline.ring is ring and pipeline.family.ring is ring
    rings = []
    solve = homspace.graded_hom_basis
    monkeypatch.setattr(homspace, "graded_hom_basis", lambda r, *args: rings.append(r) or solve(r, *args))
    g = pipeline.group
    assert homspace.hom_basis(pipeline.family, g.identity, g.simple(1), 1).dim == 1
    cache.module_doc(pipeline, g.longest)
    assert rings == [ring] and built == [ring]


def test_unwritable_cache_dir_is_domain_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code, _, err = run_cli(
        "ih", "--type", "A2", "--element", "e",
        "--cache-dir", str(blocker / "sub"), capsys=capsys,
    )
    assert code == 1
    assert "error:" in err


def test_closed_stdout_exits_141_without_a_message():
    # the read end is closed before the CLI writes, so every write fails:
    # a reader that stops early (like `head`) is not an error of the run
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for argv in (("weyl", "--type", "B3"), ("quiver", "--type", "A2", "--format", "text", "--no-cache")):
        proc = subprocess.Popen(
            [sys.executable, "-m", "oquiver.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert err == b""


def test_missing_input_and_unwritable_out_are_domain_errors(tmp_path, capsys):
    code, out, err = run_cli("icmod", "dual", str(tmp_path / "missing.json"), "--no-cache", capsys=capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    document = tmp_path / "doc.json"
    document.write_text(json.dumps(_a1_doc()))
    code, out, err = run_cli(
        "icmod", "dual", str(document), "--out", str(tmp_path / "no-dir" / "dual.json"),
        "--no-cache", capsys=capsys,
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


A1_SYSTEM = {"type": "A", "rank": 1}


def _a1_doc(**changes):
    """The README's A1 document with top-level keys replaced (None drops a key)."""
    doc = {
        "system": A1_SYSTEM,
        "stalks": {"e": 1, "1": 1},
        "boundary": [{"from": "1", "to": "e", "k": 0, "matrix": [["1"]]}],
    }
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


def _a1_entry(**changes):
    return [{"from": "1", "to": "e", "k": 0, "matrix": [["1"]], **changes}]


def _a2_doc(*boundary):
    """An A2 document with stalks e: 1 and 1: 1 and the given boundary entries."""
    return {"system": {"type": "A", "rank": 2}, "stalks": {"e": 1, "1": 1}, "boundary": list(boundary)}


def _zeros(rows, cols):
    return [["0"] * cols for _ in range(rows)]


@pytest.mark.parametrize(
    "doc,fragment",
    [
        (_a1_doc(stalks=None), "no stalks"),
        (_a1_doc(boundary=_a1_entry(k="x")), "k is 'x'"),
        (_a1_doc(boundary=_a1_entry(matrix=[["abc"]])), "abc"),
        (_a1_doc(boundary=_a1_entry(matrix=[["1/0"]])), "bad matrix entry"),
        ([1, 2], "not a JSON object"),
        (_a1_doc(system="A1"), "system is not an object"),
        (_a1_doc(stalks={"e": -1, "1": -1}), "not a nonnegative integer"),
        (_a1_doc(stalks={"e": 1.5, "1": 1}), "not a nonnegative integer"),
        (_a1_doc(boundary=_a1_entry(matrix="1")), "not a list of rows"),
        (_a1_doc(boundary=_a1_entry(matrix=[["1e5000"]])), "bad matrix entry"),
        (_a1_doc(boundary=_a1_entry(matrix=[["1e10000000"]])), "bad matrix entry"),
        (_a1_doc(boundary=_a1_entry(matrix=[["0.5"]])), "bad matrix entry"),
        # a matrix with several faults is named by the first in the order:
        # not a list of lists, an entry not a string, a bad entry, ragged rows
        (_a1_doc(boundary=_a1_entry(matrix=[["x"], [1], "1"])), "not a list of rows"),
        (_a1_doc(boundary=_a1_entry(matrix=[["x"], [1]])), 'must be strings like "p/q"'),
        (_a1_doc(boundary=_a1_entry(matrix=[["1", "2"], ["1/0"]])), "bad matrix entry (Fraction(1, 0))"),
        (_a1_doc(boundary=_a1_entry(matrix=[["1", "2"], ["1"]])), "error: ragged rows"),
        (_a1_doc(stalks={"e": 10**30}), f"more than {MAX_TOTAL_DIM} dimensions"),
        # dim V_e = 1 and dim V_1 = 2, so one past the bound
        (_a1_doc(stalks={"e": 1, "1": MAX_TOTAL_DIM // 2}), f"more than {MAX_TOTAL_DIM} dimensions"),
        # zero matrices are checked like any other before they are dropped
        (_a2_doc({"from": "e", "to": "1", "k": 7, "matrix": _zeros(2, 3)}), "hom index 7 out of range"),
        (_a2_doc({"from": "e", "to": "1", "k": 7, "matrix": [["1"]]}), "hom index 7 out of range"),
        (_a2_doc({"from": "e", "to": "1.2.1", "k": 0, "matrix": [["0"]]}), "non-incident pair"),
        (_a2_doc({"from": "e", "to": "1", "k": 0, "matrix": _zeros(2, 3)}), "is 2x3, expected 1x1"),
        (_a2_doc({"from": "e", "to": "1", "k": 0, "matrix": []}), "is 0x1, expected 1x1"),
        # summed into d, but a dual gives one term: `icmod dual` twice would differ
        (_a1_doc(boundary=_a1_entry() + _a1_entry(matrix=[["2"]])), "repeats hom index 0 on pair (1, 0)"),
        # "1.1" is e written again: a dict would keep the last stalk
        (_a1_doc(stalks={"e": 1, "1.1": 2}), "stalk element 1.1 names e again"),
    ],
    ids=["no-stalks", "k-text", "entry-abc", "entry-1/0", "list", "system-text",
         "stalk-negative", "stalk-float", "matrix-text", "entry-exponent",
         "entry-huge-exponent", "entry-decimal", "first-fault-row-not-list",
         "first-fault-entry-not-string", "first-fault-bad-entry", "ragged",
         "stalk-huge", "stalks-past-bound",
         "zero-k-out-of-range", "k-out-of-range", "zero-non-incident", "zero-bad-shape",
         "empty-matrix", "repeated-term", "stalk-repeated"],
)
def test_malformed_icmodule_document_is_one_error_line(doc, fragment, tmp_path, capsys):
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    code, out, err = run_cli("icmod", "cohomology", str(file), "--no-cache", capsys=capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


#: exit code and sha256 of stdout of `icmod validate|cohomology|dual --no-cache`
#: on the documents of `sample_reps(A3, seed 13, 12)`: three semisimple and
#: three one-way modules (valid), and six generic ones (invalid)
ICMOD_SHA256 = {
    "validate": [
        (0, "63c2f484de999eceae07502c34bc2f0c80fe4a222c571b009fa0937089c394bf"),
        (0, "63c2f484de999eceae07502c34bc2f0c80fe4a222c571b009fa0937089c394bf"),
        (1, "75ede45a5812dffe13e3a41b9f01bde531cb7d3131360f279624379e6aa0bd20"),
        (1, "75ede45a5812dffe13e3a41b9f01bde531cb7d3131360f279624379e6aa0bd20"),
        (0, "63c2f484de999eceae07502c34bc2f0c80fe4a222c571b009fa0937089c394bf"),
        (0, "63c2f484de999eceae07502c34bc2f0c80fe4a222c571b009fa0937089c394bf"),
        (1, "75ede45a5812dffe13e3a41b9f01bde531cb7d3131360f279624379e6aa0bd20"),
        (1, "75ede45a5812dffe13e3a41b9f01bde531cb7d3131360f279624379e6aa0bd20"),
        (0, "63c2f484de999eceae07502c34bc2f0c80fe4a222c571b009fa0937089c394bf"),
        (0, "63c2f484de999eceae07502c34bc2f0c80fe4a222c571b009fa0937089c394bf"),
        (1, "75ede45a5812dffe13e3a41b9f01bde531cb7d3131360f279624379e6aa0bd20"),
        (1, "75ede45a5812dffe13e3a41b9f01bde531cb7d3131360f279624379e6aa0bd20"),
    ],
    "cohomology": [
        (0, "f102b02234c9259886d3661b8abf8e67b13214c2c5b87e6fe6afc9aabb397996"),
        (0, "1c0c016cd793d648a1e2f7019a5906902947f5e631eab5b355f1054676c62ae5"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (0, "73ab2b4b0acd81781c38805794c0f6311dc06cd633ff6e6dc50971c432e8a99d"),
        (0, "da791ab57745dbaa90345bf434ff2cec7914694329bf57a93060665067ec3003"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (0, "83ecf745c0c87d8a1be0f66e6b34ffbc382ec042ef4a141bff450663bbf163af"),
        (0, "f32a58dec808526991755f3cf762b6079098b6df96e4d7cfff697fe23258d43d"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ],
    "dual": [
        (0, "0af7c23ec26f0ea1d6a3148e2aa0a4682e255110701a2098b71d16bc7b23db7d"),
        (0, "0cd16b1004be35e887337357793ace8fcec61c961efb3cf590afc239eb19888a"),
        (0, "e651b70501cd34f1ec70bb6c5a6432a976e037dddef5e88352ee6df2f4ac405e"),
        (0, "f32ae0889129a32d940cced7da2b9784076a0201540f1ec7b44cc146161270d4"),
        (0, "975bb1ac6a42ee5ff195dc60b53af20b922ef399f77a4050823c3f7f03be1041"),
        (0, "4cd809b551efc1aa72441891eb2cf24cdec2bd88cacd23e2a8efbecb4ea94bd9"),
        (0, "c46f3848256bf50c5fabf9d32ced69336e45431fa9ad4cde1e2bf11b0ec61681"),
        (0, "cf790a46a0590c7f2919deac1c949c76b0f9c2186d3822b439bbe3870a7eaa09"),
        (0, "ae7008854c072f3acd68432d64432eb2603ba4b1dbf5807c5e72e592380801e3"),
        (0, "245ae4f42611de515cef4de3963ef45b070b33ae25983cdc12a3200638798950"),
        (0, "6ed0d974f53cefbea0cbcd8f3840894fa6d3992a799ca4564afe4ebbd9812768"),
        (0, "aad4dc3d820f152aabf58877914320061b2a49f65c35278f25387cdd927d415e"),
    ],
}


@pytest.fixture(scope="module")
def a3_documents():
    q = cache.load_pipeline("A3", no_cache=True).quiver
    return [icmodule_to_doc(q, m) for m in sample_reps(q, 13, 12)]


@pytest.mark.parametrize("command", sorted(ICMOD_SHA256))
def test_icmod_bytes_are_pinned(command, a3_documents, tmp_path, capsys):
    outputs = []
    for n, doc in enumerate(a3_documents):
        file = tmp_path / f"{n}.json"
        file.write_text(json.dumps(doc))
        code, out, _ = run_cli("icmod", command, str(file), "--no-cache", capsys=capsys)
        outputs.append((code, hashlib.sha256(out.encode()).hexdigest()))
    assert outputs == ICMOD_SHA256[command]


def test_stalks_at_the_bound_are_accepted(tmp_path, capsys):
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(_a1_doc(stalks={"1": MAX_TOTAL_DIM // 2}, boundary=None)))
    code, out, err = run_cli("icmod", "cohomology", str(file), "--no-cache", capsys=capsys)
    assert (code, err) == (0, "")
    assert out == f"H^-1: {MAX_TOTAL_DIM // 2}\nH^1: {MAX_TOTAL_DIM // 2}\n"


@pytest.mark.parametrize("command", ["validate", "cohomology", "dual"])
@pytest.mark.parametrize("kind", ["not-utf8", "directory", "nested", "long-integer"])
def test_unreadable_icmodule_file_is_one_error_line(kind, command, tmp_path, capsys):
    file = tmp_path / "doc.json"
    if kind == "directory":
        file.mkdir()
    elif kind == "nested":
        file.write_text("[" * 100000)  # deeper than the JSON decoder recurses
    elif kind == "long-integer":  # a stalk past the decoder's 4300-digit limit
        file.write_text(json.dumps(_a1_doc(stalks={"e": 1})).replace('"e": 1', '"e": ' + "7" * 5000))
    else:
        file.write_bytes(bytes([0xFF, 0xFE, 0x7B]))
    code, out, err = run_cli("icmod", command, str(file), "--no-cache", capsys=capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
element_strings = st.sampled_from(["e", "1", "2", "1.1", "x", ""]) | st.text(max_size=3)
elements = element_strings | json_values
entries = st.sampled_from(["1", "0", "-1/2", "abc", "1/0"]) | json_values
boundary_entries = st.fixed_dictionaries(
    {},
    optional={
        "from": elements,
        "to": elements,
        "k": st.integers(-1, 2) | json_values,
        "matrix": st.lists(st.lists(entries, max_size=2), max_size=2) | json_values,
    },
) | json_values
documents = st.fixed_dictionaries(
    {"system": st.just(A1_SYSTEM)},
    optional={
        "stalks": st.dictionaries(
            element_strings, st.integers(-1, 2) | st.just(10**30) | json_values, max_size=3
        ) | json_values,
        "boundary": st.lists(boundary_entries, max_size=3) | json_values,
    },
) | json_values


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=64) | documents.map(lambda doc: json.dumps(doc).encode()),
       st.sampled_from(["validate", "cohomology", "dual"]))
# document text with a newline, quoted in a message, must not split the error line
@example(b'{"system": {"type": "A", "rank": 1}, "stalks": {"\\n": null}}', "validate")
@example(b'{"system": {"type": "A", "rank": "1\\n"}, "stalks": {}}', "dual")
def test_any_json_icmodule_document_exits_0_or_1(blob, command):
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "doc.json"
        file.write_bytes(blob)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["icmod", command, str(file), "--no-cache"])
    assert code in (0, 1)
    if code == 1:  # an error line, or the verdict on a module with d^2 != 0
        assert (err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1) or (
            command == "validate" and out.getvalue() == "invalid: d^2 != 0\n" and not err.getvalue()
        )


@functools.lru_cache(maxsize=1)
def _a1_quiver_run() -> tuple[str, bytes]:
    """The stdout of a cold A1 quiver run and the cache file it leaves."""
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["quiver", "--type", "A1", "--cache-dir", tmp]) == 0
        return out.getvalue(), cache.cache_file(Path(tmp), "A1").read_bytes()


@st.composite
def cache_file_bytes(draw):
    """Arbitrary bytes, deeply nested brackets, a long integer literal,
    arbitrary JSON, or the real A1 cache file with a slice replaced by
    arbitrary bytes."""
    kind = draw(st.sampled_from(["bytes", "nested", "long-integer", "json", "spliced"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "nested":  # past the JSON decoder's recursion limit, from some depth on
        return b"[" * draw(st.integers(1, 5000))
    if kind == "long-integer":  # past the decoder's 4300-digit limit, from some length on
        return b"[" + b"7" * draw(st.integers(4250, 5000)) + b"]"
    if kind == "json":
        return json.dumps(draw(json_values)).encode()
    original = _a1_quiver_run()[1]
    start = draw(st.integers(0, len(original)))
    end = draw(st.integers(start, min(len(original), start + 8)))
    return original[:start] + draw(st.binary(max_size=8)) + original[end:]


@settings(max_examples=100, deadline=None)
@given(cache_file_bytes())
def test_any_cache_file_bytes_give_the_cold_quiver(blob):
    cold, _ = _a1_quiver_run()
    with tempfile.TemporaryDirectory() as tmp:
        cache.cache_file(Path(tmp), "A1").write_bytes(blob)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["quiver", "--type", "A1", "--cache-dir", tmp])
    assert code == 0
    assert out.getvalue() == cold
    warning = err.getvalue()
    assert warning == "" or (
        warning.startswith("warning: cache a1-v") and warning.endswith("; recomputing\n")
        and warning.count("\n") == 1
    )


#: strings the JSON escaper treats specially: quotes, backslashes, control
#: characters, non-ASCII and astral characters (written as surrogate pairs)
awkward_strings = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n\t\r\b\f", "\x7f", "é", "σ[1.2]", " ", "😀", ""])
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40)
    | awkward_strings | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=2).map(tuple)
    | st.dictionaries(awkward_strings | st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_documents)
def test_indented_json_is_json_dumps_indent_2(doc):
    assert cache.indented_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}}, [[], {}],
    [1, 12, 3, 0, 24], ["e", "1.2", "σ"], {"id": 3, "word": "1.2", "length": 2}, {"k": -(10**40), "s": "\n"},
    [1, "x", True, None], {"path": [1, 2], "coeff": "-1/2"}, [{"a": 1}, [2, "3"], [], "4", 5, False],
    (1, (2, 3), [4, {}]),
], ids=["empty-dict", "empty-list", "empty-tuple", "empty-nested", "empties",
        "leaf-ints", "leaf-strings", "leaf-dict", "leaf-dict-escapes",
        "bool-and-none", "mixed-dict", "mixed-list", "tuples"])
def test_indented_json_containers_are_json_dumps_indent_2(doc):
    assert cache.indented_json(doc) == json.dumps(doc, indent=2)


def test_indented_json_writes_real_documents_as_json_dumps(a3_documents):
    docs = []
    for name in ("A2", "B2", "G2", "A3"):
        pipeline = cache.load_pipeline(name, no_cache=True)
        docs.append(to_json_doc(pipeline.quiver))
    docs.append(cache.module_doc(pipeline, pipeline.group.parse("1.2.1")))
    q = pipeline.quiver
    duals = [icmodule_to_doc(q, verdier_dual(q, icmodule_from_doc(q, doc))) for doc in a3_documents]
    assert any(dual["boundary"] for dual in duals)
    for doc in docs + duals:
        assert cache.indented_json(doc) == json.dumps(doc, indent=2)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # compared before and after, so what the interpreter's own start-up loads does not count
    code = (
        "import sys; before = set(sys.modules); import oquiver.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
