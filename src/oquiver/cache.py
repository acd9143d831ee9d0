"""
Disk cache for the whole pipeline artifact of one root system, and the
orchestration that builds or restores it.  A cache file holds the module
family (per module: degrees and generator matrices), every nonzero Hom^1
basis and the canonical relator basis of every pair of vertices joined by
length-2 paths.  The ring is cheap and is rebuilt from Chevalley's rule on
restore, so a warm run parses, checks shapes and prints: no presentation,
Hom solve or relator elimination.

Every matrix is stored sparsely as `[i, j, "p/q"]` triples of its nonzero
entries, its shape implied by the module degrees; a relator is stored as
`[n, "p/q"]` pairs over the indices into `Quiver.paths(y, w)`, in its term
order; pairs of vertices are indices into the element list.  Rationals stay
exact, since B3 modules have denominators.

Cache files are content-addressed by (type, rank, artifact version) in
the file name (`<type><rank>-v<version>.json`), carry a sha256 checksum of
the canonical payload, and are written atomically through a unique
temporary file.  A stale version, a payload for another root system, or a
malformed or corrupted file is reported and silently recomputed; rationals
restore exactly, so a warm run reproduces a cold run byte for byte.

The JSON the tool reads (cache files, IC-module documents) goes through
`read_json`, and the indented documents it prints through `indented_json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

from .linalg import QMatrix, Row, format_rational, parse_rational
from .quiver import Hom1, Quiver, build_quiver
from .rootsystem import WeylElement, WeylGroup, build, generate_weyl, parse_type
from .schubert import CohRing
from .soergel import GradedModule, ModuleFamily, build_all, derived_actions

ARTIFACT_VERSION = 6

ENV_CACHE_DIR = "OQUIVER_CACHE"


class CacheUnusable(OSError):
    """The cache directory cannot be created or written."""


class UnreadableJSON(ValueError):
    """A file exists but cannot be read and decoded as JSON."""


def read_json(path: Path):
    """The decoded content of a JSON file (a cache file or an IC-module
    document).  A missing file raises FileNotFoundError; any other failure,
    from bytes that are not UTF-8 to an integer literal past Python's digit
    limit or nesting past the decoder's recursion, raises UnreadableJSON."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except (OSError, ValueError, RecursionError) as exc:
        raise UnreadableJSON(f"{path.name} unreadable ({exc})") from None


def indented_json(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, for a document of
    string-keyed dicts, lists, strings, ints, bools and None.  CPython before
    3.14 runs its pure-Python encoder whenever `indent` is set; this writes
    the same text into one list, strings through the C escaper."""
    out: list[str] = []
    _write_json(obj, out, "\n")
    return "".join(out)


def _write_json(obj, out: list[str], newline: str) -> None:
    """Append `obj` to `out`; `newline` starts a line at its own depth.
    String and int leaves inside a container are written in place, without
    a call, so only the rare other leaves reach `json.dumps`."""
    if not obj or not isinstance(obj, (dict, list, tuple)):
        out.append(json.dumps(obj))  # bool, None, a top-level leaf, and {} or [] inline
    elif isinstance(obj, dict):
        inner = newline + "  "
        separator, comma = "{" + inner, "," + inner
        for key, item in obj.items():
            out.append(separator)
            separator = comma
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            if type(item) is str:
                out.append(encode_basestring_ascii(item))
            elif type(item) is int:
                out.append(int.__repr__(item))
            else:
                _write_json(item, out, inner)
        out.append(newline + "}")
    else:
        inner = newline + "  "
        separator, comma = "[" + inner, "," + inner
        for item in obj:
            out.append(separator)
            separator = comma
            if type(item) is str:
                out.append(encode_basestring_ascii(item))
            elif type(item) is int:
                out.append(int.__repr__(item))
            else:
                _write_json(item, out, inner)
        out.append(newline + "]")


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "oquiver"


def cache_file(cache_dir: Path, name: str) -> Path:
    return cache_dir / f"{name.lower()}-v{ARTIFACT_VERSION}.json"


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _sparse_doc(m: QMatrix) -> list[list]:
    return [[i, j, format_rational(x)] for i, j, x in m.nonzero_items()]


def _rational(x) -> int | Fraction:
    """A stored nonzero "p/q" string."""
    if not isinstance(x, str):
        raise ValueError('a stored rational is not a "p/q" string')
    value = parse_rational(x)
    if not value:
        raise ValueError("a stored rational is zero")
    return value


def _sparse_from_doc(doc, rows: int, cols: int) -> QMatrix:
    """A rows x cols matrix from its nonzero `[i, j, "p/q"]` triples."""
    if not isinstance(doc, list):
        raise ValueError('a matrix is not a list of [i, j, "p/q"] triples')
    data: list[Row] = [{} for _ in range(rows)]
    for i, j, x in doc:
        if type(i) is not int or type(j) is not int or not (0 <= i < rows and 0 <= j < cols) or j in data[i]:
            raise ValueError(f"entry ({i}, {j}) is repeated or outside a {rows}x{cols} matrix")
        data[i][j] = _rational(x)
    return QMatrix.from_rows(data, cols)


def _row_doc(row: Row) -> list[list]:
    return [[n, format_rational(c)] for n, c in row.items()]


def _row_from_doc(doc) -> Row:
    if not isinstance(doc, list):
        raise ValueError('a relator is not a list of [n, "p/q"] pairs')
    row: Row = {}
    for n, c in doc:
        if type(n) is not int or n in row:
            raise ValueError(f"a relator names path {n!r} twice or by a non-integer")
        row[n] = _rational(c)
    return row


def _system_doc(g: WeylGroup) -> dict:
    return {"type": g.rootsystem.type_label, "rank": g.rootsystem.rank}


def payload_of(q: Quiver) -> dict:
    """Modules keyed by canonical element strings, pairs as element indices,
    rationals as "p/q"."""
    g = q.group
    modules = {}
    for w in g.elements:
        module = q.family.modules[w.idx]
        modules[str(w)] = {
            "degrees": list(module.degrees),
            "gens": [_sparse_doc(a) for a in module.gens],
        }
    return {
        "system": _system_doc(g),
        "elements": [str(w) for w in g.elements],
        "modules": modules,
        "hom1": [[y, w, [_sparse_doc(m) for m in basis]] for (y, w), basis in q.hom1.items()],
        "relators": [
            [y, w, [_row_doc(row) for row in rows]] for (y, w), rows in q.relators().items()
        ],
    }


def _module_from_doc(w: WeylElement, doc: dict, rank: int) -> GradedModule:
    """The module V_w from its cache document, which must be shaped like one:
    every generator sigma_{s_i} is dim x dim and raises degree by 2."""
    degrees = doc["degrees"]
    if not isinstance(degrees, list) or not degrees or any(type(d) is not int for d in degrees):
        raise ValueError(f"module {w} has no nonempty list of integer degrees")
    if not isinstance(doc["gens"], list) or len(doc["gens"]) != rank:
        raise ValueError(f"module {w} does not have one matrix per generator")
    dim = len(degrees)
    gens = [_sparse_from_doc(a, dim, dim) for a in doc["gens"]]
    for a in gens:
        if any(degrees[p] != degrees[q] + 2 for p, q, _ in a.nonzero_items()):
            raise ValueError(f"module {w} has a generator that does not raise degree by 2")
    return GradedModule(degrees, gens)


def _pairs(doc, size: int):
    """The `[y, w, data]` entries of a section, pairs in range and y-major."""
    if not isinstance(doc, list):
        raise ValueError("a pair section is not a list")
    last = (-1, -1)
    for y, w, data in doc:
        if type(y) is not int or type(w) is not int or not (0 <= y < size and 0 <= w < size):
            raise ValueError(f"pair ({y}, {w}) is out of range")
        if (y, w) <= last:
            raise ValueError(f"pair ({y}, {w}) is out of order")
        last = (y, w)
        if not isinstance(data, list):
            raise ValueError(f"pair ({y}, {w}) holds no list")
        yield (y, w), data


def _hom1_from_doc(doc, family: ModuleFamily) -> Hom1:
    """Hom^1 bases, each map dim V_w x dim V_y and of degree 1, and each
    basis in the canonical form `graded_hom_basis` gives: reduced row
    echelon over the entries (p, q) in row-major order.  That is read off
    the pivots, without elimination: each map's first entry (p, q) is 1,
    later maps have later pivots, and every other map is zero there."""
    hom1: Hom1 = {}
    for (y, w), maps in _pairs(doc, len(family.group)):
        source, target = family.modules[y], family.modules[w]
        if not maps:
            raise ValueError(f"Hom^1 of pair ({y}, {w}) is stored without a basis")
        basis = tuple(_sparse_from_doc(m, target.dim, source.dim) for m in maps)
        pivots = []
        for m in basis:
            if any(target.degrees[p] != source.degrees[q] + 1 for p, q, _ in m.nonzero_items()):
                raise ValueError(f"a Hom^1 map of pair ({y}, {w}) does not have degree 1")
            first = next((p for p, row in enumerate(m.data) if row), None)
            pivots.append(None if first is None else (first, min(m.data[first])))
        if None in pivots or pivots != sorted(set(pivots)) or any(
            m[pivot] != (k == n) for n, pivot in enumerate(pivots) for k, m in enumerate(basis)
        ):
            raise ValueError(f"the Hom^1 basis of pair ({y}, {w}) is not in canonical form")
        hom1[(y, w)] = basis
    return hom1


def restore(group: WeylGroup, payload: dict) -> Quiver:
    g = group
    if payload["system"] != _system_doc(g):
        raise ValueError(f"payload is for another root system than {g.rootsystem.name}")
    if payload["elements"] != [str(w) for w in g.elements]:
        raise ValueError("cached element order does not match this build")
    family = ModuleFamily(CohRing(group))
    for w in g.elements:
        family.modules[w.idx] = _module_from_doc(w, payload["modules"][str(w)], g.rootsystem.rank)
    hom1 = _hom1_from_doc(payload["hom1"], family)
    relators = {
        pair: [_row_from_doc(row) for row in rows]
        for pair, rows in _pairs(payload["relators"], len(g))
    }
    return Quiver(family, hom1, relators)


def store(path: Path, q: Quiver) -> None:
    payload = payload_of(q)
    envelope = {
        "artifact_version": ARTIFACT_VERSION,
        "checksum": _checksum(payload),
        "payload": payload,
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # a unique name per writer, so concurrent stores cannot clobber each other
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(envelope))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CacheUnusable(f"cannot write cache file {path}: {exc}") from exc


def load(path: Path, group: WeylGroup, warn: Callable[[str], None]) -> Quiver | None:
    try:
        envelope = read_json(path)
    except FileNotFoundError:
        return None
    except UnreadableJSON as exc:
        warn(f"cache {exc}; recomputing")
        return None
    if not isinstance(envelope, dict):
        warn(f"cache {path.name} malformed (not a JSON object); recomputing")
        return None
    if envelope.get("artifact_version") != ARTIFACT_VERSION:
        warn(f"cache {path.name} has version {envelope.get('artifact_version')}; recomputing")
        return None
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        warn(f"cache {path.name} malformed (payload is not a JSON object); recomputing")
        return None
    if envelope.get("checksum") != _checksum(payload):
        warn(f"cache {path.name} failed its checksum; recomputing")
        return None
    try:
        return restore(group, payload)
    except (KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
        warn(f"cache {path.name} malformed ({exc}); recomputing")
        return None


class Pipeline:
    """Everything computed for one root system."""

    __slots__ = ("group", "ring", "family", "quiver")

    def __init__(self, group: WeylGroup, ring: CohRing, family: ModuleFamily, quiver: Quiver):
        self.group = group
        self.ring = ring
        self.family = family
        self.quiver = quiver


def load_pipeline(
    name: str,
    cache_dir: Path | None = None,
    no_cache: bool = False,
    warn: Callable[[str], None] = lambda s: None,
) -> Pipeline:
    """Restore the pipeline from cache unless `no_cache`; otherwise build
    the family, the quiver and its relators and store them once."""
    label, rank = parse_type(name)
    group = generate_weyl(build(label, rank))
    path = None
    q = None
    if not no_cache:
        directory = cache_dir if cache_dir is not None else default_cache_dir()
        path = cache_file(directory, f"{label}{rank}")
        q = load(path, group, warn)
    if q is None:
        q = build_quiver(build_all(CohRing(group)))
        if path is not None:
            store(path, q)
    return Pipeline(group, q.family.ring, q.family, q)


def _matrix_doc(m: QMatrix) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m.dense()]


def module_doc(pipeline: Pipeline, w) -> dict:
    """Full dump of one module: degrees plus the action matrix of every class,
    derived from the generator matrices."""
    g = pipeline.group
    module = pipeline.family.modules[w.idx]
    actions = derived_actions(pipeline.ring, module.gens)
    return {
        "system": _system_doc(g),
        "element": str(w),
        "degrees": list(module.degrees),
        "action": {str(v): _matrix_doc(a) for v, a in zip(g.elements, actions)},
    }
