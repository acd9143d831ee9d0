"""
Disk cache for the whole pipeline artifact of one root system, and the
orchestration that builds or restores it.  A cache file holds the module
family (per module: degrees and generator matrices), every nonzero Hom^1
basis and the canonical relator basis of every pair of vertices joined by
length-2 paths.  The ring is not stored: the family builds it from
Chevalley's rule when a solve first reads it, so a warm `quiver` run
parses, checks shapes and prints: no ring, presentation, Hom solve or
relator elimination.

Every matrix is stored sparsely as `[i, j, x]` triples of its nonzero
entries, its shape implied by the module degrees; a relator is stored as
`[n, x]` pairs over the indices into `Quiver.paths(y, w)`, in its term
order; pairs of vertices are indices into the element list.  An entry `x`
is a JSON integer when it is integral and a `"p/q"` string otherwise, so
rationals stay exact (B3 modules have denominators).

Cache files are content-addressed by (type, rank, artifact version) in
the file name (`<type><rank>-v<version>.json`) and written atomically
through a unique temporary file.  A file is the header
`{"artifact_version":8,"checksum":"<crc32>","payload":`, the compact
payload, and `}`: a load checks the CRC-32 of the stored payload bytes,
8 lowercase hex digits, and parses them once.  The checksum only has to
catch accidental damage: CRC-32 catches every burst of up to 32 bits and
misses other damage with probability 2^-32, no unkeyed hash would stop a
deliberate edit, and `restore` checks every shape, range, degree and
canonical form anyway.  A stale version (read off the file's first bytes),
a payload for another root system, or a malformed or corrupted file is
reported and silently recomputed; rationals restore exactly, so a warm run
reproduces a cold run byte for byte.

The JSON the tool reads (IC-module documents) goes through `read_json`,
and the indented documents it prints through `indented_json`.
"""

from __future__ import annotations

import binascii
import contextlib
import gc
import json
import os
import re
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

ARTIFACT_VERSION = 8

#: a stored file is _HEAD, the 8 hex digits of the payload's CRC-32,
#: _PAYLOAD_KEY, the payload and "}"
_HEAD = b'{"artifact_version":%d,"checksum":"' % ARTIFACT_VERSION
_PAYLOAD_KEY = b'","payload":'
_PAYLOAD_START = len(_HEAD) + 8 + len(_PAYLOAD_KEY)

#: the version a file names first, compact or spaced as `json.dumps` writes
#: it; compiled on the first refusal, not by every import
_VERSION_HEAD = rb'\{"artifact_version": ?(-?(?:0|[1-9][0-9]{0,17}))[,}]'

ENV_CACHE_DIR = "OQUIVER_CACHE"


class CacheUnusable(OSError):
    """The cache directory cannot be created or written."""


class UnreadableJSON(ValueError):
    """A file exists but cannot be read and decoded as JSON."""


def read_json(path: Path):
    """The decoded content of a JSON file (an IC-module document).  A
    missing file raises FileNotFoundError; any other failure, from bytes
    that are not UTF-8 to an integer literal past Python's digit limit or
    nesting past the decoder's recursion, raises UnreadableJSON."""
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


def _checksum(body: bytes) -> bytes:
    """The CRC-32 of a stored payload's bytes, as 8 lowercase hex digits."""
    return b"%08x" % binascii.crc32(body)


def encode_file(payload: dict) -> bytes:
    """A cache file's bytes: the payload serialized once, compact and in
    the order `payload_of` builds it, behind a header holding its CRC-32."""
    body = json.dumps(payload, separators=(",", ":")).encode()
    return b"%s%s%s%s}" % (_HEAD, _checksum(body), _PAYLOAD_KEY, body)


@contextlib.contextmanager
def _collector_paused():
    """The cyclic collector off for the block, then back as it was.  A
    decoded payload and the quiver restored from it are hundreds of
    thousands of acyclic containers, which the collector would otherwise
    walk again and again while they are allocated."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _entry_doc(x: int | Fraction) -> int | str:
    """An entry as stored: a JSON integer when integral, "p/q" otherwise."""
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fraction(x) -> Fraction:
    """A stored entry that is not a nonzero JSON integer: it must be a
    non-integral "p/q" string, since integral entries are stored as numbers."""
    if type(x) is str:
        value = parse_rational(x)
        if type(value) is Fraction:
            return value
    raise ValueError(f'entry {x!r} is neither a nonzero integer nor a non-integral "p/q" string')


def _sparse_doc(m: QMatrix) -> list[list]:
    return [[i, j, _entry_doc(x)] for i, j, x in m.nonzero_items()]


def _sparse_from_doc(doc, row_degrees: tuple[int, ...], col_degrees: tuple[int, ...], degree: int) -> QMatrix:
    """The map of the given degree between modules of these degrees, from
    its nonzero `[i, j, x]` triples; each entry's range, repeat and degree
    are checked as it is decoded."""
    if not isinstance(doc, list):
        raise ValueError("a matrix is not a list of [i, j, x] triples")
    rows, cols = len(row_degrees), len(col_degrees)
    data: list[Row] = [{} for _ in range(rows)]
    for i, j, x in doc:
        if type(i) is not int or type(j) is not int or not (0 <= i < rows and 0 <= j < cols) or j in data[i]:
            raise ValueError(f"entry ({i!r}, {j!r}) is repeated or outside a {rows}x{cols} matrix")
        if row_degrees[i] != col_degrees[j] + degree:
            raise ValueError(f"entry ({i}, {j}) of a map of degree {degree} joins degree {col_degrees[j]} to {row_degrees[i]}")
        data[i][j] = x if type(x) is int and x else _fraction(x)
    return QMatrix.from_rows(data, cols)


def _row_doc(row: Row) -> list[list]:
    return [[n, _entry_doc(c)] for n, c in row.items()]


def _row_from_doc(doc) -> Row:
    if not isinstance(doc, list):
        raise ValueError("a relator is not a list of [n, x] pairs")
    row: Row = {}
    for n, c in doc:
        if type(n) is not int or n in row:
            raise ValueError(f"a relator names path {n!r} twice or by a non-integer")
        row[n] = c if type(c) is int and c else _fraction(c)
    return row


def _system_doc(g: WeylGroup) -> dict:
    return {"type": g.rootsystem.type_label, "rank": g.rootsystem.rank}


def payload_of(q: Quiver) -> dict:
    """Modules keyed by canonical element strings, pairs as element indices,
    integral entries as numbers and the others as "p/q"."""
    g = q.group
    modules = {}
    for w in g.elements:
        module = q.family.modules[w.idx]
        modules[w.name] = {
            "degrees": list(module.degrees),
            "gens": [_sparse_doc(a) for a in module.gens],
        }
    return {
        "system": _system_doc(g),
        "elements": [w.name for w in g.elements],
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
    degrees = tuple(degrees)
    return GradedModule(degrees, [_sparse_from_doc(a, degrees, degrees, 2) for a in doc["gens"]])


def _pairs(doc, size: int):
    """The `[y, w, data]` entries of a section, pairs in range and y-major."""
    if not isinstance(doc, list):
        raise ValueError("a pair section is not a list")
    last = (-1, -1)
    for y, w, data in doc:
        if type(y) is not int or type(w) is not int or not (0 <= y < size and 0 <= w < size):
            raise ValueError(f"pair ({y!r}, {w!r}) is out of range")
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
        source, target = family.modules[y].degrees, family.modules[w].degrees
        if not maps:
            raise ValueError(f"Hom^1 of pair ({y}, {w}) is stored without a basis")
        basis = tuple(_sparse_from_doc(m, target, source, 1) for m in maps)
        pivots = []
        for m in basis:
            first = next((p for p, row in enumerate(m.data) if row), None)
            pivots.append(None if first is None else (first, min(m.data[first])))
        if None in pivots or pivots != sorted(set(pivots)) or any(
            m.data[p].get(q, 0) != (k == n) for n, (p, q) in enumerate(pivots) for k, m in enumerate(basis)
        ):
            raise ValueError(f"the Hom^1 basis of pair ({y}, {w}) is not in canonical form")
        hom1[(y, w)] = basis
    return hom1


def restore(group: WeylGroup, payload: dict) -> Quiver:
    """The quiver a decoded payload holds, refused unless it is shaped like
    one of this group's."""
    g = group
    if payload["system"] != _system_doc(g):
        raise ValueError(f"payload is for another root system than {g.rootsystem.name}")
    if payload["elements"] != [w.name for w in g.elements]:
        raise ValueError("cached element order does not match this build")
    family = ModuleFamily(g)
    modules, rank = payload["modules"], g.rootsystem.rank
    for w in g.elements:
        family.modules[w.idx] = _module_from_doc(w, modules[w.name], rank)
    hom1 = _hom1_from_doc(payload["hom1"], family)
    relators = {
        pair: [_row_from_doc(row) for row in rows]
        for pair, rows in _pairs(payload["relators"], len(g))
    }
    return Quiver(family, hom1, relators)


def store(path: Path, q: Quiver) -> None:
    data = encode_file(payload_of(q))
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # a unique name per writer, so concurrent stores cannot clobber each other
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CacheUnusable(f"cannot write cache file {path}: {exc}") from exc


def _refusal(data: bytes) -> str:
    """Why a file that is not in the stored layout is refused: the version
    it names when it is a cache object, else what it is instead.  A file
    that starts with its version is not decoded, however large it is."""
    head = re.match(_VERSION_HEAD, data)
    if head is not None:
        version = int(head.group(1))
    else:
        try:
            envelope = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            return f"unreadable ({exc})"
        if not isinstance(envelope, dict):
            return "malformed (not a JSON object)"
        version = envelope.get("artifact_version")
    if version != ARTIFACT_VERSION:
        return f"has version {version}"
    return "malformed (not in the stored layout)"


def load(path: Path, group: WeylGroup, warn: Callable[[str], None]) -> Quiver | None:
    """The quiver stored at `path`, or None on a miss; a file that cannot
    be used is reported through `warn` and counts as a miss.  The payload's
    stored bytes are checksummed as they are and parsed once."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        warn(f"cache {path.name} unreadable ({exc}); recomputing")
        return None
    if not (data.startswith(_HEAD) and data.startswith(_PAYLOAD_KEY, _PAYLOAD_START - len(_PAYLOAD_KEY))
            and data.endswith(b"}")):
        warn(f"cache {path.name} {_refusal(data)}; recomputing")
        return None
    body = data[_PAYLOAD_START:-1]
    if _checksum(body) != data[len(_HEAD) : len(_HEAD) + 8]:
        warn(f"cache {path.name} failed its checksum; recomputing")
        return None
    with _collector_paused():
        try:
            payload = json.loads(body)
        except (ValueError, RecursionError) as exc:
            warn(f"cache {path.name} unreadable ({exc}); recomputing")
            return None
        if not isinstance(payload, dict):
            warn(f"cache {path.name} malformed (payload is not a JSON object); recomputing")
            return None
        try:
            return restore(group, payload)
        except (KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
            warn(f"cache {path.name} malformed ({exc}); recomputing")
            return None


class Pipeline:
    """Everything computed for one root system; the ring is the family's,
    built when it is first read."""

    __slots__ = ("group", "family", "quiver")

    def __init__(self, group: WeylGroup, family: ModuleFamily, quiver: Quiver):
        self.group = group
        self.family = family
        self.quiver = quiver

    @property
    def ring(self) -> CohRing:
        return self.family.ring


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
    return Pipeline(group, q.family, q)


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
