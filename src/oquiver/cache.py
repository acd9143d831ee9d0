"""
Disk cache for the expensive pipeline artifact, the module family (per
module: degrees, generator matrices, multiplicities), plus the
orchestration that builds or restores a complete pipeline for one root
system.  The ring is cheap and is rebuilt from Chevalley's rule on restore.

Cache files are content-addressed by (type, rank, artifact version) in
the file name (`<type><rank>-v<version>.json`), carry a sha256 checksum of
the canonical payload, and are written atomically through a unique
temporary file.  A stale version or a malformed or corrupted file is
reported and silently recomputed; rationals restore exactly, so a warm run
reproduces a cold run byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .linalg import QMatrix, format_rational, parse_rational
from .quiver import Quiver, build_quiver
from .rootsystem import WeylElement, WeylGroup, build, generate_weyl, parse_type
from .schubert import CohRing
from .soergel import GradedModule, ModuleFamily, build_all, derived_actions

ARTIFACT_VERSION = 4

ENV_CACHE_DIR = "OQUIVER_CACHE"


class CacheUnusable(OSError):
    """The cache directory cannot be created or written."""


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


def _matrix_doc(m: QMatrix) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m.dense()]


def _matrix_from_doc(doc: list[list[str]], cols: int) -> QMatrix:
    if any(not isinstance(x, str) for row in doc for x in row):
        raise ValueError('a matrix entry is not a "p/q" string')
    return QMatrix([[parse_rational(x) for x in row] for row in doc], cols=cols)


def payload_of(family: ModuleFamily) -> dict:
    """Everything keyed by canonical element strings, rationals as "p/q"."""
    g = family.group
    modules = {}
    for w in g.elements:
        module = family.modules[w.idx]
        modules[str(w)] = {
            "degrees": list(module.degrees),
            "gens": [_matrix_doc(a) for a in module.gens],
            "multiplicities": {
                str(g.elements[y]): n
                for y, n in sorted(family.multiplicities[w.idx].items())
            },
        }
    return {
        "system": {"type": g.rootsystem.type_label, "rank": g.rootsystem.rank},
        "elements": [str(w) for w in g.elements],
        "modules": modules,
    }


def _module_from_doc(w: WeylElement, doc: dict, rank: int) -> GradedModule:
    """The module V_w from its cache document, which must be shaped like one:
    every generator sigma_{s_i} is dim x dim and raises degree by 2."""
    degrees = doc["degrees"]
    if not isinstance(degrees, list) or not degrees or any(type(d) is not int for d in degrees):
        raise ValueError(f"module {w} has no nonempty list of integer degrees")
    if len(doc["gens"]) != rank:
        raise ValueError(f"module {w} does not have one matrix per generator")
    dim = len(degrees)
    gens = [_matrix_from_doc(a, dim) for a in doc["gens"]]
    for a in gens:
        if (a.rows, a.cols) != (dim, dim):
            raise ValueError(f"module {w} has a {a.rows}x{a.cols} generator on dimension {dim}")
        if any(degrees[p] != degrees[q] + 2 for p, q, _ in a.nonzero_items()):
            raise ValueError(f"module {w} has a generator that does not raise degree by 2")
    return GradedModule(dim, degrees, gens)


def restore(group: WeylGroup, payload: dict) -> tuple[CohRing, ModuleFamily]:
    g = group
    if payload["elements"] != [str(w) for w in g.elements]:
        raise ValueError("cached element order does not match this build")
    lookup = {str(w): w for w in g.elements}
    ring = CohRing(group)
    family = ModuleFamily(ring)
    for w in g.elements:
        doc = payload["modules"][str(w)]
        family.modules[w.idx] = _module_from_doc(w, doc, g.rootsystem.rank)
        family.multiplicities[w.idx] = {
            lookup[y].idx: n for y, n in doc["multiplicities"].items()
        }
    return ring, family


def store(path: Path, family: ModuleFamily) -> None:
    payload = payload_of(family)
    envelope = {
        "artifact_version": ARTIFACT_VERSION,
        "system": payload["system"],
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


def load(path: Path, group: WeylGroup, warn: Callable[[str], None]) -> tuple[CohRing, ModuleFamily] | None:
    try:
        envelope = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        warn(f"cache {path.name} unreadable ({exc}); recomputing")
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
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        warn(f"cache {path.name} malformed ({exc}); recomputing")
        return None


@dataclass
class Pipeline:
    """Everything computed for one root system, quiver built on demand."""

    group: WeylGroup
    ring: CohRing
    family: ModuleFamily
    _quiver: Quiver | None = field(default=None, repr=False)

    @property
    def quiver(self) -> Quiver:
        if self._quiver is None:
            self._quiver = build_quiver(self.family)
        return self._quiver


def load_pipeline(
    name: str,
    cache_dir: Path | None = None,
    no_cache: bool = False,
    warn: Callable[[str], None] = lambda s: None,
) -> Pipeline:
    """Build the pipeline, restoring ring and family from cache unless
    `no_cache`, and storing a freshly built family."""
    label, rank = parse_type(name)
    group = generate_weyl(build(label, rank))
    path = None
    if not no_cache:
        directory = cache_dir if cache_dir is not None else default_cache_dir()
        path = cache_file(directory, f"{label}{rank}")
        restored = load(path, group, warn)
        if restored is not None:
            return Pipeline(group, *restored)
    ring = CohRing(group)
    family = build_all(ring)
    if path is not None:
        store(path, family)
    return Pipeline(group, ring, family)


def module_doc(pipeline: Pipeline, w) -> dict:
    """Full dump of one module: degrees plus the action matrix of every class,
    derived from the generator matrices."""
    g = pipeline.group
    module = pipeline.family.modules[w.idx]
    actions = derived_actions(pipeline.ring, module.gens, QMatrix.identity(module.dim))
    return {
        "system": {"type": g.rootsystem.type_label, "rank": g.rootsystem.rank},
        "element": str(w),
        "degrees": list(module.degrees),
        "action": {str(v): _matrix_doc(a) for v, a in zip(g.elements, actions)},
    }
