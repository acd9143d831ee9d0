"""
Relator lists from outside, for the tests: the relators of an exported
quiver document read back as path-keyed dicts (`parse_relations`), and
such a list compared with a quiver's computed relators as subspaces
(`verify_relator_space`).

A relator from outside maps length-2 paths (y, j, z, i, w) of one ordered
pair to coefficients; it becomes a Row over `q.paths(y, w)` by one index
lookup per path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from oquiver.linalg import Row, canonical_basis, exact, parse_rational
from oquiver.quiver import MalformedPath, PathKey, Quiver


def parse_relations(q: Quiver, doc: dict) -> list[dict[PathKey, int | Fraction]]:
    """The relators of an exported document (`quiver.to_json_doc`) as
    path-keyed dicts (ids resolved via vertices); raises MalformedPath on a
    term whose endpoints are not its relation's source and target."""
    by_id: dict[int, int] = {}
    for v in doc["vertices"]:
        by_id[v["id"]] = q.group.parse(v["word"]).idx
    relators = []
    for rel in doc["relations"]:
        source, target = by_id[rel["source"]], by_id[rel["target"]]
        terms: dict[PathKey, int | Fraction] = {}
        for term in rel["terms"]:
            y, j, z, i, w = term["path"]
            if (by_id[y], by_id[w]) != (source, target):
                raise MalformedPath(f"path {term['path']} does not run from {rel['source']} to {rel['target']}")
            terms[(source, j, by_id[z], i, target)] = parse_rational(term["coeff"])
        relators.append(terms)
    return relators


def verify_relator_space(q: Quiver, candidate: Iterable[dict[PathKey, int | Fraction]]) -> bool:
    """Subspace equality of the candidate with the computed relators.

    Grouped per pair; list order, scaling and basis choice are irrelevant.
    Raises MalformedPath on a path the quiver does not have, and on a
    relator whose paths span two pairs.
    """
    computed = q.relators()
    index = {key: n for pair in computed for n, key in enumerate(q.paths(*pair))}
    grouped: dict[tuple[int, int], list[Row]] = {}
    for relator in candidate:
        pairs = {(key[0], key[-1]) for key in relator}
        if len(pairs) > 1:
            raise MalformedPath(f"a relator's paths span the pairs {sorted(pairs)}")
        try:
            row = {index[key]: exact(c) for key, c in relator.items() if c}
        except KeyError as exc:
            raise MalformedPath(f"no path {exc.args[0]} in the quiver") from None
        if pairs:
            grouped.setdefault(pairs.pop(), []).append(row)
    for pair in set(grouped) | {k for k, v in computed.items() if v}:
        ncols = len(q.paths(*pair))
        if canonical_basis(computed.get(pair, []), ncols) != canonical_basis(grouped.get(pair, []), ncols):
            return False
    return True
