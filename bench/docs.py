"""
Seeded IC-module documents over one root system, in the format read by
`oquiver icmod` (`icmodule_from_doc`).  Shapes come from the KL oracle
(dim V_w and arrow multiplicities mu), never from the pipeline.

A round holds six documents:

- one semisimple document (stalks, no maps), valid by construction;
- two upward documents, stalks on two adjacent length levels k, k + 1 and
  maps only from level k to level k + 1, so no length-2 path carries a
  map and d^2 = 0 holds by construction (k = 2 and k = 3 on A3);
- three generic documents, random maps on every arrow, mostly invalid.

Each document's total dimension sum_w stalk_w dim V_w is drawn within 10%
of its kind's mean, so the cost of a round barely depends on the seed.
"""

from __future__ import annotations

import random

from oracle import Oracle

VALID_BY_CONSTRUCTION = ("semisimple", "upward")


def _stalks(oracle: Oracle, rng: random.Random, words: list[str], low: int, high: int) -> dict[str, int]:
    """Stalks uniform in [low, high] on `words`, total dimension within 10% of its mean."""
    mean = (low + high) / 2 * sum(oracle.dim[w] for w in words)
    while True:
        stalks = {w: rng.randint(low, high) for w in words}
        total = sum(d * oracle.dim[w] for w, d in stalks.items())
        if any(stalks.values()) and abs(total - mean) <= 0.1 * mean:
            return {w: d for w, d in stalks.items() if d}


def _maps(oracle: Oracle, rng: random.Random, stalks: dict[str, int], pairs) -> list[dict]:
    boundary = []
    for (y, w) in pairs:
        dy, dw = stalks.get(y, 0), stalks.get(w, 0)
        if not dy or not dw:
            continue
        for k in range(oracle.mu[(y, w)]):
            if rng.random() < 0.8:
                boundary.append({
                    "from": y,
                    "to": w,
                    "k": k,
                    "matrix": [[str(rng.randint(-2, 2)) for _ in range(dy)] for _ in range(dw)],
                })
    return boundary


def _doc(oracle: Oracle, stalks: dict[str, int], boundary: list[dict]) -> dict:
    g = oracle.group.rootsystem
    return {"system": {"type": g.type_label, "rank": g.rank}, "stalks": stalks, "boundary": boundary}


def make_round(oracle: Oracle, rng: random.Random) -> list[tuple[str, dict]]:
    words = oracle.words
    arrows = sorted(oracle.mu)
    top = max(oracle.length.values())
    levels = [top // 2 - 1, top // 2]  # the two widest adjacent pairs of levels
    out = []
    stalks = _stalks(oracle, rng, words, 0, 2)
    out.append(("semisimple", _doc(oracle, stalks, [])))
    for k in levels:
        band = [w for w in words if oracle.length[w] in (k, k + 1)]
        stalks = _stalks(oracle, rng, band, 1, 2)
        up = [(y, w) for (y, w) in arrows if oracle.length[y] == k and oracle.length[w] == k + 1]
        out.append(("upward", _doc(oracle, stalks, _maps(oracle, rng, stalks, up))))
    for _ in range(3):
        stalks = _stalks(oracle, rng, words, 0, 2)
        out.append(("generic", _doc(oracle, stalks, _maps(oracle, rng, stalks, arrows))))
    return out
