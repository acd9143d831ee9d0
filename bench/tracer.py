"""
Layer spans recorded from outside the program.

`Tracer.install()` replaces public functions of `oquiver` with timing
wrappers, each under the name its caller looks up (a function imported
into another module is patched in that module).  Every wrapper records its
span's self time: its duration minus the part covered by nested spans, so
the layer figures add up without double counting.  Counts are taken at the
same boundaries from the arguments and results.  Spans stay in memory;
`snapshot()` returns the totals.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

#: counts that repeat exactly for a fixed workload, whatever the seed or run length
EXACT_COUNTS = (
    "soergel.extend_calls",
    "soergel.hom0_solves",
    "soergel.hom0_nonzero",
    "soergel.module_dim_total",
    "linalg.constraint_rows",
    "linalg.unknowns",
    "homspace.hom1_solves",
    "homspace.hom1_nonzero",
    "homspace.hom1_yield",
    "quiver.paths",
    "quiver.relator_dim",
    "cache.bytes",
)


class Tracer:
    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self.enabled = True
        self._stack: list[list[float]] = []

    def add(self, name: str, amount: float) -> None:
        if self.enabled:
            self.values[name] += amount

    def wrap(self, name: str, fn, count=None):
        """Time `fn` as layer `name`; `count(values, args, kwargs, result)` runs untimed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]  # time covered by nested spans
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.values[name] += elapsed - frame[0]
            if count is not None:
                mark = time.perf_counter()
                count(self.values, args, kwargs, result)
                elapsed += time.perf_counter() - mark  # keep the counting out of the parent
            if self._stack:
                self._stack[-1][0] += elapsed
            return result

        return wrapper

    def install(self) -> None:
        from oquiver import cache, cli, icmod, quiver, schubert, soergel

        def patch(owner, attr, name, count=None):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

        def extend_count(v, args, kwargs, result):
            v["soergel.extend_calls"] += 1

        def extract_count(v, args, kwargs, result):
            v["soergel.module_dim_total"] += result[0].dim

        def hom0_count(v, args, kwargs, result):
            v["soergel.hom0_solves"] += 1
            v["soergel.hom0_nonzero"] += bool(result)

        def nullspace_count(v, args, kwargs, result):
            rows, ncols = args[0], args[1]
            v["linalg.constraint_rows"] += len(rows)
            v["linalg.unknowns"] += ncols

        def hom_count(v, args, kwargs, result):
            degree = args[3] if len(args) > 3 else kwargs["degree"]
            if degree == 1:
                v["homspace.hom1_solves"] += 1
                v["homspace.hom1_nonzero"] += result.dim > 0

        def relator_count(v, args, kwargs, result):
            q = args[0]
            if getattr(q, "_bench_counted", False):
                return  # memoized call: the relators were counted once
            q._bench_counted = True
            v["quiver.relator_dim"] += sum(len(c) for c in result.values())
            n = len(q.group)
            v["quiver.paths"] += sum(len(q.paths(y, w)) for y in range(n) for w in range(n))

        def store_count(v, args, kwargs, result):
            v["cache.bytes"] += os.path.getsize(args[0])

        def load_count(v, args, kwargs, result):
            if result is not None:
                v["cache.bytes"] += os.path.getsize(args[0])

        patch(cache, "generate_weyl", "rootsystem.weyl_s")
        patch(schubert.CohRing, "__init__", "schubert.ring_s")
        patch(soergel, "extend", "soergel.extend_s", extend_count)
        patch(soergel, "extract_top", "soergel.extract_top_s", extract_count)
        patch(soergel, "hom_degree0", "soergel.hom0_s", hom0_count)
        patch(soergel, "nullspace_of_rows", "linalg.nullspace_s", nullspace_count)
        patch(icmod, "rank", "linalg.rank_s")
        patch(quiver, "hom_basis", "homspace.hom1_s", hom_count)
        patch(quiver.Quiver, "relators", "quiver.relators_s", relator_count)
        patch(cli, "to_json_doc", "quiver.export_s")
        patch(cache, "store", "cache.store_s", store_count)
        patch(cache, "load", "cache.load_s", load_count)
        patch(icmod, "assemble_differential", "icmod.assemble_s")
        patch(icmod, "validate", "icmod.validate_s")
        patch(icmod, "total_cohomology", "icmod.cohomology_s")
        patch(icmod, "verdier_dual", "icmod.dual_s")

    def snapshot(self) -> dict[str, float]:
        return dict(self.values)
