"""
Benchmark of the oquiver pipeline, end to end and layer by layer.

    python3 bench/run.py --workload cold-quiver --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md):

- cold-quiver: `oquiver quiver --format json` for A2, B2, G2 and A3, one
  fresh process and one empty private cache directory per type;
- warm-quiver: the same sweep, reading a cache filled during set-up;
- icmod-docs: seeded IC-module documents over A3, validated, their total
  cohomology computed when valid, and dualized, in this process.

Child processes run one at a time, with `src/` on PYTHONPATH and a private
cache directory; the user's cache is never read or written.  Every output
is checked against the KL oracle (bench/oracle.py).  The last line of
standard output is the result: correct, attempted, failed and metrics, the
end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`.  The line before it is a report for diagnosis.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import EXACT_COUNTS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

TYPES = ("A2", "B2", "G2", "A3")
ICMOD_TYPE = "A3"
SETUP_REPEATS = {"cold-quiver": 5, "warm-quiver": 3, "icmod-docs": 3}
CHILD_TIMEOUT_S = 120


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class Run:
    """One benchmark run: options, scratch directory, counters, findings."""

    def __init__(self, args, work: Path):
        self.workload = args.workload
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        self.rng = random.Random(args.seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed checks
        self.errors: list[str] = []  # failed operations
        self.report: dict = {}
        self.tracer = None
        if self.trace:
            self.tracer = Tracer()

    def check(self, fn, *args) -> bool:
        """Run one output check; a failure is recorded, not raised."""
        from oracle import CheckFailed

        try:
            fn(*args)
        except CheckFailed as exc:
            self.problems.append(str(exc))
            return False
        return True

    @contextlib.contextmanager
    def untraced(self):
        """Keep the benchmark's own calls out of the layer figures."""
        if self.tracer is None:
            yield
            return
        was, self.tracer.enabled = self.tracer.enabled, False
        try:
            yield
        finally:
            self.tracer.enabled = was


# -- child processes ---------------------------------------------------------------


def child_env(cache_dir: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "OQUIVER_CACHE")}
    env["PYTHONPATH"] = str(SRC)
    env["OQUIVER_CACHE"] = str(cache_dir)
    return env


@dataclasses.dataclass
class Child:
    """Result of one finished child: exit code, wall and CPU seconds, peak RSS, output files."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: Path
    stderr: Path


def run_child(argv: list[str], cache_dir: Path, stem: Path, trace_out: Path | None = None) -> Child:
    """Run one CLI process to completion; stdout and stderr go to files beside `stem`."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "oquiver.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "child.py"), str(trace_out), "--", *argv]
    out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(cache_dir), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, out_path, err_path
    )


def quiver_argv(name: str, cache_dir: Path) -> list[str]:
    return ["quiver", "--type", name, "--format", "json", "--cache-dir", str(cache_dir)]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# -- quiver workloads ----------------------------------------------------------------


class QuiverSweeps:
    """Sweeps over TYPES, every output compared with a checked reference."""

    def __init__(self, run: Run):
        import oracle

        self.run = run
        self.warm_dir: Path | None = None  # None: each process gets an empty cache
        self.oracles = {}
        kl_s = 0.0
        for name in TYPES:
            start = time.perf_counter()
            self.oracles[name] = oracle.Oracle(name)
            kl_s += time.perf_counter() - start
        self.kl_s = kl_s
        self.golden = oracle.golden_a2_relators(ROOT)
        self.reference: dict[str, bytes] = {}
        self.count = 0

    def accept(self, name: str, data: bytes, what: str) -> None:
        """Check an output fully the first time, then for identical bytes."""
        import oracle

        if name not in self.reference:
            golden = self.golden if name == "A2" else None
            if self.run.check(oracle.check_quiver, self.oracles[name], data.decode(), golden):
                self.reference[name] = data
            return
        self.run.check(oracle.check_identical, name, self.reference[name], data, what)

    def sweep(self, order, traced: bool, what: str) -> dict:
        """One process per type, in `order`; returns wall, cpu, rss and per-type times."""
        run = self.run
        self.count += 1
        result = {"wall": 0.0, "cpu": 0.0, "rss_mb": 0.0, "cache_bytes": 0, "times": {}, "trace": {}}
        for name in order:
            stem = run.work / f"{self.count:04d}-{name}"
            if self.warm_dir is None:
                cache_dir = run.work / f"cache-{self.count:04d}-{name}"
                cache_dir.mkdir()
                cache_file = None
            else:
                cache_dir = self.warm_dir
                cache_file = next(cache_dir.glob(f"{name.lower()}-*.json"))
                before = cache_file.stat()
            trace_out = stem.with_suffix(".trace") if traced else None
            child = run_child(quiver_argv(name, cache_dir), cache_dir, stem, trace_out)
            run.attempted += 1
            if child.code != 0:
                run.failed += 1
                run.errors.append(f"{name}: exit {child.code}: {child.stderr.read_text()[-300:]}")
                continue
            self.accept(name, child.stdout.read_bytes(), what)
            if cache_file is None:
                result["cache_bytes"] += dir_bytes(cache_dir)
                shutil.rmtree(cache_dir)
            else:
                after = cache_file.stat()
                hit = child.stderr.stat().st_size == 0 and (before.st_mtime_ns, before.st_size) == (
                    after.st_mtime_ns, after.st_size)
                if not hit:
                    run.problems.append(f"{name}: warm run did not read its cache unchanged")
                result["cache_bytes"] += after.st_size
            result["wall"] += child.wall
            result["cpu"] += child.cpu
            result["rss_mb"] = max(result["rss_mb"], child.rss_mb)
            result["times"][name] = child.wall
            if traced:
                for key, value in json.loads(trace_out.read_text()).items():
                    result["trace"][key] = result["trace"].get(key, 0.0) + value
            child.stdout.unlink()
            child.stderr.unlink()
        return result


def self_test_quiver(run: Run, sweeps: QuiverSweeps) -> None:
    """Corrupted outputs must be rejected by the same checks."""
    import oracle

    reference = sweeps.reference.get("A2")
    if reference is None:
        return
    doc = json.loads(reference)
    dropped = dict(doc, relations=doc["relations"][:-1])
    extra = dict(doc, arrows=doc["arrows"] + [dict(doc["arrows"][-1], index=doc["arrows"][-1]["index"] + 1)])
    flipped = bytearray(reference)
    flipped[len(flipped) // 2] ^= 1
    cases = {
        "relator dropped": lambda: oracle.check_quiver(sweeps.oracles["A2"], json.dumps(dropped), sweeps.golden),
        "arrow count off by one": lambda: oracle.check_quiver(sweeps.oracles["A2"], json.dumps(extra), sweeps.golden),
        "warm output one byte off": lambda: oracle.check_identical("A2", reference, bytes(flipped), "warm"),
    }
    outcome = {}
    for label, fn in cases.items():
        try:
            fn()
            outcome[label] = "accepted"
            run.problems.append(f"self-test: {label} was not rejected")
        except oracle.CheckFailed:
            outcome[label] = "rejected"
    run.report["self_test"] = outcome


def quiver_workload(run: Run, warm: bool) -> dict:
    sweeps = QuiverSweeps(run)
    setup_times = []
    for n in range(SETUP_REPEATS[run.workload]):
        start = time.perf_counter()
        if warm:
            # set-up: fill a fresh private cache with every type; its outputs are the cold reference
            warm_dir = run.work / f"warm-cache-{n}"
            warm_dir.mkdir()
            for name in TYPES:
                child = run_child(quiver_argv(name, warm_dir), warm_dir, run.work / f"fill-{n}-{name}")
                if child.code != 0:
                    raise SystemExit(f"set-up failed on {name}: {child.stderr.read_text()[-300:]}")
                sweeps.accept(name, child.stdout.read_bytes(), "cold set-up")
            sweeps.warm_dir = warm_dir
        else:
            # set-up: start the interpreter and import the package, as every CLI call does
            child = subprocess.run([sys.executable, "-c", "import oquiver.cli"],
                                   env=child_env(run.work), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
            if child.returncode != 0:
                raise SystemExit("set-up failed: cannot import oquiver.cli")
        setup_times.append(time.perf_counter() - start)

    what = "warm" if warm else "cold"
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < run.seconds:
        order = run.rng.sample(TYPES, len(TYPES))
        plain.append(sweeps.sweep(order, False, what))
        if run.trace:
            traced.append(sweeps.sweep(order, True, what))
    self_test_quiver(run, sweeps)
    run.report["digests"] = {n: hashlib.sha256(b).hexdigest() for n, b in sorted(sweeps.reference.items())}
    run.report["rounds"] = len(plain)
    run.report["setup_runs_s"] = setup_times

    if run.trace:
        layer = {}
        for t in traced:
            for key, value in t["trace"].items():
                layer[key] = layer.get(key, 0.0) + value / len(traced)
        layer["kl.table_s"] = sweeps.kl_s
        layer["trace.overhead_s"] = (statistics.median(t["wall"] for t in traced)
                                     - statistics.median(p["wall"] for p in plain))
        return layer

    walls = [p["wall"] for p in plain]
    a3 = [p["times"]["A3"] for p in plain if "A3" in p["times"]]
    docs = sum(len(p["times"]) for p in plain)
    return {
        "setup_s": statistics.median(setup_times),
        "round_s": statistics.median(walls),
        "round_cpu_s": statistics.median(p["cpu"] for p in plain),
        "peak_rss_mb": max(p["rss_mb"] for p in plain),
        "cache_bytes": statistics.median(p["cache_bytes"] for p in plain),
        "docs_per_s": docs / sum(walls),
        "doc_ms": 1000 * statistics.median(a3) if a3 else 0.0,
    }


# -- IC-module documents ---------------------------------------------------------------


def icmod_workload(run: Run) -> dict:
    import docs
    import oracle
    from oquiver import cache, icmod, quiver

    start = time.perf_counter()
    orc = oracle.Oracle(ICMOD_TYPE)
    kl_s = time.perf_counter() - start

    # set-up: load the pipeline into a fresh private cache, with relators and duality pairings
    setup_times = []
    for n in range(SETUP_REPEATS[run.workload]):
        cache_dir = run.work / f"icmod-cache-{n}"
        start = time.perf_counter()
        pipeline = cache.load_pipeline(ICMOD_TYPE, cache_dir=cache_dir)
        q = pipeline.quiver
        q.relators()
        icmod.verdier_dual(q, icmod.ICModule({}, {}))
        setup_times.append(time.perf_counter() - start)
        cache_bytes = dir_bytes(cache_dir)
    g = q.group
    for w in g.elements:
        run.check(oracle.need, q.family.graded_dims(w) == orc.table.ih_graded_dims(orc.group.parse(str(w))),
                  f"{ICMOD_TYPE}: graded dims of V[{w}] disagree with KL")
    relators = {}
    run.check(lambda: relators.update(oracle.check_quiver(orc, json.dumps(quiver.to_json_doc(q)))))

    if run.tracer is not None:
        run.tracer.install()

    def process(doc_text: str):
        """One document, as a user runs it: read, validate, cohomology if valid, dual, write."""
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        m = icmod.icmodule_from_doc(q, json.loads(doc_text))
        valid = icmod.validate(q, m)
        coh = icmod.total_cohomology(q, m) if valid else None
        dual = icmod.verdier_dual(q, m)
        json.dumps(icmod.icmodule_to_doc(q, dual))
        return (time.perf_counter() - start_wall, time.process_time() - start_cpu), m, valid, coh, dual

    def check_verdict(kind, doc, valid):
        oracle.need(kind not in docs.VALID_BY_CONSTRUCTION or valid,
                    f"{kind} document judged invalid")
        oracle.need(valid == oracle.relators_annihilate(relators, doc),
                    f"{kind} document: validate says {valid}, relator test disagrees")

    def check_doc(kind, doc, m, valid, coh, dual):
        check_verdict(kind, doc, valid)
        oracle.need(icmod.verdier_dual(q, dual) == m, f"{kind} document: D(D(m)) != m")
        if valid:
            euler = sum((-1) ** (n % 2) * h for n, h in coh.items())
            oracle.need(euler == oracle.expected_euler(orc, doc),
                        f"{kind} document: Euler characteristic {euler} disagrees with KL")

    latencies, round_walls, round_cpus, traced_walls, plain_walls = [], [], [], [], []
    first_of_kind = {}
    loop_start = time.perf_counter()
    while not round_walls or time.perf_counter() - loop_start < run.seconds:
        batch = docs.make_round(orc, run.rng)
        wall = cpu = 0.0
        traced_wall = 0.0
        for kind, doc in batch:
            text = json.dumps(doc)
            run.attempted += 1
            try:
                with run.untraced():
                    (dt, dc), m, valid, coh, dual = process(text)
                if run.tracer is not None:
                    (tt, _), *_ = process(text)
                    traced_wall += tt
                    run.tracer.add("icmod.total_dim", oracle.total_dim(orc, doc))
            except Exception as exc:  # a failed operation is counted, and the run goes on
                run.failed += 1
                run.errors.append(f"{kind} document raised {exc!r}")
                continue
            with run.untraced():
                run.check(check_doc, kind, doc, m, valid, coh, dual)
            first_of_kind.setdefault(kind, (doc, valid))
            latencies.append(dt)
            wall += dt
            cpu += dc
        round_walls.append(wall)
        round_cpus.append(cpu)
        if run.tracer is not None:
            traced_walls.append(traced_wall)
            plain_walls.append(wall)

    # self-test: a flipped verdict must be rejected
    outcome = {}
    for kind, (doc, valid) in sorted(first_of_kind.items()):
        try:
            with run.untraced():
                check_verdict(kind, doc, not valid)
            outcome[f"{kind} verdict flipped"] = "accepted"
            run.problems.append(f"self-test: flipped verdict on a {kind} document was not rejected")
        except oracle.CheckFailed:
            outcome[f"{kind} verdict flipped"] = "rejected"
    run.report["self_test"] = outcome
    run.report["rounds"] = len(round_walls)
    run.report["setup_runs_s"] = setup_times

    if run.tracer is not None:
        layer = {k: v / len(traced_walls) for k, v in run.tracer.snapshot().items()}
        layer["kl.table_s"] = kl_s
        layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
        return layer

    return {
        "setup_s": statistics.median(setup_times),
        "round_s": statistics.median(round_walls),
        "round_cpu_s": statistics.median(round_cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cache_bytes": cache_bytes,
        "docs_per_s": len(latencies) / sum(latencies),
        "doc_ms": 1000 * statistics.median(latencies),
    }


WORKLOADS = {
    "cold-quiver": lambda run: quiver_workload(run, warm=False),
    "warm-quiver": lambda run: quiver_workload(run, warm=True),
    "icmod-docs": icmod_workload,
}


def metrics_of(run: Run, values: dict) -> dict:
    if run.trace:
        values = dict(values)
        solves = values.get("homspace.hom1_solves", 0)
        values["homspace.hom1_yield"] = values.get("homspace.hom1_nonzero", 0) / solves if solves else 0.0
        return {name: {"value": values.get(name, 0.0), "unit": unit}
                for name, unit in declared_metrics("per_layer").items()}
    return {name: {"value": values[name], "unit": unit} for name, unit in declared_metrics("end_to_end").items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oquiver" / "__init__.py").is_file():
        print(f"error: no oquiver sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # byte-compile once, so no process's timing depends on whether an earlier one wrote .pyc files
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)

    work = BENCH / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args, work)
    try:
        values = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run.report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        python=sys.version.split()[0],
        exact_counts=list(EXACT_COUNTS) if run.trace else [],
        problems=run.problems[:20],
        errors=run.errors[:20],
    )
    print(json.dumps({"report": run.report}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics_of(run, values),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
