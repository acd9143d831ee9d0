"""
Command line surface.

Subcommands: weyl, cohomology, ih, hom, kl, quiver, check, and the icmod
group (validate / cohomology / dual).  Exit codes: 0 success, 1 domain
errors (unknown type, malformed element, unwritable cache, invalid input
module), 2 usage errors, 141 with nothing on stderr when the reader closes
stdout early (as `head` does).  Output is deterministic byte for byte for
fixed flags; `--seed` pins the randomized parts of `check`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cache as cache_mod
from . import icmod as icmod_ops
from . import kl as kl_mod
from .checks import SUITES, run_suite
from .homspace import hom_basis
from .linalg import DimensionMismatch, format_rational
from .quiver import MalformedPath, to_dot, to_json_doc, to_text
from .rootsystem import (
    GroupTooLarge,
    InvalidRootSystem,
    build,
    generate_weyl,
    parse_type,
)
from .schubert import CohRing, class_str
from .soergel import CoverNotSeparable

DOMAIN_ERRORS = (
    InvalidRootSystem,
    GroupTooLarge,
    MalformedPath,
    DimensionMismatch,
    CoverNotSeparable,
    icmod_ops.ShapeError,
    icmod_ops.InvalidModule,
    cache_mod.CacheUnusable,
    cache_mod.UnreadableJSON,
    OSError,  # a missing input file, or an --out file that cannot be written
)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _add_type(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", required=True, metavar="XN", help="root system, e.g. A2, B3")


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", type=Path, default=None, help="cache directory (default: $OQUIVER_CACHE or ~/.cache/oquiver)")
    parser.add_argument("--no-cache", action="store_true", help="recompute everything, touch no cache files")


def _pipeline(args, name: str | None = None) -> cache_mod.Pipeline:
    """The pipeline of `name`, by default the `--type` flag's."""
    return cache_mod.load_pipeline(
        name or args.type,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        warn=_warn,
    )


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


# -- subcommand bodies -----------------------------------------------------------


def cmd_weyl(args) -> int:
    group = generate_weyl(build(*parse_type(args.type)))
    w0 = group.longest
    print(f"W({group.rootsystem.name}): {len(group)} elements, longest {w0} (length {w0.length})")
    for w in group.elements:
        print(f"  {w}  (length {w.length})")
    return 0


def cmd_cohomology(args) -> int:
    group = generate_weyl(build(*parse_type(args.type)))
    ring = CohRing(group)
    name = group.rootsystem.name
    print(f"H*(G/B) for {name}: dimension {len(group)}")
    if args.table:
        generators = range(1, group.rootsystem.rank + 1)
        header = [""] + [f"σ[{group.simple(i)}]" for i in generators]
        body = []
        for w in group.elements:
            label = "1" if w.length == 0 else f"σ[{w}]"
            body.append([label] + [class_str(group, ring.chevalley_multiply(i, w)) for i in generators])
        widths = [max(len(r[c]) for r in [header] + body) for c in range(len(header))]
        for r in [header] + body:
            print("  " + " | ".join(cell.ljust(width) for cell, width in zip(r, widths)).rstrip())
    else:
        for i in range(1, group.rootsystem.rank + 1):
            basis = ", ".join(
                "1" if w.length == 0 else f"σ[{w}]" for w in ring.invariant_basis(i)
            )
            print(f"  invariants of s_{i}: {basis}")
    return 0


def cmd_ih(args) -> int:
    pipeline = _pipeline(args)
    w = pipeline.group.parse(args.element)
    module = pipeline.family.modules[w.idx]
    if args.dump:
        print(cache_mod.indented_json(cache_mod.module_doc(pipeline, w)))
        return 0
    dims = module.graded_dims()
    print(" ".join(str(dims[d]) for d in sorted(dims)))
    return 0


def cmd_hom(args) -> int:
    pipeline = _pipeline(args)
    g = pipeline.group
    y, w = g.parse(args.source), g.parse(args.target)
    hb = hom_basis(pipeline.family, y, w, args.degree)
    print(f"dim Hom^{args.degree}(V[{y}], V[{w}]) = {hb.dim}")
    for n, mat in enumerate(hb.basis):
        print(f"basis[{n}]:")
        for row in mat.dense():
            print("  " + " ".join(format_rational(x) for x in row))
    return 0


def cmd_kl(args) -> int:
    group = generate_weyl(build(*parse_type(args.type)))
    y, w = group.parse(args.source), group.parse(args.target)
    p = kl_mod.kl_polynomial(group, y, w)
    print(f"P[{y}, {w}] = {kl_mod.pstr(p)}")
    print(f"mu = {kl_mod.mu(group, y, w)}")
    return 0


def cmd_quiver(args) -> int:
    if args.appendix_numbering and parse_type(args.type) != ("A", 2):
        print("error: appendix numbering is only defined for A2", file=sys.stderr)
        return 1
    pipeline = _pipeline(args)
    q = pipeline.quiver
    if args.format == "json":
        text = cache_mod.indented_json(to_json_doc(q, appendix_numbering=args.appendix_numbering)) + "\n"
    elif args.format == "dot":
        text = to_dot(q, appendix_numbering=args.appendix_numbering)
    else:
        text = to_text(q, appendix_numbering=args.appendix_numbering)
    _emit(text, args.out)
    return 0


def cmd_check(args) -> int:
    pipeline = _pipeline(args)
    results = run_suite(pipeline.quiver, args.suite, args.seed)
    failures = 0
    for name, failure in results:
        if failure is None:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {failure}")
    print(f"{len(results) - failures}/{len(results)} checks passed (suite {args.suite}, seed {args.seed})")
    return 1 if failures else 0


def _load_icmodule(args):
    doc = cache_mod.read_json(Path(args.file))
    pipeline = _pipeline(args, icmod_ops.document_type(doc))
    return pipeline, icmod_ops.icmodule_from_doc(pipeline.quiver, doc)


def cmd_icmod_validate(args) -> int:
    pipeline, module = _load_icmodule(args)
    if icmod_ops.validate(pipeline.quiver, module):
        print("valid: d^2 = 0")
        return 0
    print("invalid: d^2 != 0")
    return 1


def cmd_icmod_cohomology(args) -> int:
    pipeline, module = _load_icmodule(args)
    dims = icmod_ops.total_cohomology(pipeline.quiver, module)
    if not dims:
        print("total cohomology: 0")
        return 0
    for degree in sorted(dims):
        print(f"H^{degree}: {dims[degree]}")
    return 0


def cmd_icmod_dual(args) -> int:
    pipeline, module = _load_icmodule(args)
    dual = icmod_ops.verdier_dual(pipeline.quiver, module)
    text = cache_mod.indented_json(icmod_ops.icmodule_to_doc(pipeline.quiver, dual)) + "\n"
    _emit(text, args.out)
    return 0


# -- parser ----------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oquiver",
        description="Exact quiver-with-relations pipeline for the regular block of category O.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weyl", help="list the Weyl group")
    _add_type(p)
    p.set_defaults(fn=cmd_weyl)

    p = sub.add_parser("cohomology", help="the Schubert-basis cohomology ring")
    _add_type(p)
    p.add_argument("--table", action="store_true", help="print the generator multiplication table")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("ih", help="graded dimensions (or full dump) of one module")
    _add_type(p)
    _add_cache_flags(p)
    p.add_argument("--element", required=True, help='element like "1.2.1" or "e"')
    p.add_argument("--dump", action="store_true", help="dump degrees and the action matrix of every class as JSON")
    p.set_defaults(fn=cmd_ih)

    p = sub.add_parser("hom", help="basis of a graded Hom space")
    _add_type(p)
    _add_cache_flags(p)
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--degree", type=int, default=1)
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("kl", help="Kazhdan-Lusztig polynomial and mu")
    _add_type(p)
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.set_defaults(fn=cmd_kl)

    p = sub.add_parser("quiver", help="the quiver with relations")
    _add_type(p)
    _add_cache_flags(p)
    p.add_argument("--format", choices=("json", "dot", "text"), default="text")
    p.add_argument("--appendix-numbering", action="store_true", help="classical A2 vertex numbering (longest element = 1)")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(fn=cmd_quiver)

    p = sub.add_parser("check", help="run the invariant battery")
    _add_type(p)
    _add_cache_flags(p)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("icmod", help="operations on IC-module documents")
    icmod_sub = p.add_subparsers(dest="icmod_command", required=True)

    pv = icmod_sub.add_parser("validate", help="chain complex axiom d^2 = 0")
    pv.add_argument("file", metavar="FILE")
    _add_cache_flags(pv)
    pv.set_defaults(fn=cmd_icmod_validate)

    pc = icmod_sub.add_parser("cohomology", help="graded dimensions of the total complex")
    pc.add_argument("file", metavar="FILE")
    _add_cache_flags(pc)
    pc.set_defaults(fn=cmd_icmod_cohomology)

    pd = icmod_sub.add_parser("dual", help="Verdier dual, written as a document")
    pd.add_argument("file", metavar="FILE")
    pd.add_argument("--out", type=Path, default=None)
    _add_cache_flags(pd)
    pd.set_defaults(fn=cmd_icmod_dual)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: not an error of this run, so no message;
        # /dev/null takes the descriptor so the flush at exit cannot raise again
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except DOMAIN_ERRORS as exc:
        # one line, even when a message quotes document text with a newline
        print(f"error: {exc}".replace("\n", "\\n"), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
