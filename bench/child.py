"""
Traced CLI process: installs the layer wrappers, runs `oquiver.cli.main`
on the given arguments, and writes the layer totals as JSON.

    python3 bench/child.py TRACE_OUT.json -- quiver --type A3 --format json
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        print("usage: child.py TRACE_OUT -- OQUIVER_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from oquiver import cli

    code = cli.main(argv)
    Path(out).write_text(json.dumps(tracer.snapshot()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
