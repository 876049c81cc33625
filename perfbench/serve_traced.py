"""Launch the simulation service with the benchmark's timing shims.

    python3 perfbench/serve_traced.py --spans-out FILE -- <repro serve args>

Installs the shims, then runs the same ``serve`` entry point as
``python -m repro serve``, so the program still runs as its own process.
When the server has drained (SIGTERM), the recorded spans and counts are
written to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchlib import SpanLog
from shims import Shims


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]

    log = SpanLog()
    shims = Shims(log)
    shims.install_core()
    shims.install_service()
    from repro.cli import main as repro_main

    status = repro_main(["serve", *serve_args])
    with open(args.spans_out, "w") as handle:
        json.dump({"spans": log.to_json(), "counts": dict(shims.counts)}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
