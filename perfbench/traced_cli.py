"""`python -m rrcalc.cli` with the outside-in tracer installed.

    PYTHONPATH=src python3 perfbench/traced_cli.py suite --format json

The CLI's output goes to stdout unchanged; the trace follows as the last
line of stderr, one JSON object.
"""

from __future__ import annotations

import json
import sys

import tracer as tracing

if __name__ == "__main__":
    trace = tracing.install()
    from rrcalc import cli

    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps({"metrics": trace.metrics(), "outermost": trace.outermost}), file=sys.stderr)
    sys.exit(code)
