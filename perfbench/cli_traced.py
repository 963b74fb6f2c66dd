"""Run the cpbound command line with span tracing, for traced cli-roundtrip requests.

Usage: python3 perfbench/cli_traced.py TRACE_FILE CPBOUND_ARGS...

Behaves like ``python -m cpbound CPBOUND_ARGS...`` (same output, same exit
code) and writes the spans and counters it recorded to TRACE_FILE as JSON,
with ``ready_ns``: the clock reading once cpbound was imported.
"""

import json
import sys
from pathlib import Path

import benchenv
from spantrace import Tracer, clock


def main() -> int:
    benchenv.require_program()
    from cpbound import cli

    ready_ns = clock()
    tracer = Tracer()
    with tracer.installed(), tracer.request_scope(0, root=None):
        code = cli.run(sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps({"ready_ns": ready_ns, **tracer.export()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
