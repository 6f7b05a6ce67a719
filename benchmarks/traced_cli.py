"""Run one jetforms CLI command with spans around its layer calls.

    python3 benchmarks/traced_cli.py SPANS_JSON COMMAND PROBLEM [OPTIONS...]

Prints what the command prints and exits with its code.  SPANS_JSON gets
the spans and the time from the start of this script to the end of the
command, so the caller can attribute the rest of its wall time to
interpreter start-up and shutdown.
"""
import json
import sys
from time import perf_counter

start = perf_counter()

from tracing import Tracer  # noqa: E402

tracer = Tracer()
with tracer.span("cli.import"):
    import jetforms.cli  # noqa: E402
tracer.install()
code = tracer.call("cli.main", jetforms.cli.main, sys.argv[2:])
tracer.uninstall()
sys.stdout.flush()
with open(sys.argv[1], "w") as handle:
    json.dump({"elapsed": perf_counter() - start, "spans": tracer.spans}, handle)
sys.exit(code)
