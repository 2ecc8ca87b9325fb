"""Run one tautcalc CLI command with per-layer spans installed.

    python3 benchmarks/traced_cli.py [tautcalc arguments...]

The report goes to stdout and the exit code is the command's, exactly as
with ``python3 -m tautcalc.cli``.  The span summary is written to stderr as
the last line, prefixed with ``TRACE ``.
"""

import json
import sys

from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    from tautcalc import cli

    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    print("TRACE " + json.dumps(tracer.summary()), file=sys.stderr)
    sys.exit(code)
