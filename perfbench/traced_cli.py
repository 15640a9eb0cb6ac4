"""``python -m dischar`` with the benchmark's layer wrappers installed.

    python3 perfbench/traced_cli.py <dischar arguments>

Stdout is the command's own output, byte for byte.  The recorded spans,
counts and peaks go to stderr as one JSON line, the last one.
"""

import json
import sys

import checkout

checkout.use_src()

import spans  # noqa: E402

tracer = spans.Tracer()
tracer.install()

from dischar.cli import main  # noqa: E402

try:
    code = main(sys.argv[1:])
finally:
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps(tracer.take()) + "\n")
sys.exit(code)
