"""One cold CLI invocation: ``python3 cli_child.py [--trace-out PATH] ARGS...``.

Runs ``wordmetric.cli.main(ARGS)`` in this fresh interpreter.  The moment the
package is imported is written to stderr as ``#ready <perf_counter>`` so the
parent can measure set-up.  With ``--trace-out`` the per-layer counts are
written to PATH (JSON) and the spans to PATH.spans.gz.
"""

from __future__ import annotations

import json
import sys
import time

import wordmetric.cli

sys.stderr.write(f"#ready {time.perf_counter()!r}\n")
sys.stderr.flush()


def main(argv) -> int:
    trace_out = None
    if argv and argv[0].startswith("--trace-out="):
        trace_out = argv[0].split("=", 1)[1]
        argv = argv[1:]
    if trace_out is None:
        return wordmetric.cli.main(argv)
    import tracer as tracing

    tracer = tracing.Tracer().install()
    try:
        code = wordmetric.cli.main(argv)
    finally:
        summary = tracer.finish(trace_out + ".spans.gz")
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
