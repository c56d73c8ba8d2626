"""Traced stand-in for `python -m pstwalk`, used by traced cli-cold runs.

Usage: python3 perfbench/cli_child.py TRACE_OUT ARGV...

Runs `pstwalk.cli.main(ARGV)` in this fresh process with every wrapped
function traced, writes the spans and aggregates to TRACE_OUT as JSON, and
exits with main's exit code.
"""

import json
import sys

import spans


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    import pstwalk.cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        code = pstwalk.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"aggregates": tracer.aggregates(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
