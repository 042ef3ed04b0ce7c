"""Run one pannkit CLI command with the span tracer installed.

    python3 perfbench/traced_cli.py RUN_ID TRACE_JSONL <pannkit arguments>

Equivalent to ``python3 -m pannkit.cli <pannkit arguments>`` with pannkit
importable, except that the spans of the process are written to TRACE_JSONL
when it exits.
"""

import sys

import tracer

if __name__ == "__main__":
    tracer.install(sys.argv[1], sys.argv[2])
    from pannkit import cli

    raise SystemExit(cli.main(sys.argv[3:]))
