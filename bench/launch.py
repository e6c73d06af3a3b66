"""Run one ``syntaxprobe.cli`` stage with the benchmark's tracing installed.

Usage: ``python bench/launch.py TRACE_FILE CLI_ARGS...``.  The traced
``cli_toy`` passes start each stage through this launcher instead of
``python -m syntaxprobe.cli``; it wraps the same functions as the in-process
workloads, runs ``cli.main`` and writes the spans to ``TRACE_FILE``.
"""

import sys

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    from syntaxprobe import cli

    code = cli.main(sys.argv[2:])
    tracer.dump(sys.argv[1])
    raise SystemExit(code)
