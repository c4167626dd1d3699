"""Run ``rdagg.cli.main`` with the span wrappers installed, for a traced CLI op.

Usage: python cli_child.py TRACE_JSON CLI_ARGS...

Times the package import as an ``import`` span, installs the wrappers, runs
the command, writes the spans and counters to TRACE_JSON and exits with the
command's exit code.
"""

import json
import sys
from time import perf_counter_ns

import tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Recorder()
    start = perf_counter_ns()
    import rdagg.cli

    recorder.add_span("import.rdagg", start, perf_counter_ns())
    tracer.install(recorder)
    code = rdagg.cli.main(argv)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans, "counts": recorder.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
