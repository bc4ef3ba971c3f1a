"""Run the bivariant CLI with the benchmark's spans installed.

    PERFBENCH_TRACE_OUT=trace.json python3 perfbench/cli_shim.py --json validate FILE

Behaves like ``python -m bivariant.cli`` (same arguments, output and exit
code) and, on exit, writes its aggregated spans and cache counts as JSON to
the file named by ``PERFBENCH_TRACE_OUT``.
"""

import json
import os
import sys

import tracing


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from bivariant import cli

    try:
        return cli.main(sys.argv[1:])
    finally:
        tracing.clear_caches(tracer)
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
