"""Run one cubetag command with the package's public functions traced.

Usage: python3 bench/launch.py <trace.json> <cubetag arguments...>

Installs the benchmark's timing wrappers, calls ``cubetag.cli.main`` with
the arguments, writes the tracer's counts and spans to <trace.json> and
exits with the command's exit code. ``src`` must be on PYTHONPATH.
"""

import json
import sys

import cubetag.cli
import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cubetag.cli.main(argv)
    finally:
        with open(out, "w", encoding="ascii") as handle:
            json.dump(tracer.export(), handle)


if __name__ == "__main__":
    sys.exit(main())
