"""Traced stand-in for ``python -m transitopt.cli``.

Usage: python3 perfbench/cli_launcher.py TRACE_FILE CLI_ARGS...

Times the package import, wraps each module's public functions, runs the
CLI with CLI_ARGS and writes the spans to TRACE_FILE when the command ends.
The exit status is the CLI's own.
"""

import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    trace_file, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    idx = tracer.begin("cli.import")
    import transitopt.cli
    tracer.end(idx)
    tracer.install()
    try:
        return transitopt.cli.main(argv)
    finally:
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
