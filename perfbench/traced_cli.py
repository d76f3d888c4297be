"""Run the qbarrier command line with spans recorded.

Usage: python3 perfbench/traced_cli.py SPANS_PATH ARGS...

Behaves like ``python -m qbarrier ARGS...`` (same output, same exit code)
and writes the spans it recorded, import included, to SPANS_PATH as JSON.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import qbarrier.cli  # noqa: E402  (the import is what is being timed)
t1 = perf_counter()

from spans import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.record("cli.import", t0, t1)
    tracer.install()
    try:
        code = tracer.wrapped("cli.main", qbarrier.cli.main)(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
