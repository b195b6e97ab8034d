"""Traced stand-in for ``python -m ebitflow`` in the cli-small workload.

Usage: python bench/child.py SPANS_FILE ebitflow-arguments...

Runs the CLI exactly as ``python -m ebitflow`` does, with the tracer
installed, and writes its spans plus the time spent importing the CLI and
inside ``main`` to SPANS_FILE. The ebitflow sources must be importable,
e.g. through PYTHONPATH.
"""

import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer, dump_spans


def run() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = perf_counter()
    import ebitflow.cli

    t1 = perf_counter()
    tracer = Tracer()
    tracer.install()
    try:
        code = ebitflow.cli.main(argv)
    finally:
        t2 = perf_counter()
        tracer.uninstall()
        sys.stdout.flush()
        dump_spans(spans_file, tracer.spans, import_s=t1 - t0, main_s=t2 - t1)
    return code


if __name__ == "__main__":
    sys.exit(run())
