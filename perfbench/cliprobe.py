"""Traced stand-in for the `qifkit` console script, used by the traced cli
round: times `import qifkit.cli`, installs the tracer, runs `main` and
writes the spans to the given file.  The report goes to stdout unchanged.

Usage: python cliprobe.py SPANS.npz <qifkit arguments...>
"""

import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import qifkit.cli

    import_ms = (time.perf_counter() - started) * 1e3
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return qifkit.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, import_ms=import_ms)


if __name__ == "__main__":
    sys.exit(main())
