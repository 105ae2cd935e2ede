"""Run one ``fbound`` command in this process with every layer traced.

    python3 perfbench/traced_cli.py SPANS.npz WORKLOAD COMMAND -- FBOUND-ARGS...

The import of ``fbound.cli`` is recorded as the ``cli.import`` span; the
command then runs through ``fbound.cli.main`` and the spans are written to
SPANS.npz when it returns.  Exit code and standard output are those of the
command.
"""

import sys
from time import perf_counter

from layer_trace import IMPORT_SPAN, Tracer


def main(argv: list[str]) -> int:
    spans_path, workload, command, sep, *fbound_argv = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS WORKLOAD COMMAND -- ARGS...")
    tracer = Tracer()
    t0 = perf_counter()
    import fbound.cli
    tracer.add_span(IMPORT_SPAN, t0, perf_counter())
    tracer.install()
    try:
        return fbound.cli.main(fbound_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, workload, command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
