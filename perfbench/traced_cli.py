"""Run one cytk command line under the benchmark's trace wrappers.

    python3 perfbench/traced_cli.py SPANS_FILE ARG...

The wrappers are installed in this fresh interpreter before ``cli.main``
runs; the spans and the pair-cache counts are written to SPANS_FILE when
the command ends.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    from cytk import cli

    try:
        return tracer.call("cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, {"pair_cache": tracing.pair_cache_info()})


if __name__ == "__main__":
    sys.exit(main())
