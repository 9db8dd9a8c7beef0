"""The landau CLI with its layer boundaries timed: the benchmark's traced run.

Usage: python3 bench/traced.py SPANS_PATH THREADS <landau CLI arguments...>

Pins the BLAS thread count to THREADS before numpy loads (the CLI's own
``--threads`` arrives too late once the package has been imported), wraps the
layer functions listed in ``layers.py``, runs ``landau.cli.main`` and writes the
spans to SPANS_PATH.  Exits with the CLI's exit code.
"""

import os
import sys

import layers

# the variables `landau --threads` sets
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def main(argv):
    spans_path, threads, cli_args = argv[0], argv[1], argv[2:]
    for var in THREAD_VARS:
        os.environ[var] = threads

    import landau.cli

    tracer = layers.Tracer()
    layers.install(tracer)
    run = tracer.wrap(layers.CLI_SPAN, landau.cli.main)
    try:
        return run(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
