"""The command line: ``python -m volint`` and the ``volint`` script.

OpenBLAS starts its worker threads when numpy loads, and an idle one
still spins and costs CPU in every run, while DFA's projections stay
below the size OpenBLAS would thread. So the entry point runs BLAS on
one thread unless the environment already chooses a count; the library
(``import volint``, ``volint.cli``) never touches the environment. The
thread count never changes an output byte.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


def main() -> int:
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as cli_main   # numpy loads here, after the setting
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
