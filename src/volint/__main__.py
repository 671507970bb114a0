"""The command line: ``python -m volint`` and the ``volint`` script.

OpenBLAS starts its worker threads when numpy loads, and an idle one
still spins and costs CPU in every run, while DFA's projections stay
below the size OpenBLAS would thread. So the entry point runs BLAS on
one thread unless the environment already chooses a count; the library
(``import volint``, ``volint.cli``) never touches the environment. The
thread count never changes an output byte.

Once the command is done, however it ends (a return, or argparse's
SystemExit for --help or a bad flag), the entry freezes the heap with
``gc.freeze()``: the interpreter's collections at exit then skip the
objects numpy and volint made, some 23,000 of them, which cost about
20 ms of every run. The process still exits the normal way (atexit
hooks, flushed streams, its exit code). An object left in a reference
cycle is then never finalized, so every file and pipe volint opens must
be closed by its owner, never left to the collector. The library and
``volint.cli.main`` never freeze, so a process that calls them and goes
on, such as a test run, keeps collecting.
"""

import gc
import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


def main() -> int:
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as cli_main   # numpy loads here, after the setting
    try:
        return cli_main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
