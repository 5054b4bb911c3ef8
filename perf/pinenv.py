"""Environment every benchmark process runs under.

One BLAS/OpenMP thread (dataset generation otherwise burns two cores for one
core's worth of progress) and a fixed string-hash seed.  Both are read when
the interpreter and numpy start, so an entry point calls
:func:`reexec_pinned` before it imports anything heavy.
"""

import os
import sys

__all__ = ["PINNED_ENV", "reexec_pinned"]

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def reexec_pinned() -> None:
    """Replace this process by one with ``PINNED_ENV`` set, unless it is."""
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable] + sys.argv)
