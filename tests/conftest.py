"""Helpers shared by the test modules."""

import os

# BLAS on one thread, as the perf ledger runs (perf/pinenv.py), set before
# numpy loads: with a BLAS pool alive the harness generates every image
# inline, so this is what lets tier-1 reach its forked generation path.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from repro.storage import pack_graph  # noqa: E402


def pack_all(gen):
    """Every sample of ``gen`` packed, in order: what ``write_pff``/``write_cff`` take."""
    return [pack_graph(gen.make(i)) for i in range(len(gen))]
