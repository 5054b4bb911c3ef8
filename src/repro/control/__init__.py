"""Online control loops closing the observability feedback path.

The observability layer (``repro.obs``) measures the data plane — fetch
latency, RMA contention, tier stalls, overlap efficiency — but until now
nothing *acted* on those measurements: replication width was fixed at
store creation and a bad choice cost the whole run.  This package closes
the loop.  :class:`ElasticWidthController` is the pure decision policy (a
deterministic hysteresis hill-climb over the divisor lattice of the world
size) and :class:`ElasticCoordinator` is the actuator that quiesces the
training pipeline, drives the live memory-to-memory reshard, and repoints
the loader's dataset at the new store generation — all between epochs, with no
restart, deterministic under the sim clock.
"""

from .controller import Decision, ElasticWidthController, EpochSignals
from .coordinator import ElasticCoordinator

__all__ = [
    "Decision",
    "ElasticWidthController",
    "EpochSignals",
    "ElasticCoordinator",
]
