"""Simulated MPI runtime: communicators, p2p, collectives, one-sided RMA."""

from .comm import ANY_SOURCE, ANY_TAG, Comm, Communicator, MPIStats, World, waitall
from .datatypes import REDUCTIONS, reduce_values, sizeof
from .errors import CollectiveMismatch, MPIError, RMAError
from .launcher import JobResult, RankContext, run_world, spawn_ranks
from .rma import LOCK_EXCLUSIVE, LOCK_SHARED, Pieces, WinHandle, Window, create_window

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "Communicator",
    "World",
    "MPIStats",
    "waitall",
    "sizeof",
    "reduce_values",
    "REDUCTIONS",
    "MPIError",
    "CollectiveMismatch",
    "RMAError",
    "RankContext",
    "JobResult",
    "run_world",
    "spawn_ranks",
    "Pieces",
    "Window",
    "WinHandle",
    "create_window",
    "LOCK_SHARED",
    "LOCK_EXCLUSIVE",
]
