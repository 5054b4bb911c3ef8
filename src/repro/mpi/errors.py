"""Error types for the simulated MPI runtime."""

from __future__ import annotations

__all__ = ["MPIError", "CollectiveMismatch", "RMAError"]


class MPIError(RuntimeError):
    """Base class for simulated-MPI failures."""


class CollectiveMismatch(MPIError):
    """Ranks of one communicator called different collectives at the same
    sequence point — undefined behaviour in MPI, a hard error here."""


class RMAError(MPIError):
    """Illegal one-sided access: bad target, range, or missing lock epoch."""
