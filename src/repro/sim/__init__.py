"""Discrete-event simulation kernel underlying the DDStore reproduction."""

from .engine import AllOf, AnyOf, Engine, Event, Interrupt, Process, SimulationError, Timeout
from .resources import FluidStation, QueueStation, RWLock
from .rng import BlockDraws, RngRegistry, derive_seed, stream

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "RWLock",
    "QueueStation",
    "FluidStation",
    "RngRegistry",
    "BlockDraws",
    "stream",
    "derive_seed",
]
