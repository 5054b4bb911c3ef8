"""Launching a simulated MPI job: the ``mpiexec`` of this reproduction.

A *rank program* is a generator function ``def main(ctx): ...`` taking a
:class:`RankContext`.  :func:`run_world` builds a :class:`~.comm.World`
for the requested machine and node count, spawns every rank as a
simulation process, runs the engine until all ranks return, and hands back
their return values plus the world (for inspecting clocks, stats, and
hardware counters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..hardware import MachineSpec
from ..sim import Engine
from .comm import Comm, MPIStats, World

__all__ = ["RankContext", "JobResult", "run_world", "spawn_ranks"]


@dataclass
class RankContext:
    """Everything one simulated process sees."""

    rank: int
    size: int
    comm: Comm
    world: World

    @property
    def engine(self) -> Engine:
        return self.world.engine

    @property
    def now(self) -> float:
        return self.world.engine.now

    @property
    def stats(self) -> MPIStats:
        return self.world.stats[self.rank]

    @property
    def node_index(self) -> int:
        return self.world.machine.node_of_rank(self.rank)


@dataclass
class JobResult:
    """Outcome of a simulated run: per-rank returns + the world state."""

    results: list[Any]
    world: World

    @property
    def elapsed(self) -> float:
        """Virtual seconds from launch to the last rank's return."""
        return self.world.engine.now

    def merged_stats(self) -> MPIStats:
        merged = MPIStats()
        for s in self.world.stats:
            merged = merged.merged(s)
        return merged


def spawn_ranks(
    world: World,
    rank_main: Callable[..., Generator],
    *args: Any,
    **kwargs: Any,
) -> list:
    """Spawn one simulation process per rank; returns the Process list."""
    procs = []
    for rank in range(world.n_ranks):
        ctx = RankContext(
            rank=rank, size=world.n_ranks, comm=world.comm_handle(rank), world=world
        )
        gen = rank_main(ctx, *args, **kwargs)
        procs.append(world.engine.process(gen, name=f"rank{rank}"))
    return procs


def run_world(
    machine: MachineSpec,
    n_nodes: int,
    rank_main: Callable[..., Generator],
    *args: Any,
    seed: int = 0,
    world: Optional[World] = None,
    **kwargs: Any,
) -> JobResult:
    """Run ``rank_main`` on every rank of an ``n_nodes`` allocation.

    Ranks-per-node follows the machine's GPUs-per-node (one training
    process per GPU, the paper's deployment).  Returns when all ranks have
    returned; raises the first unhandled per-rank exception.
    """
    if world is None:
        world = World(machine, n_nodes, seed=seed)
    procs = spawn_ranks(world, rank_main, *args, **kwargs)
    done = world.engine.all_of(procs)
    results = world.engine.run(until=done)
    return JobResult(results=results, world=world)
