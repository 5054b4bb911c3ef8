"""Reproduction of *DDStore: Distributed Data Store for Scalable Training of
Graph Neural Networks on Large Atomistic Modeling Datasets* (SC-W 2023).

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel (engine, resources, RNG streams).
``repro.hardware``
    Machine models: Summit/Perlmutter topologies, interconnect, parallel
    filesystem with page caches, GPU cost model.
``repro.mpi``
    A from-scratch simulated MPI: communicators, p2p, collectives, and the
    one-sided RMA windows DDStore is built on.
``repro.storage``
    Graph codec, virtual filesystem, and the PFF/CFF baseline formats.
``repro.graphs``
    Atomistic graph samples and the paper's four dataset generators.
``repro.core``
    **DDStore itself**: chunking, replication width, data registry,
    preloader plugins, the RMA fetch path, and torch-like data loaders.
``repro.gnn``
    HydraGNN-like NumPy GNN (PNA layers), AdamW, DDP training loop.
``repro.bench``
    Experiment harness regenerating every table and figure.
``repro.obs``
    Unified observability: metrics registry, span tracing with Chrome
    export, and the critical-path analyzer behind ``python -m repro trace``.
``repro.serving``
    Multi-tenant serving layer: one store, N concurrent jobs behind
    per-tenant sessions with admission control and DRR fairness.
``repro.control``
    Online control loops: the elastic width controller that retunes
    replication width mid-training from the observability signals.
``repro.client``
    The multi-tenant facade: ``serve`` builds a store behind a
    ``StoreService``.  A single job uses ``DDStore.create`` and a
    ``DDStoreDataset`` directly.

Quick start: see ``examples/quickstart.py``.
"""

from . import (
    bench,
    client,
    control,
    core,
    gnn,
    graphs,
    hardware,
    mpi,
    obs,
    serving,
    sim,
    storage,
)

__version__ = "1.0.0"

__all__ = [
    "sim",
    "hardware",
    "mpi",
    "storage",
    "graphs",
    "core",
    "gnn",
    "bench",
    "obs",
    "serving",
    "client",
    "control",
    "__version__",
]
