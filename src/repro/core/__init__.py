"""DDStore core: the paper's distributed in-memory data store."""

from .chunking import ChunkLayout, balanced_partition
from .config import (
    CacheOptions,
    DataPlaneOptions,
    DDStoreConfig,
    FRAMEWORKS,
    ResilienceOptions,
    ServingOptions,
    TierSpec,
)
from .loader import (
    BatchStats,
    DataLoader,
    DDStoreDataset,
    FetchResult,
    FileDataset,
    LoadedBatch,
    SimDataset,
)
from .preloader import DataSource, GeneratorSource, ReaderSource
from .registry import ChunkRegistry
from .sampler import epoch_indices, iter_batches
from .store import DDStore, FETCH_STAGES, FetchStats, StoreClosedError

__all__ = [
    "DDStoreConfig",
    "DataPlaneOptions",
    "CacheOptions",
    "TierSpec",
    "ResilienceOptions",
    "ServingOptions",
    "StoreClosedError",
    "FRAMEWORKS",
    "FETCH_STAGES",
    "ChunkLayout",
    "balanced_partition",
    "ChunkRegistry",
    "DataSource",
    "ReaderSource",
    "GeneratorSource",
    "DDStore",
    "FetchStats",
    "epoch_indices",
    "iter_batches",
    "SimDataset",
    "BatchStats",
    "DDStoreDataset",
    "FileDataset",
    "FetchResult",
    "LoadedBatch",
    "DataLoader",
]
