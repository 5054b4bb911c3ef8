"""Node-local NVMe staging: the conventional alternative to DDStore.

On machines with burst buffers (e.g. Summit's 1.6 TB per-node NVMe), the
standard recipe is: stream the dataset from the parallel filesystem to
every node's local SSD once, then serve training reads locally.  The
paper positions DDStore for the machines where this is impossible; we
implement the staging path so the two strategies can be compared head to
head (see ``python -m repro ablation nvme``).

:class:`NVMeStagedReader` implements the same :class:`SampleReader`
protocol as the PFF/CFF readers, so it drops into
:class:`~repro.core.loader.FileDataset` unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from ..graphs import AtomicGraph
from ..hardware import MachineSpec
from ..hardware.nvme import NVMeDevice
from .formats import CFFReader, SampleStats, decode_time
from .serialization import unpack_graph

__all__ = ["NVMeStagedReader", "NVMeShardStore", "stage_to_nvme"]


class NVMeStagedReader:
    """Per-node reader over samples resident on the local NVMe."""

    def __init__(
        self,
        blobs: list,  # read-only bytes-likes (CFFReader.read_chunk_raw's views of the files)
        device: NVMeDevice,
        machine: MachineSpec,
    ) -> None:
        self.blobs = blobs
        self.device = device
        self.machine = machine
        self.n_samples = len(blobs)

    def read_sample_raw(
        self, index: int, node_index: int, arrival: float
    ) -> tuple[memoryview, float]:
        blob = self.blobs[index]
        done = self.device.read(len(blob), arrival)
        return blob, done + self.machine.file_read_software_s

    def read_sample(
        self, index: int, node_index: int, arrival: float
    ) -> tuple[AtomicGraph, float]:
        data, done = self.read_sample_raw(index, node_index, arrival)
        return unpack_graph(data), done + decode_time(self.machine, len(data))

    def read_sample_stats(
        self, index: int, node_index: int, arrival: float
    ) -> tuple[SampleStats, float]:
        data, done = self.read_sample_raw(index, node_index, arrival)
        return SampleStats.from_blob(data), done + decode_time(self.machine, len(data))


class NVMeShardStore:
    """Node-shared residency map of packed sample shards on the local NVMe.

    Backs the ``nvme`` tier of the tiered sample cache.  All ranks of a
    node share one store (and one :class:`NVMeDevice` queue), mirroring
    how a burst buffer is actually shared.  Entries are *packed* AGRF
    bytes — either whole blobs (32-byte header included; these can serve
    both the row and the columnar path) or header-stripped column
    payloads demoted from a DRAM tier (columnar-only).  Nothing is ever
    decoded or copied here: staged entries are read-only views of the
    VFS files they were read from, demoted ones the array the tier above
    held, and promotion hands the stored ``uint8`` array straight back
    for arena scatter or row delivery.

    Two capacity ledgers run in parallel: the configured tier budget
    (``capacity_bytes``, per node) gates admission with LRU eviction of
    unpinned entries, and every byte is also allocated on the underlying
    :class:`NVMeDevice`, whose strict :meth:`~NVMeDevice.release`
    accounting turns any tier bookkeeping bug into a hard error.

    Entries staged at dataset-create time are *pinned*: they were paid
    for once out of preload time, are never evicted, and make DRAM
    demotions of those samples free (clean drops — the bytes are already
    below).
    """

    def __init__(self, device: NVMeDevice, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        if capacity_bytes > device.spec.capacity_bytes:
            raise ValueError(
                f"nvme tier budget {capacity_bytes} exceeds device capacity "
                f"{device.spec.capacity_bytes}"
            )
        self.device = device
        self.capacity_bytes = capacity_bytes
        # key -> (payload: flat uint8, has_header: bool); insertion order
        # doubles as LRU order for unpinned entries.
        self._entries: "OrderedDict[int, tuple[np.ndarray, bool]]" = OrderedDict()
        self._pinned: set[int] = set()
        self.used_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def resident(self, key: int, column: bool) -> bool:
        """Can ``key`` be promoted to serve a request of this mode?

        Whole blobs serve both modes; header-stripped column demotions
        only serve the columnar path (the row path needs the header).
        """
        entry = self._entries.get(key)
        if entry is None:
            return False
        return column or entry[1]

    def get(self, key: int) -> tuple[np.ndarray, bool]:
        """Return ``(payload, has_header)`` and refresh LRU position."""
        entry = self._entries[key]
        self._entries.move_to_end(key)
        return entry

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def stage(self, keys: list, blobs: list, arrival: float) -> float:
        """Bulk-stage whole blobs at create time; pins them.  Returns the
        write completion time (charged to preload, not to training)."""
        total = 0
        for key, blob in zip(keys, blobs):
            if key in self._entries:
                continue
            stored = np.frombuffer(blob, dtype=np.uint8)
            stored.setflags(write=False)  # a no-op for the read-only views bulk reads return
            nbytes = int(stored.nbytes)
            if nbytes > self.free_bytes:
                break
            self.device.allocate(nbytes)
            self._entries[int(key)] = (stored, True)
            self._pinned.add(int(key))
            self.used_bytes += nbytes
            total += nbytes
        if total == 0:
            return arrival
        return self.device.write(total, arrival)

    def write_behind(
        self, key: int, payload: np.ndarray, has_header: bool, arrival: float
    ) -> Optional[float]:
        """Admit a DRAM demotion.  Evicts unpinned LRU entries to make
        room; returns the write completion time, or ``None`` if the entry
        cannot fit (pinned set too large) and was dropped."""
        if key in self._entries:
            return arrival  # already resident; demotion is a clean drop
        nbytes = int(payload.nbytes)
        if nbytes > self.capacity_bytes:
            return None
        while nbytes > self.free_bytes:
            victim = next(
                (k for k in self._entries if k not in self._pinned), None
            )
            if victim is None:
                return None
            self.discard(victim)
        self.device.allocate(nbytes)
        self._entries[int(key)] = (payload, has_header)
        self.used_bytes += nbytes
        return self.device.write(nbytes, arrival)

    def discard(self, key: int) -> None:
        payload, _ = self._entries.pop(key)
        self._pinned.discard(key)
        nbytes = int(payload.nbytes)
        self.used_bytes -= nbytes
        self.device.release(nbytes)

    def clear(self) -> None:
        for key in list(self._entries):
            self.discard(key)


def stage_to_nvme(
    reader: CFFReader,
    device: NVMeDevice,
    node_index: int,
    arrival: float,
    logical_bytes: Optional[int] = None,
) -> tuple[NVMeStagedReader, float]:
    """Copy a whole CFF dataset from the PFS onto one node's NVMe.

    Streams the container sequentially (bulk chunk reads) and writes it to
    the device.  ``logical_bytes`` — the size the dataset *would* have at
    paper scale — is charged against the device capacity, so a 1.5 TB set
    barely fits Summit's 1.6 TB burst buffer while anything larger fails
    loudly.  Returns (reader, completion time).
    """
    blobs, t = reader.read_chunk_raw(0, reader.n_samples, node_index, arrival)
    physical = sum(len(b) for b in blobs)
    device.allocate(logical_bytes if logical_bytes is not None else physical)
    t = device.write(physical, t)
    # Capacity is charged at logical (paper-scale) size above, but write
    # *time* is charged for the physical bytes only, keeping staging cost
    # comparable with the other methods, which also move physical bytes.
    return NVMeStagedReader(blobs, device, reader.machine), t
