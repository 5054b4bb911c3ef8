"""Correctness oracle: every sample the program hands out is compared,
field for field, with the reference decode of the generated input blob.

Installed around the public delivery points only for the checked run
(the discarded first run of each process, so the timed repeats stay clean):

* ``DDStore.get_samples``     rows: ``AtomicGraph`` / ``SampleStats`` / raw bytes
* ``DDStore.get_batch_arena`` the arena's four field buffers, per sample
* ``PFFReader`` / ``CFFReader`` ``read_sample`` and ``read_sample_stats``

A delivery that mismatches, or a call that raises (including a read that
exhausts the retry ladder), counts as a failed operation.
"""

from __future__ import annotations

import functools

import numpy as np

import spans
from repro.core.store import DDStore
from repro.storage import CFFReader, PFFReader, SampleStats, unpack_graph

__all__ = ["Oracle"]

_GRAPH_FIELDS = ("positions", "node_features", "edge_index", "y")


class Oracle:
    def __init__(self, blobs) -> None:
        self._blobs = blobs
        self._stats: dict[int, SampleStats] = {}
        self._graphs: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self.store_deliveries = 0  # the part of `attempted` that went through a DDStore
        self.examples: list[str] = []  # first few failures, for the report
        self._undo: list[tuple] = []

    # -- references ---------------------------------------------------------
    def _ref_stats(self, i: int) -> SampleStats:
        ref = self._stats.get(i)
        if ref is None:
            ref = self._stats[i] = SampleStats.from_blob(self._blobs[i])
        return ref

    def _ref_graph(self, i: int):
        ref = self._graphs.get(i)
        if ref is None:
            ref = self._graphs[i] = unpack_graph(self._blobs[i], copy=False)
        return ref

    def _fail(self, n: int, what: str) -> None:
        self.failed += n
        if len(self.examples) < 5:
            self.examples.append(what)

    # -- checks ---------------------------------------------------------------
    def _check_row(self, i: int, got, decode) -> bool:
        if decode == "raw":
            return got.tobytes() == self._blobs[i]
        if isinstance(got, SampleStats):
            return got == self._ref_stats(i)
        ref = self._ref_graph(i)
        return got.sample_id == ref.sample_id and all(
            np.array_equal(getattr(got, f), getattr(ref, f)) for f in _GRAPH_FIELDS
        )

    def _check_rows(self, indices, rows, decode, where: str) -> None:
        indices = [int(i) for i in indices]
        self.attempted += len(indices)
        if len(rows) != len(indices):
            self._fail(len(indices), f"{where}: {len(rows)} rows for {len(indices)} indices")
            return
        for i, got in zip(indices, rows):
            if not self._check_row(i, got, decode):
                self._fail(1, f"{where}: sample {i} differs from its reference decode")

    def _check_arena(self, indices, arena) -> None:
        indices = [int(i) for i in indices]
        self.attempted += len(indices)
        ptr, eptr = arena.ptr, arena.edge_ptr
        if ptr.size != len(indices) + 1:
            self._fail(len(indices), "get_batch_arena: arena shaped for another batch")
            return
        for p, i in enumerate(indices):
            ref = self._ref_graph(i)
            lo, hi = int(ptr[p]), int(ptr[p + 1])
            elo, ehi = int(eptr[p]), int(eptr[p + 1])
            # get_batch_arena hands the batch over with batch-global edge ids.
            ok = (
                int(arena.sample_ids[p]) == ref.sample_id
                and np.array_equal(arena.positions[lo:hi], ref.positions)
                and np.array_equal(arena.node_features[lo:hi], ref.node_features)
                and np.array_equal(arena.edge_index[:, elo:ehi], ref.edge_index + lo)
                and np.array_equal(arena.y[p], ref.y)
            )
            if not ok:
                self._fail(1, f"get_batch_arena: sample {i} differs from its reference decode")

    # -- install / remove -----------------------------------------------------
    def install(self) -> None:
        oracle = self
        get_samples = DDStore.__dict__["get_samples"]
        get_batch_arena = DDStore.__dict__["get_batch_arena"]

        @functools.wraps(get_samples)
        def checked_get_samples(self, indices, decode=True, n_workers=1):
            indices = list(indices)
            oracle.store_deliveries += len(indices)
            try:
                rows = yield from get_samples(self, indices, decode=decode, n_workers=n_workers)
            except Exception as exc:
                oracle.attempted += len(indices)
                oracle._fail(len(indices), f"get_samples raised {type(exc).__name__}: {exc}")
                raise
            oracle._check_rows(indices, rows, decode, "get_samples")
            return rows

        @functools.wraps(get_batch_arena)
        def checked_get_batch_arena(self, indices, arena, n_workers=1):
            indices = list(indices)
            oracle.store_deliveries += len(indices)
            try:
                lat = yield from get_batch_arena(self, indices, arena, n_workers=n_workers)
            except Exception as exc:
                oracle.attempted += len(indices)
                oracle._fail(len(indices), f"get_batch_arena raised {type(exc).__name__}: {exc}")
                raise
            oracle._check_arena(indices, arena)
            return lat

        def checked_read(original, decode):
            @functools.wraps(original)
            def read(self, index, node_index, arrival):
                try:
                    got, done = original(self, index, node_index, arrival)
                except Exception as exc:
                    oracle.attempted += 1
                    oracle._fail(1, f"{original.__qualname__} raised {type(exc).__name__}: {exc}")
                    raise
                oracle._check_rows([index], [got], decode, original.__qualname__)
                return got, done

            return read

        self._patch(DDStore, "get_samples", checked_get_samples)
        self._patch(DDStore, "get_batch_arena", checked_get_batch_arena)
        for reader in (PFFReader, CFFReader):
            self._patch(reader, "read_sample", checked_read(reader.__dict__["read_sample"], True))
            self._patch(
                reader, "read_sample_stats",
                checked_read(reader.__dict__["read_sample_stats"], False),
            )

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        spans.remove(self._undo)
