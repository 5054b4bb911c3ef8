"""Virtual filesystem: real bytes, simulated parallel-filesystem timing.

Files live in memory (the training data really round-trips through them,
so correctness is testable) while every open/read/write is priced by the
:class:`~repro.hardware.ParallelFileSystem` model, including per-node page
caching and MDS/OST queueing.

Files are written once and read many times: a file's **first read seals
it**.  From then on every read is a read-only ``memoryview`` slice of the
file's one resident copy (no memcpy per read), :meth:`VirtualFS.append`
raises :class:`FileSealed`, and ``create(..., overwrite=True)`` swaps in a
new file object so earlier readers keep the bytes they were given.

``logical_scale`` lets a small physical file *behave* like the paper's
TB-scale containers: cache-block and OST-stripe addressing use the scaled
offset, so cache capacity covers only ``1/scale`` of the file — exactly
the residency ratio the full-size dataset would have — while transfer
sizes (and therefore per-read wire time) stay honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..hardware import IoTiming, ParallelFileSystem
from ..sim.rng import derive_seed

__all__ = ["VirtualFile", "VirtualFS", "FileNotFound", "FileExists", "FileSealed"]


class FileNotFound(FileNotFoundError):
    pass


class FileExists(FileExistsError):
    pass


class FileSealed(PermissionError):
    """Append to a file that has been read (readers hold views of it)."""


@dataclass
class VirtualFile:
    file_id: int
    path: str
    # Whatever buffer ``create`` was handed, adopted as is: ``bytes``, any
    # read-only buffer (a view into a packed image, which stays its owner)
    # or a ``bytearray`` that ``append`` may grow until the first read.
    data: bytes | bytearray | memoryview = b""
    logical_scale: float = 1.0
    # The one read-only view every read slices; set by the first read.
    _view: Optional[memoryview] = field(default=None, repr=False, compare=False)
    # derive_seed("path", path): picks the MDS station; set by the first open.
    _path_seed: Optional[int] = field(default=None, repr=False, compare=False)

    @property
    def sealed(self) -> bool:
        return self._view is not None

    def view(self) -> memoryview:
        """Read-only view of the whole file; the first call seals it."""
        if self._view is None:
            self._view = memoryview(self.data).toreadonly()
        return self._view

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def logical_size(self) -> int:
        return int(len(self.data) * self.logical_scale)


class VirtualFS:
    """A namespace of virtual files bound to one PFS timing model."""

    def __init__(self, pfs: ParallelFileSystem) -> None:
        self.pfs = pfs
        self._files: dict[str, VirtualFile] = {}
        self._next_id = 1

    # -- namespace -----------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def listdir(self, prefix: str) -> list[str]:
        prefix = prefix.rstrip("/") + "/"
        return sorted(p for p in self._files if p.startswith(prefix))

    def stat(self, path: str) -> VirtualFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFound(path) from None

    # -- writing (dataset preparation; timed coarsely) -------------------------
    def create(
        self,
        path: str,
        data: bytes | bytearray | memoryview = b"",
        *,
        logical_scale: float = 1.0,
        overwrite: bool = False,
    ) -> VirtualFile:
        """Create ``path`` holding ``data``, which the file adopts (no copy).
        ``data`` may be any read-only buffer, such as a view of one subfile
        of a packed :class:`~repro.storage.CFFImage`, which the file then
        shares with every other view of it; the caller must not mutate a
        ``bytearray`` it hands over."""
        if path in self._files and not overwrite:
            raise FileExists(path)
        if logical_scale < 1.0:
            raise ValueError("logical_scale must be >= 1")
        f = VirtualFile(
            file_id=self._next_id,
            path=path,
            data=data,
            logical_scale=logical_scale,
        )
        self._next_id += 1
        self._files[path] = f
        return f

    def append(self, path: str, data: bytes) -> int:
        """Append bytes; returns the offset the data landed at.  Raises
        :class:`FileSealed` once the file has been read."""
        f = self.stat(path)
        if f.sealed:
            raise FileSealed(f"{path!r} has been read and is sealed; create a new file")
        if not isinstance(f.data, bytearray):
            f.data = bytearray(f.data)
        offset = len(f.data)
        f.data.extend(data)
        return offset

    # -- reading (the training hot path) ----------------------------------------
    def open_timed(self, path: str, arrival: float) -> tuple[VirtualFile, float]:
        """Metadata-op open; returns (file, completion_time)."""
        f = self.stat(path)
        seed = f._path_seed
        if seed is None:
            seed = f._path_seed = derive_seed("path", path)
        return f, self.pfs.metadata_op(seed, arrival)

    def read_timed(
        self,
        path_or_file: str | VirtualFile,
        node_index: int,
        offset: int,
        nbytes: int,
        arrival: float,
        *,
        sequential: bool = False,
    ) -> tuple[memoryview, IoTiming]:
        """Read real bytes — a read-only view of the (now sealed) file —
        and charge the PFS model.

        Timing uses the file's *logical* offset so scaled containers show
        realistic cache behaviour (see module docstring).
        """
        f = self.stat(path_or_file) if isinstance(path_or_file, str) else path_or_file
        if offset < 0 or nbytes < 0 or offset + nbytes > len(f.data):
            raise ValueError(
                f"read [{offset}, {offset + nbytes}) out of range for "
                f"{f.path!r} ({f.size} bytes)"
            )
        view = f._view if f._view is not None else f.view()
        timing = self.pfs.read(
            node_index, f.file_id, int(offset * f.logical_scale), nbytes, arrival, sequential
        )
        return view[offset : offset + nbytes], timing

    def read_whole_timed(
        self, path: str, node_index: int, arrival: float
    ) -> tuple[memoryview | bytes, float]:
        """Open + stream the whole file sequentially; returns (data, done).

        A file that fits one 8 MiB read comes back as the read-only view
        that read returned; a larger one as the joined ``bytes`` of its
        reads.
        """
        f, t_open = self.open_timed(path, arrival)
        chunk = 8 * 2**20
        t = t_open
        parts = []
        for off in range(0, f.size, chunk):
            data, timing = self.read_timed(
                f, node_index, off, min(chunk, f.size - off), t, sequential=True
            )
            parts.append(data)
            t = timing.completion
        return (parts[0] if len(parts) == 1 else b"".join(parts)), t
