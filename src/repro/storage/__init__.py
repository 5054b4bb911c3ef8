"""Storage substrate: graph codec, virtual FS, and the PFF/CFF formats.

The extensions load on first use, from their own modules:
:mod:`.columnar` (the AGRC shard codec) and :mod:`.staging` (the NVMe
burst-buffer tier)."""

from .formats import (
    CFFImage,
    CFFIndex,
    CFFReader,
    PFFReader,
    SampleReader,
    SampleStats,
    decode_time,
    scatter_time,
    write_cff,
    write_pff,
)
from .serialization import (
    HEADER_NBYTES,
    CodecError,
    pack_graph,
    packed_size,
    peek_header,
    peek_headers,
    unpack_graph,
)
from .vfs import FileExists, FileNotFound, FileSealed, VirtualFile, VirtualFS

__all__ = [
    "HEADER_NBYTES",
    "pack_graph",
    "unpack_graph",
    "packed_size",
    "peek_header",
    "peek_headers",
    "CodecError",
    "VirtualFS",
    "VirtualFile",
    "FileNotFound",
    "FileExists",
    "FileSealed",
    "SampleReader",
    "SampleStats",
    "decode_time",
    "scatter_time",
    "write_pff",
    "PFFReader",
    "write_cff",
    "CFFImage",
    "CFFReader",
    "CFFIndex",
]
