"""Binary trace files (``.bpt`` -- *branch prediction trace*).

Two on-disk layouts share the extension (little-endian throughout):

``BPT1`` -- whole-trace columns, the original format:

========  =====================================================
offset    contents
========  =====================================================
0         magic ``b"BPT1"``
4         ``uint64`` n -- number of dynamic branches
12        n * ``uint64`` branch addresses
12+8n     n * ``uint64`` taken-target addresses
12+16n    ``ceil(n/8)`` bytes -- outcomes, bit-packed LSB-first
========  =====================================================

``BPT2`` -- chunk-indexed columns for streaming.  The trace is split
into fixed windows of ``chunk_branches`` branches (the final chunk may
be short); each chunk stores its own column triplet so a reader can
mmap the file and view any window without touching the rest:

========  =====================================================
offset    contents
========  =====================================================
0         magic ``b"BPT2"``
4         4 pad bytes (zero) -- aligns the u64 header fields
8         ``uint64`` n -- total dynamic branches
16        ``uint64`` chunk_branches -- window size (multiple of 8)
24        ``uint64`` num_chunks
32        ``uint64`` index_offset -- file offset of the chunk index
40        chunk payloads, each 8-byte aligned
...       chunk index: num_chunks * ``uint64`` payload offsets
========  =====================================================

Each chunk payload is ``pc`` (8c bytes), ``target`` (8c bytes), then
the bit-packed outcomes (LSB-first, ``ceil(c/8)`` bytes), padded to an
8-byte boundary so the next chunk's ``uint64`` columns stay aligned.
``chunk_branches`` is forced to a multiple of 8 so per-chunk bit
packing concatenates byte-identically with whole-trace packing -- that
is what makes :meth:`TraceStream.digest` equal :meth:`Trace.digest`.

Reading either format goes through ``mmap``: the address columns are
zero-copy views into the page cache, so replaying a multi-gigabyte
trace costs resident memory proportional to the window being simulated,
not the file.
"""

from __future__ import annotations

import mmap
import os
from typing import Callable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import IngestError
from repro.trace.trace import Trace

MAGIC = b"BPT1"
MAGIC2 = b"BPT2"

#: BPT2 fixed header size (magic + pad + four u64 fields).
HEADER2_SIZE = 40

#: Default streaming window: 64k branches is ~1.1 MB of chunk payload,
#: small enough that a full window plus predictor state stays cache-warm
#: and resident memory is flat in the trace length.
DEFAULT_CHUNK_BRANCHES = 65536

#: Environment variable overriding the engine's chunk size.
ENV_CHUNK_BRANCHES = "REPRO_CHUNK_BRANCHES"

PathLike = Union[str, os.PathLike]


class TraceFormatError(IngestError):
    """Raised when a trace file is malformed.

    Part of the :mod:`repro.errors` taxonomy (exit 2 / HTTP 400) via
    :class:`~repro.errors.IngestError`, which itself subclasses
    ``ValueError`` -- pre-taxonomy ``except ValueError`` callers keep
    working.  Messages carry ``path:line`` (text) or a byte offset
    (binary) so a malformed trace is a usage error, never a traceback.
    """

    code = "ingest.trace_format"


def normalize_chunk_branches(value: Optional[int]) -> int:
    """Clamp a chunk size to a positive multiple of 8 (None = default).

    Multiples of 8 keep every non-final chunk's packed outcome bits on
    byte boundaries, which both the on-disk layout and the streaming
    digest rely on.
    """
    if value is None:
        return DEFAULT_CHUNK_BRANCHES
    value = int(value)
    if value < 1:
        raise ValueError(f"chunk_branches must be >= 1, got {value}")
    return ((value + 7) // 8) * 8


def chunk_spans(num_branches: int, chunk_branches: int) -> List[Tuple[int, int]]:
    """The ``(start, stop)`` windows chunking ``num_branches`` branches."""
    chunk_branches = normalize_chunk_branches(chunk_branches)
    return [
        (start, min(start + chunk_branches, num_branches))
        for start in range(0, num_branches, chunk_branches)
    ]


def write_trace(trace: Trace, path: PathLike) -> None:
    """Serialise ``trace`` to ``path`` in ``BPT1`` format."""
    n = len(trace)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint64(n).tobytes())
        fh.write(np.ascontiguousarray(trace.pc, dtype="<u8").tobytes())
        fh.write(np.ascontiguousarray(trace.target, dtype="<u8").tobytes())
        fh.write(np.packbits(trace.taken, bitorder="little").tobytes())


def _map_file(path: PathLike):
    """mmap ``path`` read-only; tiny/empty files fall back to bytes.

    numpy views built over the map keep it alive through their ``.base``
    reference, so callers can let the mapping fall out of scope with the
    arrays.  A missing or unreadable file (a directory, say) is an
    :class:`~repro.errors.IngestError` naming the path.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size == 0:
                return b""
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as error:
        raise IngestError(f"{path}: cannot read trace file ({error})") from None


def read_trace(path: PathLike) -> Trace:
    """Deserialise a ``.bpt`` file (either layout) as one whole trace.

    The file is mapped, not read: the returned trace's address columns
    are views into the page cache, so loading a large BPT1 file does
    not copy the whole file through Python memory (only the outcome
    bits are unpacked into a fresh bool column).  BPT2 files are
    materialised by concatenating their chunks; use
    :meth:`TraceStream.open` to iterate them in bounded memory instead.
    """
    data = _map_file(path)
    if bytes(data[:4]) == MAGIC2:
        return TraceStream.open(path).whole()
    return _parse(data, source=str(path))


def _parse(data, source: str) -> Trace:
    # Parse columns directly out of the file buffer with np.frombuffer
    # offsets: zero copies until the Trace constructor, instead of one
    # bytes copy per column through io.BytesIO.read.
    magic = bytes(data[:4])
    if magic != MAGIC:
        raise TraceFormatError(f"{source}: bad magic {magic!r}, expected {MAGIC!r}")
    if len(data) < 12:
        raise TraceFormatError(f"{source}: truncated header")
    n = int(np.frombuffer(data, dtype="<u8", count=1, offset=4)[0])
    taken_nbytes = (n + 7) // 8
    if len(data) < 12 + 16 * n:
        raise TraceFormatError(f"{source}: truncated address columns")
    if len(data) < 12 + 16 * n + taken_nbytes:
        raise TraceFormatError(f"{source}: truncated outcome column")
    pc = np.frombuffer(data, dtype="<u8", count=n, offset=12)
    target = np.frombuffer(data, dtype="<u8", count=n, offset=12 + 8 * n)
    taken = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8, count=taken_nbytes, offset=12 + 16 * n),
        bitorder="little",
        count=n,
    ).astype(bool)
    return Trace(pc, target, taken)


def _aligned(size: int) -> int:
    return ((size + 7) // 8) * 8


def _drop_pages(buffer, ranges: List[Tuple[int, int]]) -> None:
    """Tell the kernel a consumed byte range will not be re-read soon.

    Resident-set flatness is the streaming promise, and mmap'd pages
    count against RSS once touched -- without this, a sequential fold
    over a multi-gigabyte file ends the run with the whole file
    resident.  ``MADV_DONTNEED`` on a read-only file mapping just drops
    the clean pages; re-touching them refaults from the page cache, so
    this is purely a residency hint, never a correctness hazard.
    Silently a no-op where madvise is unavailable.
    """
    advise = getattr(buffer, "madvise", None)
    flag = getattr(mmap, "MADV_DONTNEED", None)
    if advise is None or flag is None:
        return
    page = mmap.PAGESIZE
    for start, stop in ranges:
        first = (start // page) * page
        if stop <= first:
            continue
        try:
            advise(flag, first, stop - first)
        except (OSError, ValueError, OverflowError):
            return


class BPT2Writer:
    """Streaming ``BPT2`` writer: append chunks, finalise on close.

    Chunks are written as they arrive -- nothing is buffered beyond the
    current file position -- so a producer can spill an arbitrarily long
    trace with resident memory bounded by one chunk.  Every chunk except
    the last must hold exactly ``chunk_branches`` branches; the header
    and chunk index are patched in on :meth:`close`.
    """

    def __init__(
        self, path: PathLike, chunk_branches: Optional[int] = None
    ) -> None:
        self.path = path
        self.chunk_branches = normalize_chunk_branches(chunk_branches)
        self._fh = open(path, "wb")
        self._fh.write(MAGIC2 + b"\x00" * (HEADER2_SIZE - 4))
        self._offsets: List[int] = []
        self._n = 0
        self._short_seen = False
        self._closed = False

    def append_chunk(self, pc, target, taken) -> None:
        """Write one window of columns (equal-length arrays)."""
        if self._closed:
            raise ValueError(f"{self.path}: writer already closed")
        pc = np.ascontiguousarray(pc, dtype="<u8")
        target = np.ascontiguousarray(target, dtype="<u8")
        taken = np.ascontiguousarray(taken, dtype=bool)
        count = len(pc)
        if not (count == len(target) == len(taken)):
            raise ValueError(
                "chunk columns must have equal length: "
                f"pc={len(pc)} target={len(target)} taken={len(taken)}"
            )
        if count == 0 or count > self.chunk_branches:
            raise ValueError(
                f"chunk length {count} outside (0, {self.chunk_branches}]"
            )
        if self._short_seen:
            raise ValueError(
                f"{self.path}: only the final chunk may be short "
                f"(previous chunk < {self.chunk_branches} branches)"
            )
        if count < self.chunk_branches:
            self._short_seen = True
        offset = self._fh.tell()
        self._fh.write(pc.tobytes())
        self._fh.write(target.tobytes())
        packed = np.packbits(taken, bitorder="little").tobytes()
        self._fh.write(packed)
        payload = 16 * count + len(packed)
        self._fh.write(b"\x00" * (_aligned(payload) - payload))
        self._offsets.append(offset)
        self._n += count

    def close(self) -> None:
        """Write the chunk index and patch the header (idempotent)."""
        if self._closed:
            return
        index_offset = self._fh.tell()
        self._fh.write(np.asarray(self._offsets, dtype="<u8").tobytes())
        self._fh.seek(8)
        self._fh.write(
            np.asarray(
                [self._n, self.chunk_branches, len(self._offsets), index_offset],
                dtype="<u8",
            ).tobytes()
        )
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "BPT2Writer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._closed = True
            self._fh.close()


def write_trace_chunked(
    trace: Trace, path: PathLike, chunk_branches: Optional[int] = None
) -> None:
    """Serialise ``trace`` to ``path`` in ``BPT2`` format."""
    with BPT2Writer(path, chunk_branches) as writer:
        for start, stop in chunk_spans(len(trace), writer.chunk_branches):
            writer.append_chunk(
                trace.pc[start:stop],
                trace.target[start:stop],
                trace.taken[start:stop],
            )


class TraceStream:
    """Fixed-window access to a trace without materialising it whole.

    A stream yields :class:`Trace` chunks whose address columns are
    zero-copy views -- into an mmap'd file (:meth:`open`) or into an
    in-memory trace's columns (:meth:`from_trace`).  Chunk boundaries
    always fall on multiples of 8 branches, so the streaming
    :meth:`digest` is bit-identical to :meth:`Trace.digest` of the
    whole trace, and chunked simulation via the carried-state kernels
    reproduces whole-trace results exactly.
    """

    def __init__(
        self,
        *,
        num_branches: int,
        chunk_branches: int,
        getter: Callable[[int], Trace],
        source: str,
        releaser: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._n = num_branches
        self._chunk_branches = chunk_branches
        self._spans = chunk_spans(num_branches, chunk_branches)
        self._getter = getter
        self._releaser = releaser
        self.source = source
        self._digest_cache: Optional[str] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def open(
        cls, path: PathLike, chunk_branches: Optional[int] = None
    ) -> "TraceStream":
        """Open a ``.bpt`` file (either layout) as a stream.

        For ``BPT2`` files the on-disk chunking wins and
        ``chunk_branches`` is ignored; for ``BPT1`` files the stream
        synthesises windows of ``chunk_branches`` (default
        :data:`DEFAULT_CHUNK_BRANCHES`) over the whole-file columns.
        """
        data = _map_file(path)
        magic = bytes(data[:4])
        if magic == MAGIC2:
            return cls._open_bpt2(data, str(path))
        if magic == MAGIC:
            return cls._open_bpt1(data, str(path), chunk_branches)
        raise TraceFormatError(
            f"{path}: bad magic {magic!r}, expected {MAGIC!r} or {MAGIC2!r}"
        )

    @classmethod
    def _open_bpt1(
        cls, data, source: str, chunk_branches: Optional[int]
    ) -> "TraceStream":
        # Validate the layout once (cheap -- header arithmetic only),
        # then serve windows as slices of the whole-file column views.
        if len(data) < 12:
            raise TraceFormatError(f"{source}: truncated header")
        n = int(np.frombuffer(data, dtype="<u8", count=1, offset=4)[0])
        taken_nbytes = (n + 7) // 8
        if len(data) < 12 + 16 * n:
            raise TraceFormatError(f"{source}: truncated address columns")
        if len(data) < 12 + 16 * n + taken_nbytes:
            raise TraceFormatError(f"{source}: truncated outcome column")
        pc = np.frombuffer(data, dtype="<u8", count=n, offset=12)
        target = np.frombuffer(data, dtype="<u8", count=n, offset=12 + 8 * n)
        packed = np.frombuffer(
            data, dtype=np.uint8, count=taken_nbytes, offset=12 + 16 * n
        )
        size = normalize_chunk_branches(chunk_branches)

        def getter(index: int) -> Trace:
            start = index * size
            stop = min(start + size, n)
            # Chunk starts are multiples of 8, so the window's packed
            # outcome bits begin on a byte boundary.
            taken = np.unpackbits(
                packed[start // 8 : (stop + 7) // 8],
                bitorder="little",
                count=stop - start,
            ).astype(bool)
            return Trace(pc[start:stop], target[start:stop], taken)

        def releaser(index: int) -> None:
            start = index * size
            stop = min(start + size, n)
            _drop_pages(data, [
                (12 + 8 * start, 12 + 8 * stop),
                (12 + 8 * n + 8 * start, 12 + 8 * n + 8 * stop),
                (12 + 16 * n + start // 8, 12 + 16 * n + (stop + 7) // 8),
            ])

        return cls(
            num_branches=n,
            chunk_branches=size,
            getter=getter,
            source=source,
            releaser=releaser if isinstance(data, mmap.mmap) else None,
        )

    @classmethod
    def _open_bpt2(cls, data, source: str) -> "TraceStream":
        if len(data) < HEADER2_SIZE:
            raise TraceFormatError(f"{source}: truncated header")
        n, size, num_chunks, index_offset = (
            int(value)
            for value in np.frombuffer(data, dtype="<u8", count=4, offset=8)
        )
        if size < 1 or (num_chunks > 1 and size % 8):
            raise TraceFormatError(
                f"{source}: chunk_branches {size} is not a positive "
                "multiple of 8"
            )
        # Ceiling division: a forged header must not make us build the
        # span list before the index is known to fit in the file.
        expected_chunks = -(-n // size)
        if num_chunks != expected_chunks:
            raise TraceFormatError(
                f"{source}: {num_chunks} chunks indexed, "
                f"{expected_chunks} implied by n={n}"
            )
        if len(data) < index_offset + 8 * num_chunks:
            raise TraceFormatError(f"{source}: truncated chunk index")
        offsets = np.frombuffer(
            data, dtype="<u8", count=num_chunks, offset=index_offset
        )
        spans = chunk_spans(n, size) if n else []
        for (start, stop), offset in zip(spans, offsets.tolist()):
            count = stop - start
            payload = 16 * count + (count + 7) // 8
            if offset < HEADER2_SIZE or offset + payload > index_offset:
                raise TraceFormatError(
                    f"{source}: chunk at offset {offset} overruns the "
                    "payload region"
                )

        def getter(index: int) -> Trace:
            start, stop = spans[index]
            count = stop - start
            offset = int(offsets[index])
            pc = np.frombuffer(data, dtype="<u8", count=count, offset=offset)
            target = np.frombuffer(
                data, dtype="<u8", count=count, offset=offset + 8 * count
            )
            taken = np.unpackbits(
                np.frombuffer(
                    data,
                    dtype=np.uint8,
                    count=(count + 7) // 8,
                    offset=offset + 16 * count,
                ),
                bitorder="little",
                count=count,
            ).astype(bool)
            return Trace(pc, target, taken)

        def releaser(index: int) -> None:
            start, stop = spans[index]
            count = stop - start
            offset = int(offsets[index])
            _drop_pages(
                data, [(offset, offset + 16 * count + (count + 7) // 8)]
            )

        return cls(
            num_branches=n,
            chunk_branches=size,
            getter=getter,
            source=source,
            releaser=releaser if isinstance(data, mmap.mmap) else None,
        )

    @classmethod
    def from_trace(
        cls, trace: Trace, chunk_branches: Optional[int] = None
    ) -> "TraceStream":
        """Stream over an in-memory trace (chunks are zero-copy slices)."""
        size = normalize_chunk_branches(chunk_branches)
        n = len(trace)

        def getter(index: int) -> Trace:
            start = index * size
            return trace[start : min(start + size, n)]

        stream = cls(
            num_branches=n,
            chunk_branches=size,
            getter=getter,
            source="<memory>",
        )
        # The whole trace is on hand; reuse its memoised digest.
        stream._digest_cache = trace.digest()
        return stream

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def num_branches(self) -> int:
        return self._n

    @property
    def chunk_branches(self) -> int:
        return self._chunk_branches

    @property
    def num_chunks(self) -> int:
        return len(self._spans)

    def spans(self) -> List[Tuple[int, int]]:
        """The ``(start, stop)`` window of every chunk, in order."""
        return list(self._spans)

    def chunk(self, index: int) -> Trace:
        """The ``index``-th window as a :class:`Trace` view."""
        if not 0 <= index < len(self._spans):
            raise IndexError(
                f"chunk {index} out of range ({len(self._spans)} chunks)"
            )
        return self._getter(index)

    def chunks(self) -> Iterator[Trace]:
        """Iterate the windows in trace order.

        For file-backed streams, a window's pages are released (madvise)
        once iteration moves past it, keeping a sequential fold's
        resident set at one window regardless of file size.  Released
        data stays readable -- re-access refaults from the page cache.
        """
        for index in range(len(self._spans)):
            yield self._getter(index)
            if self._releaser is not None:
                self._releaser(index)

    def whole(self) -> Trace:
        """Materialise the full trace (copies; defeats streaming)."""
        if not self._spans:
            return Trace.empty()
        parts = list(self.chunks())
        return Trace(
            np.concatenate([part.pc for part in parts]),
            np.concatenate([part.target for part in parts]),
            np.concatenate([part.taken for part in parts]),
        )

    def digest(self) -> str:
        """Streaming :meth:`Trace.digest` -- identical hex for identical
        columns, computed one window at a time.

        Three ordered passes (pc, target, packed outcomes) reproduce the
        whole-trace hash byte stream; non-final chunks are multiples of
        8 branches, so per-chunk ``np.packbits`` concatenation matches
        whole-column packing exactly.
        """
        if self._digest_cache is None:
            import hashlib

            h = hashlib.blake2b(digest_size=16)
            h.update(self._n.to_bytes(8, "little"))
            for chunk in self.chunks():
                h.update(chunk.pc.tobytes())
            for chunk in self.chunks():
                h.update(chunk.target.tobytes())
            for chunk in self.chunks():
                h.update(np.packbits(chunk.taken).tobytes())
            self._digest_cache = h.hexdigest()
        return self._digest_cache


def write_text_trace(trace: Trace, path: PathLike) -> None:
    """Serialise a trace as text: one ``pc target taken`` line per branch.

    The interop format: trivially produced by any tracer (pin tool,
    QEMU plugin, a printf in a simulator).  Addresses are hex, the
    outcome is ``T``/``N``.  ``#``-prefixed lines are comments.
    """
    chunk = 8192  # lines per write: one syscall per chunk, not per line
    with open(path, "w") as fh:
        fh.write("# repro text trace: pc target taken(T/N)\n")
        pcs = trace.pc.tolist()
        targets = trace.target.tolist()
        takens = trace.taken.tolist()
        for start in range(0, len(pcs), chunk):
            end = min(start + chunk, len(pcs))
            fh.write(
                "".join(
                    f"{pcs[i]:#x} {targets[i]:#x} {'T' if takens[i] else 'N'}\n"
                    for i in range(start, end)
                )
            )


def read_text_trace(path: PathLike) -> Trace:
    """Parse a text trace into memory.

    The grammar is the ``text`` ingest format (:mod:`repro.trace.ingest`):
    ``pc taken`` or ``pc target taken`` per line, decimal or hex
    addresses, ``T/N``, ``1/0`` or ``taken/not-taken`` outcomes, blank
    and ``#`` lines skipped.  Every rejection -- a missing or unreadable
    file included -- is an :class:`~repro.errors.IngestError` naming the
    offending ``path:line``.
    """
    from repro.trace.ingest import _parse_text

    batches = list(_parse_text(path))
    if not batches:
        return Trace.empty()
    pc, target, taken = (np.concatenate(column) for column in zip(*batches))
    return Trace(pc, target, taken)
