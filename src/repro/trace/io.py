"""Streaming trace I/O: bounded-memory writer, lazy reader, and the
columnar frame decoder.

:class:`TraceWriter` appends events to a file (or file object) through a
bounded byte buffer — host-side memory stays O(buffer), never O(trace),
no matter how many events the instrumented run produces.  Closing the
writer publishes the manifest footer; a file without a valid footer is
reported as torn by :class:`TraceReader`.  The reader has one record
walk over bounded chunks, which checks the stream CRC-32 and event
count against the footer at the end marker: ``events()`` streams it,
and the index backfill (:func:`repro.trace.index.build_index`) reads
the same records with their offsets, so a backfill validates the
stream CRC in bounded memory.  Every footer read shares one footer
parse.

Path-target writers also maintain a columnar index
(:mod:`repro.trace.index`) as they go and publish it to the ``.rpti``
sidecar at close.  :meth:`TraceReader.frames` is the one indexed frame
read: given the index entries of any in-order selection of launches,
it seeks straight to each frame instead of scanning the stream, checks
its indexed length and CRC-32, and decodes the frames in batches.

:class:`FrameColumns` is the replay stack's batch currency: one launch's
records as ndarray columns.  :func:`decode_frame_columns` builds it
from a batch of indexed ``LAUNCH .. KEND`` frame slices: each launch
header on its own, then every record body of the batch in a few numpy
passes (continuation-bit segmentation, masked shift-accumulate, one
linear record walk, cumulative-sum zigzag-delta undo restarted at each
launch), split per frame.  :class:`FrameBuilder` builds the same batch
from events: from the slice's events for frames the vector pass cannot
take, and through :func:`event_frames` from an event stream (no
sidecar, stray events, file-object readers).
:func:`repro.trace.replay.replay`, the timing model and
``repro trace query`` all consume it; query turns a hit row back into
an event with :meth:`FrameColumns.record`.
"""

from __future__ import annotations

import contextlib
import io
import os
from operator import itemgetter
from typing import (IO, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.isa.opcodes import OPCODE_CLASS_BITS
from repro.sim.scheduler import int_column
from repro.telemetry.collector import TELEMETRY
from repro.trace import index as index_mod
from repro.trace.format import (
    BranchEvent,
    EncoderState,
    HEADER_SIZE,
    InstrEvent,
    KIND_NAMES,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
    MAGIC,
    TAG_BRANCH,
    TAG_END,
    TAG_INSTR,
    TAG_KEND,
    TAG_LAUNCH,
    TAG_MEM,
    TRAILER_MAGIC,
    TRAILER_SIZE,
    TraceFormatError,
    TraceManifest,
    TruncatedRecordError,
    VERSION,
    crc32,
    decode_event,
    decode_footer,
    decode_varint,
    encode_event,
    encode_footer,
    encode_varint,
    iter_slice_events,
)

#: flush the host-side buffer once it holds this many bytes
DEFAULT_BUFFER_BYTES = 256 << 10
#: reader chunk size
READ_CHUNK = 256 << 10
#: byte budget of one frame decode batch: :meth:`TraceReader.frames`
#: decodes frames together until the next would pass it
DECODE_BATCH_BYTES = 256 << 10


class TraceWriter:
    """Writes a ``.rptrace`` stream with bounded host-side memory.

    Accepts a path (the file is created/truncated and closed with the
    writer) or a seekable binary file object (left open after
    :meth:`close` so callers can read it back).  Usable as a context
    manager; the footer is written exactly once, by ``close``.
    """

    def __init__(self, target: Union[str, os.PathLike, IO[bytes]],
                 buffer_bytes: int = DEFAULT_BUFFER_BYTES):
        if hasattr(target, "write"):
            self._file: IO[bytes] = target
            self._owns_file = False
            self.path: Optional[str] = getattr(target, "name", None)
        else:
            self.path = os.fspath(target)
            self._file = open(self.path, "wb")
            self._owns_file = True
        self._buffer = bytearray()
        self._buffer_bytes = max(1, buffer_bytes)
        self._state = EncoderState()
        self._counts: dict = {}
        self._total = 0
        self._crc = 0
        self._closed = False
        self.bytes_written = 0
        # index only path targets: a sidecar next to a borrowed file
        # object would be a surprise, and the backfill command covers it
        self._index: Optional["index_mod.IndexBuilder"] = (
            index_mod.IndexBuilder() if self._owns_file else None)
        self._file.write(MAGIC + bytes([VERSION]))

    # ------------------------------------------------------------ write

    def write(self, event) -> None:
        self.write_batch((event,))

    def write_batch(self, events) -> None:
        """Append events in order with one buffer/telemetry pass: the
        stateful encoder sees them sequentially, and each telemetry
        counter gets the batch's total in one ``incr``."""
        if self._closed:
            raise ValueError("trace writer already closed")
        if not events:
            return
        batch_counts: dict = {}
        index = self._index
        for event in events:
            encoded = encode_event(event, self._state)
            if index is not None:
                index.observe(
                    event.tag, event,
                    HEADER_SIZE + self.bytes_written + len(self._buffer),
                    encoded)
            self._buffer += encoded
            self._crc = crc32(encoded, self._crc)
            tag = event.tag
            batch_counts[tag] = batch_counts.get(tag, 0) + 1
        for tag, count in batch_counts.items():
            self._counts[tag] = self._counts.get(tag, 0) + count
            self._total += count
        if TELEMETRY.enabled:
            TELEMETRY.incr("trace.events", sum(batch_counts.values()))
            for tag, count in batch_counts.items():
                TELEMETRY.incr(f"trace.events.{KIND_NAMES[tag]}", count)
        if len(self._buffer) >= self._buffer_bytes:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._file.write(self._buffer)
            self.bytes_written += len(self._buffer)
            self._buffer.clear()

    @property
    def total_events(self) -> int:
        return self._total

    # ------------------------------------------------------------ close

    def close(self) -> TraceManifest:
        """Flush, publish the footer, and (for path targets) close the
        file.  Idempotent."""
        if self._closed:
            return self._manifest()
        end = encode_varint(TAG_END)
        self._buffer += end
        self._crc = crc32(end, self._crc)
        manifest = self._manifest()
        self._buffer += encode_footer(manifest)
        self.flush()
        self._file.flush()
        if self._owns_file:
            self._file.close()
        self._closed = True
        if self._index is not None and self.path is not None:
            index_mod.write_index(self._index.finish(manifest),
                                  index_mod.index_path_for(self.path))
        if TELEMETRY.enabled:
            TELEMETRY.incr("trace.bytes_written", self.bytes_written)
        return manifest

    def _manifest(self) -> TraceManifest:
        return TraceManifest(
            version=VERSION, total_events=self._total,
            counts=tuple(sorted(self._counts.items())), checksum=self._crc)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceReader:
    """Lazy event iteration over a ``.rptrace`` file.

    One record walk reads the event stream in bounded chunks, so the
    whole trace is never resident.  ``for event in reader`` and the
    index backfill (:func:`~repro.trace.index.build_index`) both
    consume it, so they see the same records and reject the same
    corruption: the CRC-32 and event count accumulated while walking
    are checked against the footer at the end marker, and a torn or
    bit-rotted file raises :class:`~repro.trace.format.TraceFormatError`
    instead of yielding silently wrong events.  Only a record that runs
    off the end of the window reads on, a chunk at a time; any other
    malformed record raises at once, naming the trace.

    Accepts a path (opened per pass) or a seekable binary file object
    (rewound per pass, left open).
    """

    def __init__(self, target: Union[str, os.PathLike, IO[bytes]]):
        if hasattr(target, "read"):
            self._fileobj: Optional[IO[bytes]] = target
            self.path = getattr(target, "name", None)
        else:
            self._fileobj = None
            self.path = os.fspath(target)

    @contextlib.contextmanager
    def _open(self) -> Iterator[IO[bytes]]:
        """The trace at byte 0: a path is opened and closed around the
        block, a file object rewound and left open."""
        if self._fileobj is not None:
            self._fileobj.seek(0)
            yield self._fileobj
            return
        try:
            handle = open(self.path, "rb")
        except OSError as exc:
            raise TraceFormatError(
                f"{self.path}: cannot open trace: {exc.strerror or exc}")
        with handle:
            yield handle

    def _check_header(self, handle: IO[bytes]) -> int:
        header = handle.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE or header[:len(MAGIC)] != MAGIC:
            raise TraceFormatError(
                f"{self._name()} is not a trace (bad magic)")
        version = header[len(MAGIC)]
        if version != VERSION:
            raise TraceFormatError(
                f"{self._name()}: unsupported trace version {version} "
                f"(this reader speaks version {VERSION})")
        return version

    def _name(self) -> str:
        return self.path or "<trace stream>"

    def _error(self, exc: TraceFormatError) -> TraceFormatError:
        return TraceFormatError(f"{self._name()}: {exc}")

    # ---------------------------------------------------------- iterate

    def __iter__(self) -> Iterator[object]:
        return self.events()

    def events(self) -> Iterator[object]:
        """Yield events lazily; validates the footer checksum at EOF."""
        return map(itemgetter(1), self._records())

    def _records(self) -> Iterator[Tuple[int, object, int, bytes]]:
        """The record walk: ``(tag, event, offset, raw)`` per event
        record in stream order, *offset* being the record's absolute
        byte offset in the file and *raw* its bytes.  Reaching the end
        marker checks the stream's CRC-32 and event count against the
        footer."""
        with self._open() as handle:
            version = self._check_header(handle)
            state = EncoderState()
            buf = b""
            base = HEADER_SIZE        # file offset of buf[0]
            pos = 0
            crc = 0
            total = 0
            while True:
                # keep half a chunk ahead; a longer record takes the
                # straddle retry below
                if len(buf) - pos < READ_CHUNK // 2:
                    chunk = handle.read(READ_CHUNK)
                    if chunk:
                        base += pos
                        buf = buf[pos:] + chunk
                        pos = 0
                if pos >= len(buf):
                    raise TraceFormatError(
                        f"{self._name()}: truncated trace (no end "
                        "marker — torn write?)")
                start = pos
                addr, line = state.prev_addr, state.prev_line
                while True:
                    try:
                        tag, pos = decode_varint(buf, start)
                        if tag != TAG_END:
                            event, pos = decode_event(tag, buf, pos, state)
                        break
                    except TruncatedRecordError as exc:
                        # the record may straddle the buffer's end: read
                        # on a chunk at a time, undo the delta state the
                        # partial decode advanced, and retry
                        chunk = handle.read(READ_CHUNK)
                        if not chunk:
                            raise self._error(exc) from None
                        buf += chunk
                        state.prev_addr, state.prev_line = addr, line
                    except TraceFormatError as exc:
                        raise self._error(exc) from None
                if tag == TAG_END:
                    crc = crc32(buf[start:pos], crc)
                    self._check_stream(
                        self._footer(handle, version, base + pos),
                        crc, total)
                    return
                raw = buf[start:pos]
                crc = crc32(raw, crc)
                total += 1
                yield tag, event, base + start, raw

    def _check_stream(self, manifest: TraceManifest, crc: int,
                      total: int) -> None:
        if manifest.checksum != crc:
            raise TraceFormatError(
                f"{self._name()}: checksum mismatch (trace corrupt: "
                f"footer says {manifest.checksum:#010x}, stream is "
                f"{crc:#010x})")
        if manifest.total_events != total:
            raise TraceFormatError(
                f"{self._name()}: event count mismatch (footer says "
                f"{manifest.total_events}, stream held {total})")

    def _footer(self, handle: IO[bytes], version: int,
                end: Optional[int] = None) -> TraceManifest:
        """Parse the footer the trailer at the end of the file points
        at.  *end*, the offset just past the stream's end marker when a
        walk found it, is where the footer must begin."""
        size = handle.seek(0, io.SEEK_END)
        if size < HEADER_SIZE + TRAILER_SIZE:
            raise TraceFormatError(
                f"{self._name()}: truncated trace (no footer — torn "
                "write?)")
        handle.seek(size - TRAILER_SIZE)
        trailer = handle.read(TRAILER_SIZE)
        if trailer[4:] != TRAILER_MAGIC:
            raise TraceFormatError(
                f"{self._name()}: missing footer trailer (torn write?)")
        footer_len = int.from_bytes(trailer[:4], "little")
        footer_at = size - TRAILER_SIZE - footer_len
        if footer_at < HEADER_SIZE or end is not None and footer_at != end:
            raise TraceFormatError(
                f"{self._name()}: implausible footer length "
                f"{footer_len} (corrupt trace)")
        handle.seek(footer_at)
        return decode_footer(handle.read(footer_len), version)

    # ------------------------------------------------------------ frames

    def frames(self, entries: Iterable["index_mod.LaunchEntry"]
               ) -> Iterator[FrameColumns]:
        """The indexed launch frames *entries* as :class:`FrameColumns`.

        *entries* come in stream order and may skip launches: replay
        passes every entry, ``trace query`` only the launches its
        filter can match.  They are read through one file handle, each
        frame checked against its indexed length and CRC-32 before it
        joins a batch, and decoded by :func:`decode_frame_columns` in
        batches of up to :data:`DECODE_BATCH_BYTES` of frame bytes (a
        larger frame is a batch of its own).  A batch need not be
        adjacent frames: every frame restarts its address and line
        chains.
        """
        with self._open() as handle:
            batch: List[bytes] = []
            size = 0
            for entry in entries:
                data = self._frame_bytes(handle, entry)
                if batch and size + len(data) > DECODE_BATCH_BYTES:
                    yield from decode_frame_columns(batch)
                    batch, size = [], 0
                batch.append(data)
                size += len(data)
            if batch:
                yield from decode_frame_columns(batch)

    def _frame_bytes(self, handle: IO[bytes],
                     entry: "index_mod.LaunchEntry") -> bytes:
        """Frame *entry*'s bytes, checked against its indexed length
        and CRC-32."""
        handle.seek(entry.offset)
        data = handle.read(entry.length)
        if len(data) != entry.length:
            raise TraceFormatError(
                f"{self._name()}: indexed frame at {entry.offset} runs "
                "past the end of the trace (stale index?)")
        if crc32(data) != entry.checksum:
            raise TraceFormatError(
                f"{self._name()}: frame checksum mismatch at launch "
                f"{entry.launch_index} (stale index or corrupt trace)")
        return data

    # ---------------------------------------------------------- summary

    def manifest(self) -> TraceManifest:
        """Read the footer without scanning events (uses the trailer)."""
        with self._open() as handle:
            return self._footer(handle, self._check_header(handle))


# ---------------------------------------------------------------------
# columnar frame decode: one launch frame -> int64 ndarray columns
# ---------------------------------------------------------------------

#: longest varint the vectorized decoder accepts: 9 bytes carry 63
#: payload bits, so every decoded value fits int64 without overflow.
#: Longer (still wire-legal) varints punt to the event decoder.
_VECTOR_VARINT_MAX = 9

#: |cumulative address| ceiling for trusting the int64 delta cumsum; a
#: float64 shadow sum below this proves no int64 wrap occurred (its
#: relative error is far smaller than the 2x margin to 2**63).
_ADDR_SAFE_LIMIT = float(2 ** 62)


def _decode_varints(data: bytes, pos: int) -> Optional[np.ndarray]:
    """Every varint in ``data[pos:]`` as one int64 ndarray.

    The vectorized core of the columnar decoder: terminator bytes
    (``< 0x80``) segment the stream, and one masked shift-accumulate
    per varint-length step assembles all values at once.  Returns
    ``None`` when the stream needs the event decoder — a truncated
    trailing varint (the event decoder raises the canonical error) or a
    varint longer than 9 bytes (could overflow int64).
    """
    buf = np.frombuffer(data, dtype=np.uint8, offset=pos)
    if buf.size == 0:
        return np.empty(0, dtype=np.int64)
    terminators = buf < 0x80
    if not terminators[-1]:
        return None
    ends = np.flatnonzero(terminators)
    lengths = np.diff(ends, prepend=-1)
    starts = ends - lengths + 1
    values = buf[starts].astype(np.int64)
    # most varints are one byte, already their value: mask and extend
    # only the longer ones
    multi = np.flatnonzero(lengths > 1)
    if not multi.size:
        return values
    max_len = int(lengths[multi].max())
    if max_len > _VECTOR_VARINT_MAX:
        return None
    values[multi] &= 0x7F
    for k in range(1, max_len):
        multi = multi[lengths[multi] > k]
        values[multi] |= ((buf[starts[multi] + k] & 0x7F).astype(np.int64)
                          << (7 * k))
    return values


def _record_walk(tok: np.ndarray) -> Optional[np.ndarray]:
    """Start position of every record in the flat token stream *tok*.

    Record lengths are data-dependent (MEM records embed a line count),
    so the boundaries form a chain ``i -> i + len(record at i)``,
    walked once from the front.  Returns ``None`` on any structural
    anomaly — unknown tag, nested launch, a record overrunning the
    stream — so the event decoder can raise its canonical error.
    """
    tokens = memoryview(tok)
    n = len(tokens)
    starts = []
    start = starts.append
    i = 0
    while i < n:
        start(i)
        tag = tokens[i]
        if tag == TAG_INSTR or tag == TAG_BRANCH:
            i += 5
        elif tag == TAG_MEM and i + 5 < n:
            i += 6 + tokens[i + 5]
        elif tag == TAG_KEND:
            i += 2
        else:
            return None
    if i != n:                    # the last record ran off the end
        return None
    return np.array(starts, dtype=np.int64)


def _unzigzag_cumsum(raw: np.ndarray,
                     firsts: np.ndarray) -> Optional[np.ndarray]:
    """Undo zigzag and the delta chain in two array ops, restarting the
    chain at each index in *firsts* (where a later frame's deltas
    begin); ``None`` when the reconstructed values might not fit
    int64."""
    deltas = (raw >> 1) ^ -(raw & 1)
    values = np.cumsum(deltas)
    if not deltas.size:
        return values
    shadow = np.cumsum(deltas.astype(np.float64))
    if firsts.size:
        # int64 sums wrap modulo 2**64, so taking off the running total
        # at each restart is exact wherever the restarted value fits,
        # which the shadow, restarted alike, proves
        starts = np.concatenate(([0], firsts))
        counts = np.diff(starts, append=deltas.size)
        values -= np.repeat(np.concatenate(([0], values))[starts], counts)
        shadow -= np.repeat(np.concatenate(([0.0], shadow))[starts],
                            counts)
    if float(np.abs(shadow).max()) >= _ADDR_SAFE_LIMIT:
        return None
    return values


def _columns_vector(tok: np.ndarray, *cuts: int) -> Optional[tuple]:
    """The vectorized column extraction; ``None`` punts to the event
    decoder (structural anomaly or int64-overflow risk).

    *tok* is one frame's record tokens, and the result its 16 columns
    in :class:`FrameColumns` slot order.  For a batch of frames, *tok*
    is their tokens end to end and *cuts* the positions where the
    second and later frames' records begin: the address and line
    chains restart at each cut, and each of the 16 entries is a list
    of per-frame columns.  A record crossing a cut declines the
    batch, so no frame reads another's tokens.
    """
    rec = _record_walk(tok)
    if rec is None:
        return None
    tags = tok[rec]
    instr_at = rec[tags == TAG_INSTR]
    mem_at = rec[tags == TAG_MEM]
    branch_at = rec[tags == TAG_BRANCH]
    kend_at = rec[tags == TAG_KEND]
    addr_at = rec[tags != TAG_KEND]
    cut = np.array(cuts, dtype=np.int64)
    if cut.size and not np.array_equal(
            np.append(rec, tok.size)[np.searchsorted(rec, cut)], cut):
        return None
    addrs = _unzigzag_cumsum(tok[addr_at + 1],
                             np.searchsorted(addr_at, cut))
    if addrs is None:
        return None
    nlines = tok[mem_at + 5]
    cum = np.cumsum(nlines)
    line_cut = np.concatenate(([0], cum))[np.searchsorted(mem_at, cut)]
    total = int(cum[-1]) if cum.size else 0
    if total:
        flat = (np.repeat(mem_at + 6 - (cum - nlines), nlines)
                + np.arange(total, dtype=np.int64))
        lines = _unzigzag_cumsum(tok[flat], line_cut)
        if lines is None:
            return None
    else:
        lines = np.empty(0, dtype=np.int64)
    columns = (tags, tok[kend_at + 1],
               addrs[np.searchsorted(addr_at, instr_at)],
               tok[instr_at + 2], tok[instr_at + 3], tok[instr_at + 4],
               addrs[np.searchsorted(addr_at, mem_at)],
               tok[mem_at + 2], tok[mem_at + 3], tok[mem_at + 4],
               nlines, lines,
               addrs[np.searchsorted(addr_at, branch_at)],
               tok[branch_at + 2], tok[branch_at + 3], tok[branch_at + 4])
    if not cut.size:
        return columns
    record_cut, kend_cut, instr_cut, mem_cut, branch_cut = (
        np.searchsorted(at, cut)
        for at in (rec, kend_at, instr_at, mem_at, branch_at))
    splits = (record_cut, kend_cut, instr_cut, instr_cut, instr_cut,
              instr_cut, mem_cut, mem_cut, mem_cut, mem_cut, mem_cut,
              line_cut, branch_cut, branch_cut, branch_cut, branch_cut)
    return tuple(_split(column, split)
                 for column, split in zip(columns, splits))


def _split(column: np.ndarray, cut: np.ndarray) -> List[np.ndarray]:
    edges = [0, *cut.tolist(), column.size]
    return [column[a:b] for a, b in zip(edges, edges[1:])]


class FrameColumns:
    """One launch's records decoded into ndarray columns.

    The replay stack's batch currency, and the only input a replay
    analysis accepts.  Built from a ``LAUNCH .. KEND`` frame slice by
    :func:`decode_frame_columns` (a few array passes over a batch of
    frames, no per-event objects; the columns may be views into the
    batch's arrays), or from an event stream by :class:`FrameBuilder`;
    consumed by the analyses, the timing model and the query filter.
    ``record_tags`` preserves the record order after the launch
    record; the per-kind columns are in stream order, so kind-local
    index *k* is the *k*-th record of that kind.
    Columns are int64, except that a column holding a value past int64
    is an exact object column.  ``launch`` is ``None`` for the records
    a trace holds ahead of its first launch.  :meth:`record` turns one
    row back into its event object.  *opcodes_known* marks a frame
    whose opcode ids its decode batch has already checked
    (:meth:`opcodes`).
    """

    __slots__ = ("launch", "events", "warp_instructions", "_line_offsets",
                 "_opcodes_known",
                 "record_tags", "kend_counts",
                 "instr_addr", "instr_opcodes", "instr_lanes",
                 "instr_widths",
                 "mem_addr", "mem_flags", "mem_width", "mem_active",
                 "mem_nlines", "mem_lines",
                 "branch_addr", "branch_active", "branch_taken",
                 "branch_not_taken")

    def __init__(self, launch, columns: tuple, opcodes_known: bool = False):
        (self.record_tags, self.kend_counts,
         self.instr_addr, self.instr_opcodes, self.instr_lanes,
         self.instr_widths,
         self.mem_addr, self.mem_flags, self.mem_width, self.mem_active,
         self.mem_nlines, self.mem_lines,
         self.branch_addr, self.branch_active, self.branch_taken,
         self.branch_not_taken) = columns
        self.launch = launch
        self.events = int(self.record_tags.size) + (launch is not None)
        self.warp_instructions = (int(self.kend_counts[-1])
                                  if self.kend_counts.size else 0)
        self._line_offsets: Optional[List[int]] = None
        self._opcodes_known = opcodes_known

    def record(self, tag: int, k: int):
        """The *k*-th ``TAG_INSTR``, ``TAG_MEM`` or ``TAG_BRANCH``
        record as its event object."""
        if tag == TAG_INSTR:
            return InstrEvent(ins_addr=int(self.instr_addr[k]),
                              opcode=int(self.instr_opcodes[k]),
                              lanes=int(self.instr_lanes[k]),
                              width=int(self.instr_widths[k]))
        if tag == TAG_MEM:
            offsets = self._line_offsets
            if offsets is None:
                offsets = self._line_offsets = np.concatenate(
                    ([0], np.cumsum(self.mem_nlines))).tolist()
            lines = self.mem_lines[offsets[k]:offsets[k + 1]]
            return MemEvent(ins_addr=int(self.mem_addr[k]),
                            flags=int(self.mem_flags[k]),
                            width=int(self.mem_width[k]),
                            active_lanes=int(self.mem_active[k]),
                            line_addresses=tuple(lines.tolist()))
        return BranchEvent(ins_addr=int(self.branch_addr[k]),
                           active=int(self.branch_active[k]),
                           taken=int(self.branch_taken[k]),
                           not_taken=int(self.branch_not_taken[k]))

    def opcodes(self) -> np.ndarray:
        """``instr_opcodes``, once every id is known to name an
        :class:`~repro.isa.opcodes.Opcode` (trace opcodes are
        untrusted; the decoder passes any id through).  A frame from a
        decode batch whose opcodes all passed is not checked again."""
        ops = self.instr_opcodes
        if not self._opcodes_known:
            if not _all_opcodes_known(ops):
                bad = next(op for op in ops.tolist()
                           if not 0 <= op < OPCODE_CLASS_BITS.size
                           or not OPCODE_CLASS_BITS[op])
                raise record_error(self.launch, "INSTR",
                                   unknown_opcode(bad))
            self._opcodes_known = True
        return ops


def record_error(launch: Optional[LaunchEvent], kind: str,
                 problem: str) -> TraceFormatError:
    """A :class:`TraceFormatError` for a malformed *kind* record, naming
    the launch it belongs to."""
    where = (f"launch {launch.launch_index} ({launch.kernel})"
             if launch is not None else "before the first launch")
    return TraceFormatError(f"{where}: {kind} record {problem}")


def unknown_opcode(opcode: int) -> str:
    return f"has opcode id {opcode}, which names no opcode"


def _all_opcodes_known(ops: np.ndarray) -> bool:
    """Does every id in *ops* name an Opcode?"""
    return not ops.size or (ops.dtype != object and ops.min() >= 0
                            and ops.max() < OPCODE_CLASS_BITS.size
                            and bool(OPCODE_CLASS_BITS[ops].all()))


def decode_frame_columns(slices: Sequence[bytes]) -> List[FrameColumns]:
    """Decode a batch of frame slices, one :class:`FrameColumns` each.

    *slices* are ``LAUNCH .. KEND`` frame slices, in any order and not
    necessarily adjacent in the trace.  Each launch header is decoded
    on its own; the bodies of the whole batch take one varint pass and
    one vector pass (:func:`_columns_vector`), so a run of small
    frames costs about what one large frame does.  The batch's opcode
    ids are checked once too: when all of them name an opcode, its
    frames skip the check in :meth:`FrameColumns.opcodes`; else each
    frame checks its own when read, naming its launch.  A batch the
    vector pass declines is decoded frame by frame, and a frame it
    declines (over-long varints, truncation, bad tags, values that
    might not fit int64) event by event into a :class:`FrameBuilder`:
    corrupt input raises the streaming decoder's
    :class:`TraceFormatError`, and values past int64 come back exact.
    """
    return _decode_batch(list(slices))


def _decode_batch(slices: List[bytes]) -> List[FrameColumns]:
    launches = []
    bodies = []
    for data in slices:
        tag, pos = decode_varint(data, 0)
        if tag != TAG_LAUNCH:
            raise TraceFormatError(
                "frame slice does not start at a launch record")
        launch, pos = decode_event(tag, data, pos, EncoderState())
        launches.append(launch)
        bodies.append(data[pos:])
    body = b"".join(bodies)
    tok = _decode_varints(body, 0)
    cuts = _token_cuts(body, bodies) if tok is not None else None
    columns = _columns_vector(tok, *cuts) if cuts is not None else None
    if columns is not None:
        if len(slices) == 1:
            known = _all_opcodes_known(columns[3])
            return [FrameColumns(launches[0], columns, known)]
        known = _all_opcodes_known(np.concatenate(columns[3]))
        return [FrameColumns(launch, frame, known)
                for launch, frame in zip(launches, zip(*columns))]
    if len(slices) > 1:
        return [frame for data in slices for frame in _decode_batch([data])]
    builder = FrameBuilder(launches[0])
    for event in iter_slice_events(body):
        if isinstance(event, LaunchEvent):
            raise TraceFormatError(
                "nested launch record inside a frame slice")
        builder.add(event)
    return [builder.frame()]


def _token_cuts(body: bytes, bodies: List[bytes]) -> Optional[List[int]]:
    """The token positions in *body*, the concatenated *bodies*, where
    the second and later bodies begin; ``None`` when a varint runs
    across a body's end (a frame slice that does not end on a varint
    terminator)."""
    byte_cuts = np.cumsum([len(b) for b in bodies[:-1]], dtype=np.int64)
    if not byte_cuts.size:
        return []
    terminal = np.frombuffer(body, dtype=np.uint8) < 0x80
    inner = byte_cuts[byte_cuts > 0]
    if not terminal[inner - 1].all():
        return None
    return np.searchsorted(np.flatnonzero(terminal), byte_cuts).tolist()


class FrameBuilder:
    """Collects events into one :class:`FrameColumns` batch — the event
    counterpart of :func:`decode_frame_columns`, with the same columns
    for the same records."""

    def __init__(self, launch: Optional[LaunchEvent] = None):
        self.launch = launch
        # one list per FrameColumns column, in slot order
        self._columns = tuple([] for _ in range(16))

    @property
    def empty(self) -> bool:
        return self.launch is None and not self._columns[0]

    def add(self, event) -> None:
        """Append one record (anything but a launch) in stream order."""
        (record_tags, kend_counts,
         instr_addr, instr_opcodes, instr_lanes, instr_widths,
         mem_addr, mem_flags, mem_width, mem_active, mem_nlines,
         mem_lines,
         branch_addr, branch_active, branch_taken,
         branch_not_taken) = self._columns
        if isinstance(event, InstrEvent):
            instr_addr.append(event.ins_addr)
            instr_opcodes.append(event.opcode)
            instr_lanes.append(event.lanes)
            instr_widths.append(event.width)
        elif isinstance(event, MemEvent):
            mem_addr.append(event.ins_addr)
            mem_flags.append(event.flags)
            mem_width.append(event.width)
            mem_active.append(event.active_lanes)
            mem_nlines.append(len(event.line_addresses))
            mem_lines.extend(event.line_addresses)
        elif isinstance(event, BranchEvent):
            branch_addr.append(event.ins_addr)
            branch_active.append(event.active)
            branch_taken.append(event.taken)
            branch_not_taken.append(event.not_taken)
        elif isinstance(event, KernelEndEvent):
            kend_counts.append(event.warp_instructions)
        else:
            raise TraceFormatError(
                f"cannot batch {type(event).__name__} as a frame record")
        record_tags.append(event.tag)

    def frame(self) -> FrameColumns:
        return FrameColumns(self.launch, tuple(
            int_column(column) for column in self._columns))


def event_frames(events: Iterable[object]) -> Iterator[FrameColumns]:
    """Group an event stream into :class:`FrameColumns` batches: one
    per :class:`~repro.trace.format.LaunchEvent`, running to the next
    launch (so records after a kernel end stay with their launch), plus
    one launch-less batch for any records ahead of the first launch."""
    builder = FrameBuilder()
    for event in events:
        if isinstance(event, LaunchEvent):
            if not builder.empty:
                yield builder.frame()
            builder = FrameBuilder(event)
        else:
            builder.add(event)
    if not builder.empty:
        yield builder.frame()
