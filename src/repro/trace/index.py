"""The ``.rpti`` columnar index sidecar: O(1) seek into a trace.

A trace's event stream is framed by kernel launches, and the delta
codec resets at every :class:`~repro.trace.format.LaunchEvent` — each
``LAUNCH .. KEND`` frame is independently decodable from its first
byte with a fresh :class:`~repro.trace.format.EncoderState`.  The index
records, per launch frame, everything a reader needs to exploit that:
the absolute byte offset and length, a CRC-32 of the frame bytes, the
event counts per record kind, and the launch geometry — so
``TraceReader.frames`` seeks straight to the frames of any selection
of launches (replay reads them all, ``trace query`` only the ones its
filter can match) without scanning the stream, and
``repro trace info``/``query`` answer per-launch questions from the
sidecar alone.

File layout (all integers unsigned LEB128 varints unless noted)::

    [header]   magic b"RPTI" + one version byte
    [binding]  trace version, total events, footer CRC-32 — the index
               is only valid against the exact trace it was built from
    [names]    kernel-name string table (count, then len+utf8 each)
    [launches] row count, then one varint *column* at a time:
               name id, launch index, grid x/y/z, block x/y/z,
               offset delta (first absolute), frame length, frame
               CRC-32, events, instr, mem, branch
    [stray]    events outside any complete frame (before the first
               launch, between frames, or in a torn frame) — nonzero
               sends replay and query to the event stream, though
               ``TraceReader.frames`` still reads the indexed frames
    [crc]      4 bytes LE: CRC-32 of everything since the header
    [trailer]  fixed 8 bytes: u32-LE body length + magic b"RPIE"

Truncation or corruption of any byte raises
:class:`~repro.trace.format.TraceFormatError` — exactly the trace
format's own contract.  The sidecar is written by
:class:`~repro.trace.io.TraceWriter` at capture time and backfilled
for existing traces by :func:`build_index` (``repro trace index``);
both produce byte-identical files for the same trace.  The backfill is
one pass of :class:`~repro.trace.io.TraceReader`'s record walk — the
walk ``events()`` streams — so its memory is bounded by the read
chunk, not the trace, and it refuses a trace whose stream CRC-32 or
event count does not match its footer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.trace.format import (
    TAG_BRANCH,
    TAG_INSTR,
    TAG_KEND,
    TAG_LAUNCH,
    TAG_MEM,
    TraceFormatError,
    TraceManifest,
    crc32,
    decode_varint,
    encode_varint,
)

INDEX_MAGIC = b"RPTI"
INDEX_TRAILER_MAGIC = b"RPIE"
INDEX_VERSION = 1
INDEX_TRAILER_SIZE = 8
INDEX_SUFFIX = ".rpti"


def index_path_for(trace_path: str) -> str:
    """``foo.rptrace`` -> ``foo.rpti`` (any other suffix just appends)."""
    base, ext = os.path.splitext(trace_path)
    if ext == ".rptrace":
        return base + INDEX_SUFFIX
    return trace_path + INDEX_SUFFIX


@dataclass(frozen=True)
class LaunchEntry:
    """One indexed ``LAUNCH .. KEND`` frame."""

    kernel: str
    launch_index: int
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    #: absolute byte offset of the LAUNCH record in the trace file
    offset: int
    #: byte length of the frame (LAUNCH through KEND inclusive)
    length: int
    #: CRC-32 of the frame bytes
    checksum: int
    #: event counts inside the frame (events includes LAUNCH and KEND)
    events: int
    instr: int
    mem: int
    branch: int


@dataclass(frozen=True)
class TraceIndex:
    """The decoded sidecar: per-launch frame geometry + trace binding."""

    trace_version: int
    trace_total_events: int
    trace_checksum: int
    entries: Tuple[LaunchEntry, ...]
    #: events outside any complete frame (0 for capture-produced traces)
    stray_events: int

    @property
    def launches(self) -> int:
        return len(self.entries)

    @property
    def shardable(self) -> bool:
        """True when the frames cover every event — frame-partitioned
        replay then sees exactly the streaming event sequence."""
        return bool(self.entries) and self.stray_events == 0

    def matches(self, manifest: TraceManifest) -> bool:
        """Is this index bound to the trace with *manifest*?"""
        return (self.trace_version == manifest.version
                and self.trace_total_events == manifest.total_events
                and self.trace_checksum == manifest.checksum)


class IndexBuilder:
    """Accumulates :class:`LaunchEntry` rows while a trace is written
    or scanned.  Feed every event record (in stream order) with its
    absolute offset and encoded bytes; call :meth:`finish` once."""

    def __init__(self):
        self._entries: List[LaunchEntry] = []
        self._stray = 0
        self._frame: Optional[dict] = None

    def observe(self, tag: int, event, offset: int, record: bytes) -> None:
        frame = self._frame
        if tag == TAG_LAUNCH:
            if frame is not None:
                # torn frame (LAUNCH without KEND): its events are stray
                self._stray += frame["events"]
            self._frame = {
                "kernel": event.kernel,
                "launch_index": event.launch_index,
                "grid": tuple(event.grid), "block": tuple(event.block),
                "offset": offset, "crc": crc32(record),
                "events": 1, "instr": 0, "mem": 0, "branch": 0,
            }
            return
        if frame is None:
            self._stray += 1
            return
        frame["crc"] = crc32(record, frame["crc"])
        frame["events"] += 1
        if tag == TAG_INSTR:
            frame["instr"] += 1
        elif tag == TAG_MEM:
            frame["mem"] += 1
        elif tag == TAG_BRANCH:
            frame["branch"] += 1
        if tag == TAG_KEND:
            self._entries.append(LaunchEntry(
                kernel=frame["kernel"],
                launch_index=frame["launch_index"],
                grid=frame["grid"], block=frame["block"],
                offset=frame["offset"],
                length=offset + len(record) - frame["offset"],
                checksum=frame["crc"], events=frame["events"],
                instr=frame["instr"], mem=frame["mem"],
                branch=frame["branch"]))
            self._frame = None

    def finish(self, manifest: TraceManifest) -> TraceIndex:
        if self._frame is not None:
            self._stray += self._frame["events"]
            self._frame = None
        return TraceIndex(
            trace_version=manifest.version,
            trace_total_events=manifest.total_events,
            trace_checksum=manifest.checksum,
            entries=tuple(self._entries), stray_events=self._stray)


# ---------------------------------------------------------------- codec

def encode_index(index: TraceIndex) -> bytes:
    """The full sidecar file bytes for *index*."""
    body = bytearray()
    body += encode_varint(index.trace_version)
    body += encode_varint(index.trace_total_events)
    body += encode_varint(index.trace_checksum)
    names: List[str] = []
    ids = {}
    for entry in index.entries:
        if entry.kernel not in ids:
            ids[entry.kernel] = len(names)
            names.append(entry.kernel)
    body += encode_varint(len(names))
    for name in names:
        raw = name.encode("utf-8")
        body += encode_varint(len(raw))
        body += raw
    entries = index.entries
    body += encode_varint(len(entries))

    def column(values) -> None:
        for value in values:
            body.extend(encode_varint(int(value)))

    column(ids[e.kernel] for e in entries)
    column(e.launch_index for e in entries)
    for axis in range(3):
        column(e.grid[axis] for e in entries)
    for axis in range(3):
        column(e.block[axis] for e in entries)
    prev = 0
    for entry in entries:          # offsets are increasing: plain deltas
        body += encode_varint(entry.offset - prev)
        prev = entry.offset
    column(e.length for e in entries)
    column(e.checksum for e in entries)
    column(e.events for e in entries)
    column(e.instr for e in entries)
    column(e.mem for e in entries)
    column(e.branch for e in entries)
    body += encode_varint(index.stray_events)
    trailer = len(body).to_bytes(4, "little") + INDEX_TRAILER_MAGIC
    return (INDEX_MAGIC + bytes([INDEX_VERSION]) + bytes(body)
            + crc32(bytes(body)).to_bytes(4, "little") + trailer)


def decode_index(data: bytes, name: str = "<index>") -> TraceIndex:
    """Parse sidecar bytes; truncation/corruption raises
    :class:`TraceFormatError`."""
    header = len(INDEX_MAGIC) + 1
    if len(data) < header or data[:len(INDEX_MAGIC)] != INDEX_MAGIC:
        raise TraceFormatError(f"{name} is not a trace index (bad magic)")
    version = data[len(INDEX_MAGIC)]
    if version != INDEX_VERSION:
        raise TraceFormatError(
            f"{name}: unsupported index version {version} (this reader "
            f"speaks version {INDEX_VERSION})")
    if len(data) < header + 4 + INDEX_TRAILER_SIZE:
        raise TraceFormatError(f"{name}: truncated index (torn write?)")
    trailer = data[-INDEX_TRAILER_SIZE:]
    if trailer[4:] != INDEX_TRAILER_MAGIC:
        raise TraceFormatError(
            f"{name}: missing index trailer (torn write?)")
    body_len = int.from_bytes(trailer[:4], "little")
    if header + body_len + 4 + INDEX_TRAILER_SIZE != len(data):
        raise TraceFormatError(
            f"{name}: index length mismatch (torn write?)")
    body = data[header:header + body_len]
    stored_crc = int.from_bytes(
        data[header + body_len:header + body_len + 4], "little")
    if crc32(body) != stored_crc:
        raise TraceFormatError(f"{name}: index checksum mismatch "
                               "(index corrupt)")
    try:
        return _decode_body(body)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{name}: {exc}")


def _decode_body(body: bytes) -> TraceIndex:
    pos = 0
    trace_version, pos = decode_varint(body, pos)
    total_events, pos = decode_varint(body, pos)
    trace_checksum, pos = decode_varint(body, pos)
    n_names, pos = decode_varint(body, pos)
    names = []
    for _ in range(n_names):
        length, pos = decode_varint(body, pos)
        if pos + length > len(body):
            raise TraceFormatError("truncated kernel name table")
        try:
            names.append(body[pos:pos + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"bad kernel name bytes: {exc}")
        pos += length
    n_rows, pos = decode_varint(body, pos)

    def column():
        nonlocal pos
        values = []
        for _ in range(n_rows):
            value, pos = decode_varint(body, pos)
            values.append(value)
        return values

    name_ids = column()
    launch_indices = column()
    grids = [column(), column(), column()]
    blocks = [column(), column(), column()]
    offset_deltas = column()
    lengths = column()
    checksums = column()
    events = column()
    instr = column()
    mem = column()
    branch = column()
    stray, pos = decode_varint(body, pos)
    if pos != len(body):
        raise TraceFormatError("trailing bytes after index body")
    entries = []
    offset = 0
    for row in range(n_rows):
        if name_ids[row] >= len(names):
            raise TraceFormatError("kernel name id out of range")
        offset += offset_deltas[row]
        entries.append(LaunchEntry(
            kernel=names[name_ids[row]],
            launch_index=launch_indices[row],
            grid=(grids[0][row], grids[1][row], grids[2][row]),
            block=(blocks[0][row], blocks[1][row], blocks[2][row]),
            offset=offset, length=lengths[row],
            checksum=checksums[row], events=events[row],
            instr=instr[row], mem=mem[row], branch=branch[row]))
    return TraceIndex(trace_version=trace_version,
                      trace_total_events=total_events,
                      trace_checksum=trace_checksum,
                      entries=tuple(entries), stray_events=stray)


# ------------------------------------------------------------- sidecars

def write_index(index: TraceIndex, path: str) -> None:
    with open(path, "wb") as handle:
        handle.write(encode_index(index))


def read_index(path: str) -> TraceIndex:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise TraceFormatError(
            f"cannot open index {path}: {exc.strerror or exc}")
    return decode_index(data, name=path)


def build_index(trace_path: str) -> TraceIndex:
    """Backfill: one pass of the trace reader's record walk.

    Produces exactly the index :class:`~repro.trace.io.TraceWriter`
    would have written at capture time (same bytes under
    :func:`encode_index`), in memory bounded by the reader's chunk
    size; a stream that fails its CRC-32 or event-count check raises
    :class:`TraceFormatError`.
    """
    from repro.trace.io import TraceReader

    reader = TraceReader(trace_path)
    manifest = reader.manifest()          # validates header + footer
    builder = IndexBuilder()
    for tag, event, offset, raw in reader._records():
        builder.observe(tag, event, offset, raw)
    return builder.finish(manifest)


def sidecar_index(trace_path: str) -> Optional[TraceIndex]:
    """The ``.rpti`` sidecar if present and bound to this trace, else
    ``None`` — never scans.  Callers that want an honest "did we have
    an index?" answer (the columnar replay gate, ``trace query``'s
    full-scan reporting) use this instead of :func:`ensure_index`,
    which silently builds one from a full pass over the trace."""
    from repro.trace.io import TraceReader

    sidecar = index_path_for(trace_path)
    if not os.path.exists(sidecar):
        return None
    try:
        index = read_index(sidecar)
        if index.matches(TraceReader(trace_path).manifest()):
            return index
    except TraceFormatError:
        pass                              # stale/torn sidecar
    return None


def ensure_index(trace_path: str, write: bool = False
                 ) -> Optional[TraceIndex]:
    """The sidecar if present and bound to this trace, else
    :func:`build_index` (written back when *write* is set).  Returns
    ``None`` when the trace's header or footer is unreadable; a stream
    that fails its checks raises :class:`TraceFormatError`."""
    from repro.trace.io import TraceReader

    try:
        TraceReader(trace_path).manifest()
    except TraceFormatError:
        return None
    index = sidecar_index(trace_path)
    if index is None:
        index = build_index(trace_path)
        if write:
            write_index(index, index_path_for(trace_path))
    return index
