"""The ``.rptrace`` binary event-trace format.

Record once on the (slow) instrumented simulator, answer many questions
offline at replay speed — the Section 9.4 workflow ("a memory trace
collected by SASSI can be used to drive a memory hierarchy simulator")
promoted to a first-class artifact.  A trace file is::

    [header]   magic b"RPTR" + one version byte
    [events]   varint-tagged, delta-compressed records (see below)
    [end]      a single zero tag byte
    [footer]   per-kind event counts, total count, CRC-32 of the event
               byte stream (torn/partial writes are detected, never
               silently accepted)
    [trailer]  fixed 8 bytes: u32-LE footer length + magic b"RPTE"
               (lets readers locate the footer without scanning)

All integers are unsigned LEB128 varints; signed quantities (address
deltas) are ZigZag-mapped first.  Instruction addresses are encoded as
deltas against the previous event's address and coalesced line
addresses as deltas against the previous line, with both generators
reset at every kernel-launch frame — traces stay compact and each
kernel frame is independently decodable.

Event kinds:

====  ========  ====================================================
tag   kind      payload
====  ========  ====================================================
1     LAUNCH    kernel name, grid (x,y,z), block (x,y,z), launch index
2     KEND      warp-instruction count of the finished launch
3     INSTR     Δins_addr, opcode id, active lanes, memory width
4     MEM       Δins_addr, flags (bit0 load, bit1 store, bit2 atomic),
                width, active lanes, line count, Δline addresses
5     BRANCH    Δins_addr, active/taken/not-taken lane counts
====  ========  ====================================================

Malformed input of any shape raises :class:`TraceFormatError` — never a
``struct``/unpickling traceback (the format contains no pickles at all).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator, Tuple

MAGIC = b"RPTR"
TRAILER_MAGIC = b"RPTE"
VERSION = 1
#: magic + version byte, ahead of the first event record
HEADER_SIZE = len(MAGIC) + 1
TRAILER_SIZE = 8

#: event tags (0 is the end-of-events marker, not an event)
TAG_END = 0
TAG_LAUNCH = 1
TAG_KEND = 2
TAG_INSTR = 3
TAG_MEM = 4
TAG_BRANCH = 5

KIND_NAMES = {
    TAG_LAUNCH: "launch",
    TAG_KEND: "kernel_end",
    TAG_INSTR: "instr",
    TAG_MEM: "mem",
    TAG_BRANCH: "branch",
}

MEM_FLAG_LOAD = 1 << 0
MEM_FLAG_STORE = 1 << 1
MEM_FLAG_ATOMIC = 1 << 2

U64_MASK = (1 << 64) - 1


class TraceFormatError(Exception):
    """The file is not a valid (complete) trace."""


class TruncatedRecordError(TraceFormatError):
    """A record runs past the end of the bytes it is decoded from."""


# ---------------------------------------------------------------------
# varint codec
# ---------------------------------------------------------------------


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise ValueError(f"varint value must be unsigned: {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    """Decode one varint at *pos*; returns (value, next_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise TruncatedRecordError("truncated varint (unexpected EOF)")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise TraceFormatError("varint too long (corrupt trace)")


def zigzag(value: int) -> int:
    """Map a signed integer onto unsigned (small magnitudes stay small)."""
    return value * 2 if value >= 0 else -value * 2 - 1


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# ---------------------------------------------------------------------
# events
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class LaunchEvent:
    """Kernel-launch framing: every event until the matching
    :class:`KernelEndEvent` belongs to this launch."""

    kernel: str
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    launch_index: int

    tag = TAG_LAUNCH


@dataclass(frozen=True)
class KernelEndEvent:
    """End-of-launch frame (warp-instruction count of the launch)."""

    warp_instructions: int

    tag = TAG_KEND


@dataclass(frozen=True)
class InstrEvent:
    """One warp-level instruction issue at an instrumented site."""

    ins_addr: int
    opcode: int
    lanes: int
    #: memory access width in bytes (0 for non-memory instructions)
    width: int

    tag = TAG_INSTR


@dataclass(frozen=True)
class MemEvent:
    """One warp-level memory access with its coalesced line addresses."""

    ins_addr: int
    flags: int
    width: int
    active_lanes: int
    line_addresses: Tuple[int, ...]

    tag = TAG_MEM

    @property
    def is_load(self) -> bool:
        return bool(self.flags & MEM_FLAG_LOAD)

    @property
    def is_store(self) -> bool:
        return bool(self.flags & MEM_FLAG_STORE)

    @property
    def unique_lines(self) -> int:
        return len(self.line_addresses)


@dataclass(frozen=True)
class BranchEvent:
    """One conditional-branch execution (Case Study I's raw datum)."""

    ins_addr: int
    active: int
    taken: int
    not_taken: int

    tag = TAG_BRANCH

    @property
    def divergent(self) -> bool:
        return self.taken != self.active and self.not_taken != self.active


# ---------------------------------------------------------------------
# codec: events <-> bytes (with cross-event delta state)
# ---------------------------------------------------------------------


class EncoderState:
    """Delta generators shared across successive events."""

    __slots__ = ("prev_addr", "prev_line")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.prev_addr = 0
        self.prev_line = 0


def encode_event(event, state: EncoderState) -> bytes:
    """One event as tag + payload bytes, advancing *state*."""
    out = bytearray()
    tag = event.tag
    out += encode_varint(tag)
    if tag == TAG_LAUNCH:
        name = event.kernel.encode("utf-8")
        out += encode_varint(len(name))
        out += name
        for value in (*event.grid, *event.block, event.launch_index):
            out += encode_varint(int(value))
        state.reset()
        return bytes(out)
    if tag == TAG_KEND:
        out += encode_varint(int(event.warp_instructions))
        return bytes(out)
    # the remaining kinds all lead with a delta-coded instruction address
    delta = int(event.ins_addr) - state.prev_addr
    state.prev_addr = int(event.ins_addr)
    out += encode_varint(zigzag(delta))
    if tag == TAG_INSTR:
        out += encode_varint(int(event.opcode))
        out += encode_varint(int(event.lanes))
        out += encode_varint(int(event.width))
    elif tag == TAG_MEM:
        out += encode_varint(int(event.flags))
        out += encode_varint(int(event.width))
        out += encode_varint(int(event.active_lanes))
        out += encode_varint(len(event.line_addresses))
        for line in event.line_addresses:
            out += encode_varint(zigzag(int(line) - state.prev_line))
            state.prev_line = int(line)
    elif tag == TAG_BRANCH:
        out += encode_varint(int(event.active))
        out += encode_varint(int(event.taken))
        out += encode_varint(int(event.not_taken))
    else:
        raise ValueError(f"unknown event: {event!r}")
    return bytes(out)


def decode_event(tag: int, buf: bytes, pos: int,
                 state: EncoderState) -> Tuple[object, int]:
    """Decode the payload of one event whose *tag* was already read."""
    if tag == TAG_LAUNCH:
        length, pos = decode_varint(buf, pos)
        if pos + length > len(buf):
            raise TruncatedRecordError("truncated kernel name")
        try:
            name = buf[pos:pos + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"bad kernel name bytes: {exc}")
        pos += length
        dims = []
        for _ in range(7):
            value, pos = decode_varint(buf, pos)
            dims.append(value)
        state.reset()
        return LaunchEvent(kernel=name, grid=tuple(dims[0:3]),
                           block=tuple(dims[3:6]),
                           launch_index=dims[6]), pos
    if tag == TAG_KEND:
        count, pos = decode_varint(buf, pos)
        return KernelEndEvent(warp_instructions=count), pos
    if tag in (TAG_INSTR, TAG_MEM, TAG_BRANCH):
        raw, pos = decode_varint(buf, pos)
        addr = state.prev_addr + unzigzag(raw)
        state.prev_addr = addr
        if tag == TAG_INSTR:
            opcode, pos = decode_varint(buf, pos)
            lanes, pos = decode_varint(buf, pos)
            width, pos = decode_varint(buf, pos)
            return InstrEvent(ins_addr=addr, opcode=opcode, lanes=lanes,
                              width=width), pos
        if tag == TAG_MEM:
            flags, pos = decode_varint(buf, pos)
            width, pos = decode_varint(buf, pos)
            active, pos = decode_varint(buf, pos)
            count, pos = decode_varint(buf, pos)
            lines = []
            for _ in range(count):
                raw, pos = decode_varint(buf, pos)
                line = state.prev_line + unzigzag(raw)
                state.prev_line = line
                lines.append(line)
            return MemEvent(ins_addr=addr, flags=flags, width=width,
                            active_lanes=active,
                            line_addresses=tuple(lines)), pos
        active, pos = decode_varint(buf, pos)
        taken, pos = decode_varint(buf, pos)
        not_taken, pos = decode_varint(buf, pos)
        return BranchEvent(ins_addr=addr, active=active, taken=taken,
                           not_taken=not_taken), pos
    raise TraceFormatError(f"unknown event tag {tag}")


# ---------------------------------------------------------------------
# frame slices (seekable decode for indexed readers)
# ---------------------------------------------------------------------


def iter_slice_events(data: bytes) -> Iterator[object]:
    """Decode a byte slice that begins at a record boundary where the
    delta state is known-reset — i.e. at a LAUNCH record (the codec
    resets :class:`EncoderState` there, making every launch frame
    independently decodable).  Yields events until the slice ends."""
    state = EncoderState()
    pos = 0
    end = len(data)
    while pos < end:
        tag, pos = decode_varint(data, pos)
        event, pos = decode_event(tag, data, pos, state)
        yield event


# ---------------------------------------------------------------------
# footer
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class TraceManifest:
    """The footer's summary of a finished trace."""

    version: int
    total_events: int
    counts: Tuple[Tuple[int, int], ...]   # (tag, count) pairs
    checksum: int                         # CRC-32 of the event bytes

    def count(self, tag: int) -> int:
        for entry_tag, value in self.counts:
            if entry_tag == tag:
                return value
        return 0

    def kind_counts(self):
        return {KIND_NAMES.get(tag, f"tag{tag}"): count
                for tag, count in self.counts}


def encode_footer(manifest: TraceManifest) -> bytes:
    body = bytearray()
    body += encode_varint(len(manifest.counts))
    for tag, count in manifest.counts:
        body += encode_varint(tag)
        body += encode_varint(count)
    body += encode_varint(manifest.total_events)
    body += encode_varint(manifest.checksum)
    trailer = len(body).to_bytes(4, "little") + TRAILER_MAGIC
    return bytes(body) + trailer


def decode_footer(buf: bytes, version: int) -> TraceManifest:
    """Decode footer *body* bytes (without the 8-byte trailer)."""
    pos = 0
    n_kinds, pos = decode_varint(buf, pos)
    if n_kinds > 64:
        raise TraceFormatError("implausible footer (corrupt trace)")
    counts = []
    for _ in range(n_kinds):
        tag, pos = decode_varint(buf, pos)
        count, pos = decode_varint(buf, pos)
        counts.append((tag, count))
    total, pos = decode_varint(buf, pos)
    checksum, pos = decode_varint(buf, pos)
    return TraceManifest(version=version, total_events=total,
                         counts=tuple(counts), checksum=checksum)


def crc32(data: bytes, value: int = 0) -> int:
    return zlib.crc32(data, value) & 0xFFFFFFFF
