"""Hypothesis differential suite for the vectorized frame decoder.

The contract: :func:`repro.trace.io.decode_frame_columns` is a drop-in
for the scalar event decoder over one ``LAUNCH .. KEND`` frame slice —
same columns to the bit whenever the vector path runs, the scalar
walk's canonical :class:`TraceFormatError` on corrupt input, and an
``None`` (events-mode) fallback only for values that exceed int64.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.trace.format import (
    EncoderState,
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
    TraceFormatError,
    decode_varint,
    decode_varint_stream,
    encode_event,
)
from repro.trace.io import (
    TraceReader,
    TraceWriter,
    _columns_scalar,
    _columns_vector,
    _decode_varints,
    decode_frame_columns,
)
from repro.trace.index import ensure_index

pytestmark = pytest.mark.noskip

U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1
I64_SAFE = 2**40          # far inside the vector decoder's comfort zone

lane = st.integers(min_value=0, max_value=32)
dim3 = st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))


def launch_events(addr_max):
    return st.builds(LaunchEvent, kernel=st.text(min_size=0, max_size=12),
                     grid=dim3, block=dim3,
                     launch_index=st.integers(0, U32_MAX))


def record_events(addr_max):
    addr = st.integers(min_value=0, max_value=addr_max)
    return st.one_of(
        st.builds(InstrEvent, ins_addr=addr,
                  opcode=st.integers(0, 200), lanes=lane,
                  width=st.integers(0, 16)),
        st.builds(MemEvent, ins_addr=addr,
                  flags=st.integers(0, 7), width=st.integers(0, 16),
                  active_lanes=st.integers(1, 32),
                  line_addresses=st.lists(addr, min_size=0,
                                          max_size=8).map(tuple)),
        st.builds(BranchEvent, ins_addr=addr, active=lane, taken=lane,
                  not_taken=lane),
        st.builds(KernelEndEvent,
                  warp_instructions=st.integers(0, U32_MAX)),
    )


def frame_bytes(launch, records) -> bytes:
    state = EncoderState()
    blob = encode_event(launch, state)
    for event in records:
        blob += encode_event(event, state)
    return blob


def reference_columns(launch, records):
    """Per-kind columns straight from the event objects (ground truth
    independent of both decoder implementations)."""
    cols = {"tags": [], "kend": [], "ia": [], "iop": [], "il": [],
            "iw": [], "ma": [], "mf": [], "mw": [], "mact": [],
            "mn": [], "ml": [], "ba": [], "bact": [], "bt": [], "bn": []}
    for ev in records:
        cols["tags"].append(ev.tag)
        if isinstance(ev, InstrEvent):
            cols["ia"].append(ev.ins_addr)
            cols["iop"].append(ev.opcode)
            cols["il"].append(ev.lanes)
            cols["iw"].append(ev.width)
        elif isinstance(ev, MemEvent):
            cols["ma"].append(ev.ins_addr)
            cols["mf"].append(ev.flags)
            cols["mw"].append(ev.width)
            cols["mact"].append(ev.active_lanes)
            cols["mn"].append(len(ev.line_addresses))
            cols["ml"].extend(ev.line_addresses)
        elif isinstance(ev, BranchEvent):
            cols["ba"].append(ev.ins_addr)
            cols["bact"].append(ev.active)
            cols["bt"].append(ev.taken)
            cols["bn"].append(ev.not_taken)
        else:
            cols["kend"].append(ev.warp_instructions)
    return cols


def assert_frame_matches(frame, launch, records):
    ref = reference_columns(launch, records)
    assert frame.launch == launch
    assert frame.events == len(records) + 1
    got = {"tags": frame.record_tags, "kend": frame.kend_counts,
           "ia": frame.instr_addr, "iop": frame.instr_opcodes,
           "il": frame.instr_lanes, "iw": frame.instr_widths,
           "ma": frame.mem_addr, "mf": frame.mem_flags,
           "mw": frame.mem_width, "mact": frame.mem_active,
           "mn": frame.mem_nlines, "ml": frame.mem_lines,
           "ba": frame.branch_addr, "bact": frame.branch_active,
           "bt": frame.branch_taken, "bn": frame.branch_not_taken}
    for key, expected in ref.items():
        column = got[key]
        assert column.dtype == np.int64, key
        assert column.tolist() == expected, key


@given(launch_events(I64_SAFE), st.lists(record_events(I64_SAFE),
                                         max_size=50))
@settings(max_examples=80)
def test_frame_columns_match_event_ground_truth(launch, records):
    frame = decode_frame_columns(frame_bytes(launch, records))
    assert frame is not None
    assert_frame_matches(frame, launch, records)


@given(launch_events(I64_SAFE), st.lists(record_events(I64_SAFE),
                                         max_size=50))
@settings(max_examples=80)
def test_vector_walk_matches_scalar_walk(launch, records):
    """The two decoder cores agree column-for-column on every
    well-formed frame (and both varint passes agree token-for-token)."""
    blob = frame_bytes(launch, records)
    pos = 0
    tag, pos = decode_varint(blob, pos)
    from repro.trace.format import decode_event

    _, pos = decode_event(tag, blob, pos, EncoderState())
    tokens = decode_varint_stream(blob, pos)
    tok = _decode_varints(blob, pos)
    assert tok is not None
    assert tok.tolist() == tokens
    vec = _columns_vector(tok)
    scal = _columns_scalar(tokens)
    assert vec is not None and scal is not None
    for v, s in zip(vec, scal):
        assert v.tolist() == s.tolist()


@given(st.lists(st.tuples(launch_events(I64_SAFE),
                          st.lists(record_events(I64_SAFE), max_size=12)),
                min_size=2, max_size=4))
@settings(max_examples=30)
def test_delta_chains_reset_at_launch_boundaries(frames):
    """Writer-side address deltas chain across the whole stream but
    reset at LAUNCH, so every frame slice decodes standalone — the
    columns of frame *n* never depend on frames before it."""
    buf = io.BytesIO()
    all_events = []
    with TraceWriter(buf) as writer:
        for launch, records in frames:
            # a KEND closes each frame so the index can slice them
            closed = list(records) + [KernelEndEvent(warp_instructions=0)]
            writer.write(launch)
            for event in closed:
                writer.write(event)
            all_events.append((launch, closed))
    blob = buf.getvalue()
    path_reader = TraceReader(io.BytesIO(blob))
    assert list(path_reader.events())  # container is well-formed
    # slice frames exactly as the index does: LAUNCH..next LAUNCH
    from repro.trace.format import TAG_LAUNCH
    import repro.trace.index as index_mod

    starts = []
    data = blob[index_mod._TRACE_HEADER_SIZE:]
    pos = 0
    state = EncoderState()
    from repro.trace.format import TAG_END, decode_event

    while True:
        at = pos
        tag, pos = decode_varint(data, pos)
        if tag == TAG_END:
            starts.append(at)
            break
        if tag == TAG_LAUNCH:
            starts.append(at)
        _, pos = decode_event(tag, data, pos, state)
    for i, (launch, records) in enumerate(all_events):
        frame = decode_frame_columns(data[starts[i]:starts[i + 1]])
        assert frame is not None
        assert_frame_matches(frame, launch, records)


@given(launch_events(I64_SAFE),
       st.lists(record_events(I64_SAFE), min_size=1, max_size=20),
       st.data())
@settings(max_examples=80)
def test_truncation_matches_scalar_reference(launch, records, data):
    """Any truncation either raises the scalar walk's canonical
    TraceFormatError or decodes an exact record-prefix of the frame —
    never a raw traceback, never divergent vector/scalar behaviour."""
    blob = frame_bytes(launch, records)
    header = frame_bytes(launch, [])
    cut = data.draw(st.integers(min_value=len(header),
                                max_value=len(blob) - 1))
    try:
        frame = decode_frame_columns(blob[:cut])
    except TraceFormatError:
        return
    assert frame is not None
    assert frame.events <= len(records) + 1
    # a successful decode must be a record-prefix of the full frame
    full = decode_frame_columns(blob)
    n = frame.record_tags.size
    assert frame.record_tags.tolist() == full.record_tags.tolist()[:n]


@given(launch_events(I64_SAFE),
       st.lists(record_events(I64_SAFE), min_size=1, max_size=20),
       st.data())
@settings(max_examples=80)
def test_bit_flip_never_tracebacks(launch, records, data):
    blob = bytearray(frame_bytes(launch, records))
    index = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    blob[index] ^= data.draw(st.integers(min_value=1, max_value=255))
    try:
        frame = decode_frame_columns(bytes(blob))
    except TraceFormatError:
        return
    assert frame is None or frame.events >= 1


@given(launch_events(U64_MAX),
       st.lists(record_events(U64_MAX), max_size=30))
@settings(max_examples=60)
@example(LaunchEvent(kernel="k", grid=(1, 1, 1), block=(1, 1, 1),
                     launch_index=0),
         [InstrEvent(ins_addr=U64_MAX, opcode=1, lanes=32, width=0),
          InstrEvent(ins_addr=0, opcode=1, lanes=32, width=0)])
def test_full_u64_addresses_decode_exactly_or_fall_back(launch, records):
    """Addresses anywhere in u64: either the columns are still exact,
    or the decoder declines (returns None) so the caller replays the
    frame in events mode — it must never return wrong values."""
    frame = decode_frame_columns(frame_bytes(launch, records))
    if frame is None:
        # legal only when some value really is outside int64
        biggest = max((e.ins_addr for e in records
                       if not isinstance(e, KernelEndEvent)),
                      default=0)
        lines = max((max(e.line_addresses, default=0) for e in records
                     if isinstance(e, MemEvent)), default=0)
        assert max(biggest, lines) >= 2**62
        return
    assert_frame_matches(frame, launch, records)


def test_non_launch_frame_slice_is_rejected():
    blob = frame_bytes(LaunchEvent(kernel="k", grid=(1, 1, 1),
                                   block=(1, 1, 1), launch_index=0),
                       [InstrEvent(ins_addr=8, opcode=1, lanes=32,
                                   width=0)])
    # chop off the leading launch record: the slice starts mid-frame
    state = EncoderState()
    launch_len = len(encode_event(LaunchEvent(kernel="k", grid=(1, 1, 1),
                                              block=(1, 1, 1),
                                              launch_index=0), state))
    with pytest.raises(TraceFormatError, match="launch"):
        decode_frame_columns(blob[launch_len:])


def test_corrupt_frame_bytes_fail_crc_before_decode(tmp_path):
    """The read path (``TraceReader.frames``) rejects flipped frame
    bytes via the index CRC before the columnar decoder ever runs."""
    path = str(tmp_path / "t.rptrace")
    with TraceWriter(path) as writer:
        writer.write(LaunchEvent(kernel="k", grid=(2, 1, 1),
                                 block=(32, 1, 1), launch_index=0))
        for i in range(8):
            writer.write(InstrEvent(ins_addr=8 * i, opcode=1, lanes=32,
                                    width=0))
        writer.write(KernelEndEvent(warp_instructions=8))
    index = ensure_index(path)
    assert index is not None and index.entries
    entry = index.entries[0]
    with open(path, "r+b") as handle:
        handle.seek(entry.offset + entry.length // 2)
        byte = handle.read(1)
        handle.seek(entry.offset + entry.length // 2)
        handle.write(bytes([byte[0] ^ 0xFF]))
    reader = TraceReader(path)
    with pytest.raises(TraceFormatError, match="checksum"):
        list(reader.frames(index))
