"""Hypothesis differential suite for batch frame decode.

The contract: decoding a run of consecutive frame slices as one batch
(:func:`repro.trace.io.decode_frame_columns` given a list) returns
exactly what decoding each slice alone returns — column for column and
dtype for dtype, whether the batch takes the vector pass or falls back
frame by frame — and a frame whose last record overruns its slice
raises the error it raises alone, never reading the next frame's bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.trace.format import (
    EncoderState,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
    TAG_KEND,
    TraceFormatError,
    encode_event,
)
from repro.trace.io import FrameBuilder, FrameColumns, decode_frame_columns
from tests.trace.test_columnar_decoder import (
    I64_SAFE,
    U64_MAX,
    launch_events,
    record_events,
)

pytestmark = pytest.mark.noskip

SLOTS = FrameColumns.__slots__[5:]


def overlong_varint(value: int, length: int) -> bytes:
    """*value* as a wire-legal varint padded to *length* bytes."""
    out = bytearray()
    for _ in range(length - 1):
        out.append(value & 0x7F | 0x80)
        value >>= 7
    assert value < 0x80
    out.append(value)
    return bytes(out)


def frame_slice(launch, records, overlong_end=None) -> bytes:
    """One frame slice; *overlong_end*, a varint length, appends a
    kernel-end record whose count is padded to that many bytes."""
    state = EncoderState()
    blob = encode_event(launch, state)
    for event in records:
        blob += encode_event(event, state)
    if overlong_end is not None:
        blob += bytes([TAG_KEND]) + overlong_varint(7, overlong_end)
    return blob


frames_st = st.lists(
    st.sampled_from([I64_SAFE, U64_MAX]).flatmap(
        lambda addr_max: st.tuples(
            launch_events(addr_max),
            st.lists(record_events(addr_max), max_size=12),
            st.one_of(st.none(), st.integers(2, 11)))),
    min_size=1, max_size=6)


def assert_same_frames(batch, alone):
    assert len(batch) == len(alone)
    for got, want in zip(batch, alone):
        assert got.launch == want.launch
        assert got.events == want.events
        assert got.warp_instructions == want.warp_instructions
        for slot in SLOTS:
            mine, theirs = getattr(got, slot), getattr(want, slot)
            assert mine.dtype == theirs.dtype, slot
            assert mine.tolist() == theirs.tolist(), slot


LAUNCH = LaunchEvent(kernel="k", grid=(1, 1, 1), block=(32, 1, 1),
                     launch_index=0)
INSTR = InstrEvent(ins_addr=0x40, opcode=1, lanes=32, width=4)
MEM = MemEvent(ins_addr=0x48, flags=1, width=4, active_lanes=32,
               line_addresses=(0x1000, 0x1080))
MEM_3 = MemEvent(ins_addr=0x48, flags=1, width=4, active_lanes=32,
                 line_addresses=(0x1000, 0x1080, 0x1100))


@given(frames_st)
@settings(max_examples=120)
@example([(LAUNCH, [], None), (LAUNCH, [INSTR], None)])          # empty
@example([(LAUNCH, [INSTR, KernelEndEvent(warp_instructions=1), MEM],
           None), (LAUNCH, [MEM], None)])                  # after KEND
@example([(LAUNCH, [InstrEvent(ins_addr=U64_MAX, opcode=1, lanes=32,
                               width=4)], None),
          (LAUNCH, [INSTR], 10)])                      # u64, overlong
def test_batch_equals_frame_by_frame(frames):
    slices = [frame_slice(*frame) for frame in frames]
    alone = [decode_frame_columns([data])[0] for data in slices]
    assert_same_frames(decode_frame_columns(slices), alone)


def mem_overrun() -> bytes:
    """A frame whose last MEM record claims three lines but holds one:
    the slice ends after the first line's varint, on a terminator.  In
    a batch, a frame whose body is one kernel-end record would supply
    exactly the two missing tokens."""
    blob = frame_slice(LAUNCH, [INSTR, MEM_3])
    for _ in range(2):
        blob = blob[:max(i for i in range(len(blob) - 1)
                         if blob[i] < 0x80) + 1]
    return blob


def mid_varint() -> bytes:
    """A frame slice cut inside its last varint, so it ends on a
    continuation byte."""
    blob = frame_slice(LAUNCH, [INSTR, KernelEndEvent(
        warp_instructions=1 << 20)])
    assert blob[-2] >= 0x80
    return blob[:-1]


@given(st.sampled_from([mem_overrun, mid_varint]),
       st.lists(st.tuples(launch_events(I64_SAFE),
                          st.lists(record_events(I64_SAFE), max_size=8)),
                max_size=3),
       st.lists(st.tuples(launch_events(I64_SAFE),
                          st.lists(record_events(I64_SAFE), min_size=1,
                                   max_size=8)),
                min_size=1, max_size=3))
@settings(max_examples=60)
@example(mem_overrun, [], [(LAUNCH, [KernelEndEvent(warp_instructions=0)])])
def test_overrunning_frame_raises_its_own_error(bad_frame, before, after):
    bad = bad_frame()
    with pytest.raises(TraceFormatError) as alone:
        decode_frame_columns([bad])
    slices = ([frame_slice(launch, records) for launch, records in before]
              + [bad]
              + [frame_slice(launch, records) for launch, records in after])
    with pytest.raises(TraceFormatError) as batch:
        decode_frame_columns(slices)
    assert str(batch.value) == str(alone.value)


def test_batch_of_one_is_the_single_frame_case():
    records = [INSTR, MEM, KernelEndEvent(warp_instructions=2)]
    (frame,) = decode_frame_columns([frame_slice(LAUNCH, records)])
    builder = FrameBuilder(LAUNCH)
    for event in records:
        builder.add(event)
    assert_same_frames([frame], [builder.frame()])
    assert frame.mem_lines.dtype == np.int64


def test_varint_never_runs_into_the_next_frame():
    # the first slice ends on the continuation byte of an over-long
    # kernel-end tag; the second's body alone is an end tag, which no
    # frame may hold, but after that continuation byte it would finish
    # a valid kernel-end record
    first = frame_slice(LAUNCH, [INSTR]) + bytes([TAG_KEND | 0x80])
    second = frame_slice(LAUNCH, []) + bytes([0x00, 0x05])
    with pytest.raises(TraceFormatError) as alone:
        decode_frame_columns([first])
    with pytest.raises(TraceFormatError) as batch:
        decode_frame_columns([first, second])
    assert str(batch.value) == str(alone.value)


def test_batch_takes_one_vector_pass(monkeypatch):
    # every frame's addresses sit near 2**61.6: each fits the int64
    # guard, their sum across frames would not, so the pass must
    # restart both the address chain and its overflow guard per frame
    from repro.trace import io as trace_io

    results = []
    real = trace_io._columns_vector

    def counted(tok, *cuts):
        results.append(real(tok, *cuts))
        return results[-1]

    monkeypatch.setattr(trace_io, "_columns_vector", counted)
    big = 3 << 60
    frames = [frame_slice(LaunchEvent(kernel="k", grid=(1, 1, 1),
                                      block=(32, 1, 1), launch_index=n),
                          [InstrEvent(ins_addr=big + n, opcode=1,
                                      lanes=32, width=4),
                           MemEvent(ins_addr=big, flags=1, width=4,
                                    active_lanes=32,
                                    line_addresses=(big, big + 128)),
                           KernelEndEvent(warp_instructions=2)])
              for n in range(3)]
    batch = decode_frame_columns(frames)
    assert len(results) == 1 and results[0] is not None
    assert [frame.instr_addr.tolist() for frame in batch] == \
        [[big + n] for n in range(3)]
    assert [frame.mem_lines.tolist() for frame in batch] == \
        [[big, big + 128]] * 3


@pytest.mark.parametrize("frames", [1, 3])
def test_batch_checks_opcodes_once(frames, monkeypatch):
    # a batch whose opcode ids all name an opcode is checked once, and
    # its frames skip the check; a batch holding an unknown id leaves
    # every frame to check its own, and only the bad one raises,
    # naming its launch
    from repro.trace import io as trace_io

    checks = []
    real = trace_io._all_opcodes_known

    def counted(ops):
        checks.append(ops.size)
        return real(ops)

    monkeypatch.setattr(trace_io, "_all_opcodes_known", counted)
    launches = [LaunchEvent(kernel="k", grid=(1, 1, 1), block=(32, 1, 1),
                            launch_index=n) for n in range(frames)]
    end = KernelEndEvent(warp_instructions=1)
    good = [frame_slice(launch, [INSTR, end]) for launch in launches]
    batch = decode_frame_columns(good)
    assert checks == [frames]
    for frame in batch:
        assert frame.opcodes().tolist() == [INSTR.opcode]
    assert checks == [frames]

    bad = frame_slice(launches[-1], [InstrEvent(
        ins_addr=0x40, opcode=999, lanes=32, width=4), end])
    checks.clear()
    batch = decode_frame_columns(good[:-1] + [bad])
    assert checks == [frames]
    for frame in batch[:-1]:
        frame.opcodes()
    with pytest.raises(TraceFormatError) as exc:
        batch[-1].opcodes()
    assert str(exc.value) == (f"launch {frames - 1} (k): INSTR record "
                              "has opcode id 999, which names no opcode")
    assert checks == [frames] + [1] * frames
