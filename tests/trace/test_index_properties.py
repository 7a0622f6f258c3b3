"""Hypothesis property tests for the ``.rpti`` index sidecar.

The contracts: the index codec round-trips bit-exactly; the sidecar a
:class:`TraceWriter` streams out equals the :func:`build_index`
backfill byte-for-byte; ``TraceReader.frames`` over any in-order
subset of the index's launches yields exactly the columns a full scan
groups for those launches; and any truncation or byte flip
of a sidecar raises a clean :class:`TraceFormatError` (a stale or torn
sidecar is then silently rebuilt by :func:`ensure_index`).
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.format import (
    KernelEndEvent,
    LaunchEvent,
    TraceFormatError,
)
from repro.trace.index import (
    build_index,
    decode_index,
    encode_index,
    ensure_index,
    index_path_for,
    read_index,
    write_index,
)
from repro.trace.io import FrameColumns, TraceReader, TraceWriter, event_frames

from tests.trace.test_codec_properties import (
    branches,
    instrs,
    kernel_ends,
    launches,
    mems,
)

pytestmark = pytest.mark.noskip

bodies = st.lists(st.one_of(instrs, mems, branches), max_size=10)
frames = st.builds(lambda launch, body, end: [launch, *body, end],
                   launches, bodies, kernel_ends)
framed_traces = st.lists(frames, min_size=1, max_size=5)


def _write_trace(events, directory) -> str:
    path = os.path.join(directory, "t.rptrace")
    with TraceWriter(path) as writer:
        for event in events:
            writer.write(event)
    writer.close()
    return path


@given(framed_traces)
@settings(max_examples=40, deadline=None)
def test_index_codec_roundtrip(trace_frames):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_trace([e for f in trace_frames for e in f], tmp)
        index = read_index(index_path_for(path))
    assert decode_index(encode_index(index)) == index
    assert index.launches == len(trace_frames)
    assert index.shardable


@given(framed_traces)
@settings(max_examples=40, deadline=None)
def test_writer_sidecar_equals_backfill(trace_frames):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_trace([e for f in trace_frames for e in f], tmp)
        with open(index_path_for(path), "rb") as handle:
            sidecar_bytes = handle.read()
        assert encode_index(build_index(path)) == sidecar_bytes


@given(framed_traces, st.data())
@settings(max_examples=60, deadline=None)
def test_any_truncation_raises_trace_format_error(trace_frames, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_trace([e for f in trace_frames for e in f], tmp)
        index = read_index(index_path_for(path))
    blob = encode_index(index)
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(TraceFormatError):
        decode_index(blob[:cut])


@given(framed_traces, st.data())
@settings(max_examples=60, deadline=None)
def test_any_byte_flip_raises_trace_format_error(trace_frames, data):
    # the body CRC plus the header/trailer checks cover every byte
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_trace([e for f in trace_frames for e in f], tmp)
        index = read_index(index_path_for(path))
    blob = bytearray(encode_index(index))
    where = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    blob[where] ^= data.draw(st.integers(min_value=1, max_value=255))
    with pytest.raises(TraceFormatError):
        decode_index(bytes(blob))


def _assert_frames_match_scan(path, index, data):
    """A random in-order subset of *index*'s entries, which may skip
    launches, read through ``TraceReader.frames`` equals the full
    scan's :func:`event_frames` batches at those ordinals, column for
    column."""
    scanned = [frame for frame in event_frames(TraceReader(path).events())
               if frame.launch is not None]
    assert len(scanned) == index.launches
    chosen = sorted(data.draw(st.sets(st.integers(
        min_value=0, max_value=index.launches - 1))))
    read = list(TraceReader(path).frames(
        index.entries[n] for n in chosen))
    assert len(read) == len(chosen)
    for frame, n in zip(read, chosen):
        want = scanned[n]
        assert frame.launch == want.launch
        assert frame.events == want.events == index.entries[n].events
        assert frame.warp_instructions == want.warp_instructions
        for slot in FrameColumns.__slots__[5:]:
            got, expected = getattr(frame, slot), getattr(want, slot)
            assert got.dtype == expected.dtype, slot
            assert got.tolist() == expected.tolist(), slot


@given(framed_traces, st.data())
@settings(max_examples=40, deadline=None)
def test_frames_match_full_scan(trace_frames, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_trace([e for f in trace_frames for e in f], tmp)
        index = read_index(index_path_for(path))
        _assert_frames_match_scan(path, index, data)


@given(bodies.filter(bool), framed_traces, st.data())
@settings(max_examples=25, deadline=None)
def test_stray_events_disable_sharding(preamble, trace_frames, data):
    events = list(preamble) + [e for f in trace_frames for e in f]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_trace(events, tmp)
        index = read_index(index_path_for(path))
        assert index.stray_events == len(preamble)
        assert not index.shardable
        assert index.launches == len(trace_frames)
        # the indexed frames still read correctly even when frame
        # replay is off the table
        _assert_frames_match_scan(path, index, data)


def test_stale_sidecar_rebuilt(tmp_path):
    path = str(tmp_path / "t.rptrace")
    launch = LaunchEvent(kernel="k", grid=(1, 1, 1), block=(32, 1, 1),
                         launch_index=0)
    _write_trace([launch, KernelEndEvent(warp_instructions=7)],
                 str(tmp_path))
    stale = read_index(index_path_for(path))
    # rewrite the trace in place: two frames now, old sidecar kept
    with TraceWriter(path) as writer:
        for k in range(2):
            writer.write(LaunchEvent(kernel="k", grid=(1, 1, 1),
                                     block=(32, 1, 1), launch_index=k))
            writer.write(KernelEndEvent(warp_instructions=9))
    writer.close()
    write_index(stale, index_path_for(path))
    manifest = TraceReader(path).manifest()
    assert not stale.matches(manifest)
    rebuilt = ensure_index(path, write=True)
    assert rebuilt.matches(manifest)
    assert rebuilt.launches == 2
    assert read_index(index_path_for(path)).matches(manifest)
