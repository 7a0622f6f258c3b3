"""The trace reader's one record walk, which both the event stream and
the index backfill read: corruption the stream CRC catches fails both,
the backfill holds a bounded window of the trace rather than the whole
file, a record longer than the read window decodes exactly, and a
malformed record fails at once, naming the trace."""

from __future__ import annotations

import io
import os
import tracemalloc

import pytest

from repro.cli import main
from repro.trace.format import (HEADER_SIZE, MAGIC, TAG_INSTR, TAG_LAUNCH,
                                VERSION, EncoderState, InstrEvent,
                                KernelEndEvent, LaunchEvent, MemEvent,
                                TraceFormatError, encode_event)
from repro.trace.index import (build_index, ensure_index, index_path_for,
                               read_index)
from repro.trace.io import READ_CHUNK, TraceReader, TraceWriter


@pytest.fixture(scope="module")
def nn_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("walk") / "nn.rptrace")
    assert main(["capture", "rodinia/nn", "-o", path]) == 0
    return path


def _flipped_copy(trace: str, directory) -> str:
    """*trace* without its sidecar, with the low bit of the first byte
    below 0x7E past the middle of its first frame flipped.  The byte
    stays a varint terminator, so the records still decode; only the
    stream CRC-32 can tell."""
    entry = read_index(index_path_for(trace)).entries[0]
    with open(trace, "rb") as handle:
        data = bytearray(handle.read())
    at = next(i for i in range(entry.offset + entry.length // 2,
                               entry.offset + entry.length)
              if data[i] < 0x7E)
    data[at] ^= 1
    path = str(directory / "flipped.rptrace")
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    return path


class TestStreamChecksum:
    def test_replay_and_backfill_both_reject(self, nn_trace, tmp_path):
        path = _flipped_copy(nn_trace, tmp_path)
        with pytest.raises(TraceFormatError, match="checksum"):
            list(TraceReader(path).events())
        with pytest.raises(TraceFormatError, match="checksum"):
            build_index(path)
        with pytest.raises(TraceFormatError, match="checksum"):
            ensure_index(path)

    def test_cli_index_and_info_exit_2(self, nn_trace, tmp_path, capsys):
        path = _flipped_copy(nn_trace, tmp_path)
        assert main(["trace", "index", path]) == 2
        assert "checksum" in capsys.readouterr().err
        assert not os.path.exists(index_path_for(path))
        assert main(["trace", "info", path]) == 2
        assert "checksum" in capsys.readouterr().err


def test_backfill_memory_is_bounded(tmp_path):
    # 42 launch frames left open (their events count as stray), each
    # record carried by a 100 KiB kernel name: a 4 MiB trace in few
    # enough records to decode quickly under tracemalloc
    path = str(tmp_path / "big.rptrace")
    name = "k" * (100 << 10)
    with TraceWriter(path) as writer:
        for n in range(42):
            writer.write(LaunchEvent(kernel=name, grid=(1, 1, 1),
                                     block=(32, 1, 1), launch_index=n))
    assert os.path.getsize(path) >= 4 << 20
    tracemalloc.start()
    try:
        index = build_index(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (index.launches, index.stray_events) == (0, 42)
    assert peak < 2 << 20


def test_record_longer_than_read_window():
    # the MEM record outgrows the reader's first chunk, so it decodes
    # on the straddle retry, after the INSTR moved the address delta
    events = [LaunchEvent(kernel="k", grid=(1, 1, 1), block=(32, 1, 1),
                          launch_index=0),
              InstrEvent(ins_addr=0x100, opcode=1, lanes=32, width=4),
              MemEvent(ins_addr=0x200, flags=1, width=4, active_lanes=32,
                       line_addresses=tuple(range(1000,
                                                  1000 + READ_CHUNK))),
              KernelEndEvent(warp_instructions=2)]
    buf = io.BytesIO()
    with TraceWriter(buf) as writer:
        writer.write_batch(events)
    assert list(TraceReader(io.BytesIO(buf.getvalue())).events()) == events


def test_malformed_record_raises_at_once(tmp_path):
    # 42 launch records carried by 100 KiB kernel names, the second's
    # tag rewritten to the unknown 9: the walk must name the trace and
    # stop there, holding about one read window, not read on to the end
    path = str(tmp_path / "tag9.rptrace")
    name = "k" * (100 << 10)
    with TraceWriter(path) as writer:
        for n in range(42):
            writer.write(LaunchEvent(kernel=name, grid=(1, 1, 1),
                                     block=(32, 1, 1), launch_index=n))
    os.remove(index_path_for(path))
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    assert len(data) >= 4 << 20
    second = HEADER_SIZE + len(encode_event(
        LaunchEvent(kernel=name, grid=(1, 1, 1), block=(32, 1, 1),
                    launch_index=0), EncoderState()))
    assert data[second] == TAG_LAUNCH
    data[second] = 9
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    del data
    for walk in (lambda: list(TraceReader(path).events()),
                 lambda: build_index(path)):
        tracemalloc.start()
        try:
            with pytest.raises(TraceFormatError) as exc:
                walk()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"{path}: unknown event tag 9"
        assert peak < 3 * READ_CHUNK


def test_record_truncated_at_end_of_file_names_the_trace(tmp_path):
    # a torn stream: the last record's bytes stop short of its payload
    # and nothing follows it, so the straddle retry finds no more data
    path = str(tmp_path / "torn.rptrace")
    with open(path, "wb") as handle:
        handle.write(MAGIC + bytes([VERSION]) + bytes([TAG_INSTR]))
    with pytest.raises(TraceFormatError) as exc:
        list(TraceReader(path).events())
    assert str(exc.value) == f"{path}: truncated varint (unexpected EOF)"
