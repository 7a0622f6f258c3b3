"""Malformed records fail replay with a :class:`TraceFormatError` that
names the launch and the record kind — never with a traceback, and
never by silently counting them in some other cell.

Each trace is written through the public :class:`TraceWriter` (the
decoder stays permissive: any opcode id or lane count is wire-legal)
and replayed with its ``.rpti`` sidecar and without it, so both the
decoded-frame and the event-grouping routes are held to the rule.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.isa.opcodes import Opcode
from repro.trace.format import (
    MEM_FLAG_LOAD,
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
    TraceFormatError,
)
from repro.trace.index import index_path_for
from repro.trace.io import TraceReader, TraceWriter
from repro.trace.replay import make_analysis, replay
from repro.trace.timing import TimingModel

LDG = Opcode.LDG.value


def _mem(active_lanes: int, lines=(0x1000,)) -> MemEvent:
    return MemEvent(ins_addr=0x10, flags=MEM_FLAG_LOAD, width=4,
                    active_lanes=active_lanes, line_addresses=tuple(lines))


def _write(directory, records, sidecar: bool) -> str:
    """One good launch, then launch 1 holding *records*."""
    path = str(directory / "bad.rptrace")
    with TraceWriter(path) as writer:
        for index, body in enumerate((
                [InstrEvent(ins_addr=0x10, opcode=LDG, lanes=32, width=4),
                 _mem(32)],
                records)):
            writer.write(LaunchEvent(kernel="kern", grid=(1, 1, 1),
                                     block=(32, 1, 1), launch_index=index))
            for record in body:
                writer.write(record)
            writer.write(KernelEndEvent(warp_instructions=len(body)))
    if not sidecar:
        os.remove(index_path_for(path))
    return path


@pytest.fixture(params=[True, False], ids=["sidecar", "no-sidecar"])
def sidecar(request):
    return request.param


MEMDIV_CASES = {
    "33-lanes": ([InstrEvent(ins_addr=0x10, opcode=LDG, lanes=32, width=4),
                  _mem(33)], "MEM record has 33 active lanes"),
    "0-lanes": ([InstrEvent(ins_addr=0x10, opcode=LDG, lanes=0, width=4),
                 _mem(0)], "MEM record has 0 active lanes"),
    "no-lines": ([InstrEvent(ins_addr=0x10, opcode=LDG, lanes=4, width=4),
                  _mem(4, lines=())], "MEM record has no line addresses"),
}

BAD_OPCODE = [InstrEvent(ins_addr=0x10, opcode=999, lanes=32, width=4)]
OPCODE_MESSAGE = "INSTR record has opcode id 999, which names no opcode"


@pytest.mark.parametrize("case", sorted(MEMDIV_CASES))
def test_memdiv_rejects_impossible_mem_records(tmp_path, sidecar, case):
    records, message = MEMDIV_CASES[case]
    path = _write(tmp_path, records, sidecar)
    with pytest.raises(TraceFormatError) as exc:
        replay(path, [make_analysis("memdiv")])
    assert str(exc.value) == f"launch 1 (kern): {message}"


def test_memdiv_cli_exits_2_with_one_line(tmp_path, sidecar, capsys):
    path = _write(tmp_path, MEMDIV_CASES["33-lanes"][0], sidecar)
    assert main(["replay", path, "--analysis", "memdiv"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"repro: {path}: launch 1 (kern): "
                            "MEM record has 33 active lanes\n")
    assert captured.out == ""


def test_divergence_rejects_more_than_a_warp_of_lanes(tmp_path, sidecar):
    path = _write(tmp_path, [BranchEvent(ins_addr=0x10, active=2 ** 70,
                                         taken=0, not_taken=2 ** 70)],
                  sidecar)
    with pytest.raises(TraceFormatError) as exc:
        replay(path, [make_analysis("divergence")])
    assert str(exc.value) == \
        f"launch 1 (kern): BRANCH record counts {2 ** 70} lanes"


@pytest.mark.parametrize("analysis", ["opcodes", "timing"])
def test_unknown_opcode_rejected_by_replay(tmp_path, sidecar, analysis):
    path = _write(tmp_path, BAD_OPCODE, sidecar)
    with pytest.raises(TraceFormatError) as exc:
        replay(path, [make_analysis(analysis)])
    assert str(exc.value) == f"launch 1 (kern): {OPCODE_MESSAGE}"


@pytest.mark.parametrize("command", [
    ["replay", "{}", "--analysis", "opcodes"],
    ["replay", "{}", "--analysis", "timing", "--policy", "lrr"],
    ["trace", "summary", "{}"],
    ["trace", "query", "{}", "--class", "memory"],
    ["trace", "query", "{}", "--kind", "instr"],
])
def test_unknown_opcode_cli_exits_2_with_one_line(tmp_path, sidecar,
                                                  command, capsys):
    path = _write(tmp_path, BAD_OPCODE, sidecar)
    assert main([arg.format(path) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err == f"repro: {path}: launch 1 (kern): {OPCODE_MESSAGE}\n"


def test_unknown_opcode_in_live_timing(tmp_path):
    # the event feed (TeeWriter/TimingSink) hands closed launches to the
    # same frame path, so it rejects the record the same way
    path = _write(tmp_path, BAD_OPCODE, sidecar=True)
    with pytest.raises(TraceFormatError, match=OPCODE_MESSAGE):
        TimingModel().feed_batch(TraceReader(path).events())


def test_records_before_any_launch_are_named(tmp_path):
    path = str(tmp_path / "stray.rptrace")
    with TraceWriter(path) as writer:
        writer.write(_mem(40))
    with pytest.raises(TraceFormatError) as exc:
        replay(path, [make_analysis("memdiv")])
    assert str(exc.value) == \
        "before the first launch: MEM record has 40 active lanes"
