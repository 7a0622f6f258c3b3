"""Hypothesis properties of the cycle-stepped warp scheduler.

The satellite invariants:

* **work conservation** — every warp instruction issues exactly once,
  whatever the streams, policy, or barrier placement;
* **cycle accounting** — ``cycles == busy + bubbles`` exactly, and the
  per-reason stall totals sum to the bubble total;
* **policy equivalence** — GTO and loose round-robin issue the same
  instruction multiset (same per-address issue counts, same busy
  cycles); only the schedule, and therefore the cycle count, differs;
* **monotonicity** — making one instruction slower (a worse cache
  outcome, or more serialized transactions) never speeds up a
  single-warp schedule.  (Multi-warp schedulers are subject to Graham
  scheduling anomalies, so the property is only sound for one warp.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import Opcode
from repro.sim.scheduler import SchedulerConfig
from tests.timing_oracle import WarpInstr, WarpStream, schedule_launch

pytestmark = pytest.mark.noskip

_ALU_OPS = (Opcode.IADD, Opcode.FMUL, Opcode.FFMA, Opcode.MOV,
            Opcode.ISETP, Opcode.MUFU, Opcode.SHL)
_MEM_OPS = (Opcode.LDG, Opcode.STG, Opcode.LDS, Opcode.LDC)


@st.composite
def instrs(draw, index):
    opcode = draw(st.sampled_from(_ALU_OPS + _MEM_OPS + (Opcode.BAR,)))
    instr = WarpInstr(addr=index * 8, opcode=opcode,
                      lanes=draw(st.integers(1, 32)))
    if opcode in _MEM_OPS:
        instr.transactions = draw(st.integers(1, 8))
        instr.l1_misses = draw(st.integers(0, instr.transactions))
        instr.l2_misses = draw(st.integers(0, instr.l1_misses))
    return instr


@st.composite
def ctas(draw):
    n_warps = draw(st.integers(1, 4))
    streams = []
    for w in range(n_warps):
        length = draw(st.integers(1, 12))
        streams.append(WarpStream(
            warp=w, instrs=[draw(instrs(i)) for i in range(length)]))
    return [streams]


def _total_instrs(launch_ctas):
    return sum(len(s.instrs) for streams in launch_ctas
               for s in streams)


@settings(max_examples=60, deadline=None)
@given(launch=ctas(), policy=st.sampled_from(["gto", "lrr"]))
def test_work_conservation_and_accounting(launch, policy):
    sched = schedule_launch(launch, SchedulerConfig(policy=policy))
    total = _total_instrs(launch)
    # every instruction issues exactly once
    assert sched.issued == total
    assert sum(h.issues for h in sched.hotspots.values()) == total
    # exact cycle accounting
    assert sched.cycles == sched.busy_cycles + \
        sum(b.cycles for b in sched.bubbles)
    assert sum(sched.stall_cycles.values()) == sched.bubble_cycles
    assert all(b.cycles > 0 for b in sched.bubbles)


@settings(max_examples=60, deadline=None)
@given(launch=ctas())
def test_gto_and_lrr_issue_the_same_multiset(launch):
    gto = schedule_launch(launch, SchedulerConfig(policy="gto"))
    lrr = schedule_launch(launch, SchedulerConfig(policy="lrr"))
    # same per-address issue counts and issue-port work...
    assert {a: h.issues for a, h in gto.hotspots.items()} == \
        {a: h.issues for a, h in lrr.hotspots.items()}
    assert gto.busy_cycles == lrr.busy_cycles
    assert gto.issued == lrr.issued
    assert gto.barrier_releases == lrr.barrier_releases
    # ...the schedule (cycles) may legitimately differ


@st.composite
def single_warp(draw):
    length = draw(st.integers(2, 15))
    stream = WarpStream(
        warp=0, instrs=[draw(instrs(i)) for i in range(length)])
    victim = draw(st.integers(0, length - 1))
    # pin the victim to a load in BOTH schedules; the slowdown below
    # only worsens its memory behavior (same opcode, same stall entry)
    instr = stream.instrs[victim]
    instr.opcode = Opcode.LDG
    instr.transactions = max(instr.transactions, 1)
    return [[stream]], victim


@settings(max_examples=60, deadline=None)
@given(data=single_warp())
def test_single_warp_added_stall_is_monotone(data):
    launch, victim = data
    base = schedule_launch(launch).cycles
    instr = launch[0][0].instrs[victim]
    # strictly worse: one more serialized transaction, worst cache
    # outcome — every affected delay is monotone for a single warp
    instr.transactions += 1
    instr.l1_misses = instr.transactions
    instr.l2_misses = instr.transactions
    slowed = schedule_launch(launch).cycles
    assert slowed >= base


@settings(max_examples=30, deadline=None)
@given(launch=ctas())
def test_lengthening_a_single_warp_stream_is_monotone(launch):
    if len(launch[0]) != 1:
        launch = [[launch[0][0]]]
    base = schedule_launch(launch).cycles
    launch[0][0].instrs.append(
        WarpInstr(addr=8_000, opcode=Opcode.IADD, lanes=32))
    longer = schedule_launch(launch).cycles
    assert longer > base
