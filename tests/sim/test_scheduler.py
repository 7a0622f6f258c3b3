"""Unit tests for the cycle-stepped warp scheduler.

Covers the exhaustiveness contract (every opcode has a timing entry,
and the flat model's issue costs are derived from the same table, so
golden cycle counts cannot silently drift), plus pinned small-schedule
behavior: stall bubbles, memory-latency grading, scoreboard structural
stalls, CTA barriers, and both issue policies.
"""

from __future__ import annotations

import pytest

from repro.isa.opcodes import Opcode
from repro.sim import costmodel
from repro.sim.scheduler import (
    DRAM_LATENCY,
    L1_HIT_LATENCY,
    L2_HIT_LATENCY,
    LATENCY_TABLE,
    POLICIES,
    SchedulerConfig,
    WarpInstr,
    WarpStream,
    divergence_spans,
    missing_entries,
    schedule_launch,
)

pytestmark = pytest.mark.noskip

#: the retired flat model's _EXTRA_ISSUE dict (cost = 1 + extra);
#: the table's issue fields must reproduce it exactly or every golden
#: cycle snapshot and Table 3 ratio moves
LEGACY_EXTRA_ISSUE = {
    Opcode.MUFU: 3,
    Opcode.IMUL: 1,
    Opcode.IMAD: 1,
    Opcode.BAR: 2,
    Opcode.ATOM: 4,
    Opcode.ATOMS: 2,
    Opcode.RED: 4,
}


class TestLatencyTable:
    def test_every_opcode_has_an_entry(self):
        # this is the satellite guard: adding an Opcode member without
        # a latency entry must fail here (and costmodel fails at import)
        assert missing_entries() == [], (
            f"opcodes missing a LATENCY_TABLE entry: "
            f"{[op.name for op in missing_entries()]}")

    def test_no_stray_entries(self):
        assert set(LATENCY_TABLE) == set(Opcode)

    def test_missing_entries_reports_gaps(self):
        table = dict(LATENCY_TABLE)
        del table[Opcode.FFMA]
        assert missing_entries(table) == [Opcode.FFMA]
        assert len(missing_entries({})) == len(list(Opcode))

    @pytest.mark.parametrize("opcode", list(Opcode),
                             ids=lambda op: op.name)
    def test_entries_are_sane(self, opcode):
        entry = LATENCY_TABLE[opcode]
        assert entry.issue >= 1
        assert entry.stall >= 1
        assert entry.latency >= 1
        if entry.barrier:
            # a wait barrier only makes sense for latency past the stall
            assert entry.latency > entry.stall

    @pytest.mark.parametrize("opcode", list(Opcode),
                             ids=lambda op: op.name)
    def test_issue_costs_match_the_flat_model(self, opcode):
        expected = 1 + LEGACY_EXTRA_ISSUE.get(opcode, 0)
        assert LATENCY_TABLE[opcode].issue == expected
        assert costmodel.block_issue_cycles([opcode]) == expected
        counter = costmodel.CycleCounter()
        counter.issue(opcode)
        assert counter.cycles == expected


def _warp(*instrs, warp=0):
    return WarpStream(warp=warp, instrs=list(instrs))


def _alu(addr, opcode=Opcode.IADD, lanes=32):
    return WarpInstr(addr=addr, opcode=opcode, lanes=lanes)


def _load(addr, transactions=1, l1=0, l2=0, lanes=32):
    return WarpInstr(addr=addr, opcode=Opcode.LDG, lanes=lanes,
                     transactions=transactions, l1_misses=l1,
                     l2_misses=l2)


class TestSingleWarp:
    def test_dependent_alu_chain_pays_stall_bubbles(self):
        # IADD: issue 1, stall 4 -> second IADD issues at cycle 4
        sched = schedule_launch([[_warp(_alu(0), _alu(8))]])
        assert sched.issued == 2
        assert sched.busy_cycles == 2
        assert sched.cycles == 5           # issue@0, bubble 1..3, issue@4
        assert sched.bubble_cycles == 3
        assert sched.stall_cycles["exec_dep"] == 3

    def test_cycles_equal_busy_plus_bubbles(self):
        stream = _warp(_alu(0), _load(8, l1=1, l2=1), _alu(16), _alu(24),
                       _alu(32, opcode=Opcode.EXIT))
        sched = schedule_launch([[stream]])
        assert sched.cycles == sched.busy_cycles + \
            sum(b.cycles for b in sched.bubbles)
        assert sched.bubble_cycles == sum(b.cycles for b in sched.bubbles)

    def test_memory_latency_grades_by_cache_outcome(self):
        def time_with(l1, l2):
            # dep_distance=2: the *second* consumer waits on the load
            stream = _warp(_load(0, l1=l1, l2=l2), _alu(8), _alu(16))
            return schedule_launch([[stream]]).cycles

        hit, l2_hit, dram = time_with(0, 0), time_with(1, 0), time_with(1, 1)
        assert hit < l2_hit < dram
        # the DRAM wait dominates: the last IADD issues once the load
        # completes at DRAM_LATENCY
        assert dram == DRAM_LATENCY + 1
        assert l2_hit == L2_HIT_LATENCY + 1
        assert hit == L1_HIT_LATENCY + 1

    def test_memory_bubble_blames_the_load(self):
        stream = _warp(_load(0, l2=1), _alu(8), _alu(16))
        sched = schedule_launch([[stream]])
        (top, *_rest) = sched.top_bubbles(1)
        assert top.reason == "mem_dep"
        assert top.addr == 0
        assert top.opcode is Opcode.LDG
        assert sched.hotspots[0].stall_cycles > 0

    def test_diverged_transactions_occupy_the_port(self):
        one = schedule_launch([[_warp(_load(0, transactions=1))]])
        eight = schedule_launch([[_warp(_load(0, transactions=8))]])
        # 2 extra port cycles per extra transaction (the flat model's
        # TRANSACTION_COST), charged as busy time not bubbles
        assert eight.busy_cycles - one.busy_cycles == 2 * 7

    def test_scoreboard_slots_are_a_structural_limit(self):
        # more outstanding loads than slots, no consumers in range:
        # the 7th load stalls until the oldest barrier frees
        loads = [_load(8 * i, l2=1) for i in range(8)]
        sched = schedule_launch(
            [[_warp(*loads)]],
            SchedulerConfig(scoreboard_slots=6, dep_distance=100))
        assert sched.stall_cycles["scoreboard"] > 0
        unlimited = schedule_launch(
            [[_warp(*[_load(8 * i, l2=1) for i in range(8)])]],
            SchedulerConfig(scoreboard_slots=64, dep_distance=100))
        assert unlimited.cycles < sched.cycles


class TestMultiWarp:
    def test_second_warp_hides_memory_latency(self):
        def streams():
            return [_warp(_load(0, l2=1), _alu(8), _alu(16), warp=w)
                    for w in range(4)]

        solo = schedule_launch([streams()[:1]])
        quad = schedule_launch([streams()])
        assert quad.issued == 12
        # four warps overlap their DRAM waits: far cheaper than 4x solo
        assert quad.cycles < 4 * solo.cycles
        assert quad.bubble_cycles < 4 * solo.bubble_cycles

    def test_cta_barrier_waits_all_warps(self):
        def bar_stream(w, pre):
            instrs = [_alu(8 * i) for i in range(pre)]
            instrs.append(WarpInstr(addr=8 * pre, opcode=Opcode.BAR,
                                    lanes=32))
            instrs.append(_alu(8 * (pre + 1)))
            return WarpStream(warp=w, instrs=instrs)

        sched = schedule_launch([[bar_stream(0, 1), bar_stream(1, 5)]])
        assert sched.barrier_releases == 1
        assert sched.issued == 3 + 7

    def test_ctas_run_sequentially(self):
        one = schedule_launch([[_warp(_alu(0), _alu(8))]])
        two = schedule_launch([[_warp(_alu(0), _alu(8))],
                               [_warp(_alu(0), _alu(8))]])
        assert two.cycles == 2 * one.cycles

    @pytest.mark.parametrize("policy", POLICIES)
    def test_policies_issue_everything(self, policy):
        streams = [_warp(_load(0, l1=1), _alu(8), _alu(16), warp=w)
                   for w in range(3)]
        sched = schedule_launch([streams], SchedulerConfig(policy=policy))
        assert sched.policy == policy
        assert sched.issued == 9
        assert sum(h.issues for h in sched.hotspots.values()) == 9

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown issue policy"):
            SchedulerConfig(policy="fifo")

    def test_schedules_are_deterministic(self):
        streams = [[_warp(_load(0, l2=1), _alu(8), _alu(16), _alu(24),
                          warp=w) for w in range(4)]]
        a = schedule_launch(streams, SchedulerConfig(policy="lrr"))
        b = schedule_launch(streams, SchedulerConfig(policy="lrr"))
        assert a.cycles == b.cycles
        assert [(x.start, x.cycles, x.reason) for x in a.bubbles] == \
            [(x.start, x.cycles, x.reason) for x in b.bubbles]


class TestDivergenceSpans:
    def test_spans_are_maximal_runs(self):
        stream = _warp(
            _alu(0, lanes=32),
            WarpInstr(addr=8, opcode=Opcode.IADD, lanes=7, divergent=True),
            WarpInstr(addr=16, opcode=Opcode.IADD, lanes=3,
                      divergent=True),
            _alu(24, lanes=32),
            WarpInstr(addr=32, opcode=Opcode.IADD, lanes=9,
                      divergent=True),
        )
        assert divergence_spans(stream) == [(8, 2, 3), (32, 1, 9)]

    def test_divergent_instrs_counted_by_scheduler(self):
        stream = _warp(
            WarpInstr(addr=0, opcode=Opcode.IADD, lanes=5, divergent=True))
        sched = schedule_launch([[stream]])
        assert sched.divergent_instrs == 1
