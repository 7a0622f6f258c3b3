"""Differential suite: the launch-columnar timing model == the oracle.

:mod:`tests.timing_oracle` keeps the object-at-a-time pipeline the
columnar model replaced (a per-event warp-stream builder, per-line cache
grading, a ready-heap scheduler over per-warp state objects).  Random
traces of 1 to 6 launches — 1 to 32 warps per CTA, 1 to 4 CTAs, mixed
grid and block shapes, zero-CTA grids, barrier passes, partial exits
that fall through, divergence-stack unwinds, ``RET``, 0 to 32 active
lanes and memory records of 0 to 8 lines — are fed to both, and
every rebuilt stream and every scheduled number must agree under both
issue policies: through the event feed (live capture) and through the
decoded frames of the written trace (replay; launches placed past
2**63 decode through the scalar walk into exact object columns).  The
``--warp`` query tagger is checked against the oracle builder's
assignment too.
"""

from __future__ import annotations

import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import Opcode
from repro.isa.program import INSTRUCTION_BYTES
from repro.sim.scheduler import SchedulerConfig
from repro.trace.format import (
    MEM_FLAG_LOAD,
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
)
from repro.trace.index import index_path_for
from repro.trace.io import TraceWriter
from repro.trace.query import QueryFilter, run_query
from repro.trace.replay import replay
from repro.trace.timing import (
    TeeWriter,
    TimingAnalysis,
    TimingModel,
    render_summary,
)
from tests.timing_oracle import (
    OracleLaunchBuilder,
    OracleTimingModel,
    WarpInstr,
    WarpStream,
    divergence_spans,
    oracle_divergence_spans,
    oracle_schedule_launch,
    oracle_spans,
    schedule_launch,
    warp_streams,
)

pytestmark = pytest.mark.noskip

POLICIES = ("gto", "lrr")

_PLAIN = (Opcode.IADD, Opcode.FFMA, Opcode.MOV, Opcode.IMAD, Opcode.MUFU,
          Opcode.ISETP, Opcode.SHL, Opcode.BRA)
_MEMORY = (Opcode.LDG, Opcode.STG, Opcode.LDS, Opcode.ATOM)
_HANDOFF = (Opcode.BAR, Opcode.EXIT, Opcode.RET)


# ------------------------------------------------------------ generator

def _program(rng: random.Random):
    """Static code: address slot -> opcode (a static instruction has one
    opcode), ending in EXIT."""
    size = rng.randint(6, 24)
    palette = _PLAIN * 3 + _MEMORY * 2 + _HANDOFF
    return [rng.choice(palette) for _ in range(size - 1)] + [Opcode.EXIT]


def _warp_run(rng: random.Random, code, budget: int, base: int):
    """One warp's dynamic path as a generator of record batches; yields
    ``"park"`` after a BAR and returns at its terminal EXIT/RET.  Paths
    branch, fall through partial exits and unwind the divergence stack
    at random; *budget* bounds the length; code and data sit at
    *base*."""
    pc = 0
    while True:
        op = code[pc]
        addr = base + pc * INSTRUCTION_BYTES
        batch = [InstrEvent(ins_addr=addr, opcode=op.value,
                            lanes=rng.randint(0, 32), width=4)]
        if op in _MEMORY and rng.random() < 0.8:
            lines = tuple(base + 32 * rng.randint(0, 2000)
                          for _ in range(rng.randint(0, 8)))
            batch.append(MemEvent(ins_addr=addr, flags=MEM_FLAG_LOAD,
                                  width=4, active_lanes=batch[0].lanes,
                                  line_addresses=lines))
        if op is Opcode.BRA:
            taken = rng.randint(0, 32)
            batch.append(BranchEvent(ins_addr=addr, active=32, taken=taken,
                                     not_taken=32 - taken))
        budget -= 1
        yield batch
        if op is Opcode.BAR:
            yield "park"
        if op in (Opcode.EXIT, Opcode.RET):
            roll = rng.random()
            if budget <= 0 or roll < 0.5 or pc + 1 >= len(code):
                return                           # warp retires
            if roll < 0.75:
                pc += 1                          # survivors fall through
            else:
                pc = rng.randrange(len(code))    # stack unwind
            continue
        if op is Opcode.BRA and budget > 0 and rng.random() < 0.5:
            pc = rng.randrange(len(code))
        else:
            pc += 1
        if budget <= 0 or pc >= len(code):
            pc = len(code) - 1                   # run to the final EXIT


def _shape(rng: random.Random, size: int) -> tuple:
    """A 3-D launch dimension of *size* elements, laid out along x, y
    or z, or split over two axes when *size* is even."""
    if size % 2 == 0 and rng.random() < 0.25:
        return (size // 2, 2, 1)
    return rng.choice(((size, 1, 1), (1, size, 1), (1, 1, size)))


def _launch_events(rng: random.Random, index: int, warps: int, ctas: int,
                   base: int = 0):
    """One launch's records under the executor's scheduling contract:
    CTAs in order; warps in index order, each to its next barrier or
    exit; a release when every live warp is parked."""
    threads = (warps - 1) * 32 + rng.randint(1, 32)
    if rng.random() < 0.1:       # a zero-CTA grid: no records at all
        return [LaunchEvent(kernel=f"k{index % 2}",
                            grid=rng.choice(((0, 1, 1), (1, 0, 1),
                                             (2, 1, 0))),
                            block=_shape(rng, threads), launch_index=index),
                KernelEndEvent(warp_instructions=0)]
    code = _program(rng)
    events = [LaunchEvent(kernel=f"k{index % 2}", grid=_shape(rng, ctas),
                          block=_shape(rng, threads), launch_index=index)]
    if rng.random() < 0.2:       # a memory record nothing owns
        events.append(MemEvent(ins_addr=0, flags=MEM_FLAG_LOAD, width=4,
                               active_lanes=1, line_addresses=(64,)))
    count = 0
    for _ in range(ctas):
        runs = [_warp_run(rng, code, rng.randint(1, 12), base)
                for _ in range(warps)]
        live = set(range(warps))
        while live:
            for w in sorted(live):
                for item in runs[w]:
                    if item == "park":
                        break
                    events.extend(item)
                    count += 1
                else:
                    live.discard(w)
    events.append(KernelEndEvent(warp_instructions=count))
    return events


@st.composite
def traces(draw):
    """1-6 launches of mixed grid and block shapes, rebuilt and
    scheduled as one batch, so every launch cut inside a batch is
    checked; some launches have a zero-CTA grid, some traces sit past
    2**63, where the vector decoder hands the frame to the scalar walk,
    and some are cut off before their last kernel-end record."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    base = draw(st.sampled_from((0, 0, 0, 2 ** 63 + 2 ** 40)))
    events = []
    for index in range(draw(st.integers(1, 6))):
        events += _launch_events(rng, index, warps=draw(st.integers(1, 32)),
                                 ctas=draw(st.integers(1, 4)), base=base)
    if draw(st.integers(0, 7)) == 0:
        events.pop()
    return events


# -------------------------------------------------------------- checks

def _assert_streams_equal(launch, builder):
    assert warp_streams(launch) == builder.ctas
    assert launch.instr_count == builder.instr_count
    assert launch.desyncs == builder.desyncs
    assert launch.warp_instructions == builder.warp_instructions
    assert launch.warps_per_cta == builder.warps_per_cta


def _assert_schedules_equal(got, want):
    assert got.cycles == want.cycles
    assert got.busy_cycles == want.busy_cycles
    assert got.issued == want.issued
    assert got.stall_cycles == want.stall_cycles
    assert got.barrier_releases == want.barrier_releases
    assert got.divergent_instrs == want.divergent_instrs
    assert got.bubbles == want.bubbles
    assert got.hotspots == want.hotspots


def _assert_model_matches(model: TimingModel, oracle: OracleTimingModel):
    assert len(model.launches) == len(oracle.launches)
    for launch, builder in zip(model.launches, oracle.launches):
        _assert_streams_equal(launch, builder)
    for policy in POLICIES:
        report = model.schedule(policy)
        for timing, builder in zip(report.launches, oracle.launches):
            want = oracle_schedule_launch(builder.ctas,
                                          SchedulerConfig(policy=policy))
            _assert_schedules_equal(timing.schedule, want)
            assert timing.spans == oracle_spans(builder)
            assert timing.ctas == len(builder.ctas)
            assert timing.instructions == builder.instr_count


def _oracle_warp_hits(events, warp: int):
    """Events the pre-columnar ``--warp`` tagger returned for *warp*:
    each instruction tagged with the oracle builder's warp ordinal, its
    attachments inheriting the tag."""
    hits = []
    builder = None
    pending = None          # (instr, [attachments])

    def flush(next_addr):
        nonlocal pending
        if pending is not None:
            instr, attached = pending
            ordinal = builder.warp_ordinal()
            builder.add(WarpInstr(addr=instr.ins_addr,
                                  opcode=Opcode(instr.opcode),
                                  lanes=instr.lanes), next_addr)
            if ordinal == warp:
                hits.extend([instr] + attached)
        pending = None

    for event in events:
        if isinstance(event, InstrEvent):
            flush(event.ins_addr)
            pending = (event, [])
        elif isinstance(event, (LaunchEvent, KernelEndEvent)):
            flush(None)
            if isinstance(event, LaunchEvent):
                builder = OracleLaunchBuilder(event)
        elif pending is not None:
            pending[1].append(event)
    flush(None)
    return hits


# --------------------------------------------------------------- tests

@settings(max_examples=40, deadline=None)
@given(events=traces(), warp=st.integers(0, 5))
def test_columnar_timing_equals_oracle(events, warp):
    oracle = OracleTimingModel()
    oracle.feed_batch(events)
    oracle.finish()

    live = TimingModel()                  # the event feed (live capture)
    live.feed_batch(events)
    live.finish()
    _assert_model_matches(live, oracle)

    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "t.rptrace")
        with TraceWriter(path) as writer:
            for event in events:
                writer.write(event)
        for policy in POLICIES:           # the decoded-frame feed
            (analysis,) = replay(path, [TimingAnalysis(policy=policy)])
            analysis.result()             # closes a cut-off launch
            _assert_model_matches(analysis.model, oracle)
        want = _oracle_warp_hits(events, warp)
        hits, _ = run_query(path, QueryFilter(warp=warp))
        assert [hit.event for hit in hits] == want
        os.remove(index_path_for(path))   # the full-scan tagger
        hits, stats = run_query(path, QueryFilter(warp=warp))
        assert [hit.event for hit in hits] == want
        assert not stats.used_index


@pytest.mark.parametrize("grid", [(0, 1, 1), (3, 1, 1)])
@pytest.mark.parametrize("closed", [True, False])
def test_launch_without_instructions_times_to_zero(grid, closed):
    """A launch that records no instruction (a zero-CTA grid runs none)
    is a 0-cycle, 0-CTA launch — live, replayed, and in the oracle —
    whether its kernel-end record closes it or ``finish`` does."""
    events = [LaunchEvent(kernel="empty", grid=grid, block=(64, 1, 1),
                          launch_index=0)]
    if closed:
        events.append(KernelEndEvent(warp_instructions=0))
    oracle = OracleTimingModel()
    oracle.feed_batch(events)
    oracle.finish()
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "t.rptrace")
        live = TimingModel()
        tee = TeeWriter(TraceWriter(path), live)
        tee.write_batch(events)
        tee.close()
        _assert_model_matches(live, oracle)
        for policy in POLICIES:
            (analysis,) = replay(path, [TimingAnalysis(policy=policy)])
            result = analysis.result()
            _assert_model_matches(analysis.model, oracle)
            (timing,) = analysis.model.schedule(policy).launches
            assert (timing.cycles, timing.ctas, timing.instructions) == \
                (0, 0, 0)
            assert result["total_cycles"] == 0
            assert render_summary(analysis.model.schedule(policy)) == \
                render_summary(live.schedule(policy))


@st.composite
def stream_sets(draw):
    """Object-built CTAs over one static program, with cache outcomes
    drawn directly (the scheduler adapter's input)."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    code = _program(rng)
    ctas = []
    for _ in range(draw(st.integers(1, 3))):
        streams = []
        for w in range(draw(st.integers(1, 6))):
            instrs = []
            for _ in range(rng.randint(0, 14)):
                slot = rng.randrange(len(code))
                instr = WarpInstr(addr=slot * INSTRUCTION_BYTES,
                                  opcode=code[slot],
                                  lanes=rng.randint(0, 32),
                                  divergent=rng.random() < 0.3)
                if code[slot] in _MEMORY:
                    instr.transactions = rng.randint(0, 8)
                    instr.l1_misses = rng.randint(0, instr.transactions)
                    instr.l2_misses = rng.randint(0, instr.l1_misses)
                instrs.append(instr)
            streams.append(WarpStream(warp=w, instrs=instrs))
        ctas.append(streams)
    return ctas


@settings(max_examples=60, deadline=None)
@given(ctas=stream_sets(), policy=st.sampled_from(POLICIES),
       slots=st.integers(1, 6), dep=st.integers(1, 4))
def test_schedule_launch_adapter_equals_oracle(ctas, policy, slots, dep):
    config = SchedulerConfig(policy=policy, scoreboard_slots=slots,
                             dep_distance=dep)
    _assert_schedules_equal(schedule_launch(ctas, config),
                            oracle_schedule_launch(ctas, config))
    for streams in ctas:
        for stream in streams:
            assert divergence_spans(stream) == \
                oracle_divergence_spans(stream)


def test_generator_covers_every_handoff_kind():
    """The drawn launches really contain barrier passes, fall-through
    exits, unwinds and RET — the paths the differential is about."""
    rng = random.Random(7)
    seen = set()
    for index in range(40):
        events = _launch_events(rng, index, warps=rng.randint(1, 8),
                                ctas=rng.randint(1, 4))
        instrs = [e for e in events if isinstance(e, InstrEvent)]
        for here, nxt in zip(instrs, instrs[1:]):
            op = Opcode(here.opcode)
            if op is Opcode.BAR:
                seen.add("bar")
            elif op in (Opcode.EXIT, Opcode.RET):
                seen.add(op.name)
                if nxt.ins_addr == here.ins_addr + INSTRUCTION_BYTES:
                    seen.add("fall-through")
                elif nxt.ins_addr != 0:
                    seen.add("unwind-or-resume")
        model = OracleTimingModel()
        model.feed_batch(events)
        model.finish()
        if any(b.num_ctas > 1 and len(b.ctas) > 1 for b in model.launches):
            seen.add("multi-cta")
    assert seen >= {"bar", "EXIT", "RET", "fall-through",
                    "unwind-or-resume", "multi-cta"}
