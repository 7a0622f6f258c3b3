"""Differential testing of the whole stack: random structured programs
are built with the KernelBuilder, compiled through the backend, executed
on the simulator, and compared against a host Python interpreter of the
same program — with and without SASSI instrumentation.

This exercises the interactions hardest to unit-test: divergence-stack
mechanics for arbitrary nests of ifs/loops/breaks, register allocation
under pressure, and instrumentation transparency at every site class.
The same programs fuzz trace replay: timed live while captured, then
timed again from the written trace, and every other replay analysis
checked against the live profiler it replaces — each pair must agree
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import ptxas
from repro.handlers import (
    BranchProfiler,
    MemoryDivergenceProfiler,
    MemoryTracer,
    OpcodeHistogram,
)
from repro.kernelir import KernelBuilder, Type
from repro.kernelir.types import PTR
from repro.sassi import SassiRuntime, spec_from_flags
from repro.sim import Device, Dim3
from repro.sim.cache import Cache
from repro.trace.capture import TraceRecorder
from repro.trace.io import TraceWriter
from repro.trace.replay import (
    CacheSimAnalysis,
    DivergenceAnalysis,
    MemoryDivergenceAnalysis,
    OpcodeHistogramAnalysis,
    replay,
)
from repro.trace.timing import (
    TeeWriter,
    TimingAnalysis,
    TimingModel,
    render_summary,
)

# ---------------------------------------------------------------------
# A tiny program AST: statements mutate an accumulator per thread.
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class OpStmt:
    op: str          # add / sub / mul / xor
    operand: str     # "tid" / "acc" / literal int (as str)


@dataclass(frozen=True)
class IfStmt:
    cmp: str         # lt / ge / eq
    threshold: int   # compared against (acc & 0xff)
    body: Tuple
    orelse: Tuple


@dataclass(frozen=True)
class LoopStmt:
    trips: int           # 1..4 static, or -1 for data-dependent (tid & 3)
    break_when: int      # break when loop index equals this (or -1)
    body: Tuple


Stmt = Union[OpStmt, IfStmt, LoopStmt]

_ops = st.sampled_from(["add", "sub", "mul", "xor"])
_operands = st.one_of(st.just("tid"), st.just("acc"),
                      st.integers(-7, 7).map(str))
_op_stmts = st.builds(OpStmt, _ops, _operands)


def _stmts(depth: int):
    if depth == 0:
        return st.lists(_op_stmts, min_size=1, max_size=3).map(tuple)
    sub = _stmts(depth - 1)
    if_stmts = st.builds(IfStmt, st.sampled_from(["lt", "ge", "eq"]),
                         st.integers(0, 255), sub,
                         st.one_of(st.just(()), sub))
    loop_stmts = st.builds(LoopStmt,
                           st.sampled_from([1, 2, 3, -1]),
                           st.sampled_from([-1, -1, 0, 1]),
                           sub)
    return st.lists(st.one_of(_op_stmts, if_stmts, loop_stmts),
                    min_size=1, max_size=3).map(tuple)


programs = _stmts(2)

# ---------------------------------------------------------------------
# Host interpreter
# ---------------------------------------------------------------------


def _mask32(x: int) -> int:
    x &= 0xFFFFFFFF
    return x - (1 << 32) if x & (1 << 31) else x


def interpret(program: Tuple, tid: int) -> int:
    acc = tid

    def value_of(token: str) -> int:
        if token == "tid":
            return tid
        if token == "acc":
            return acc
        return int(token)

    def run_block(block: Tuple) -> bool:
        """Returns True if a break escaped this block."""
        nonlocal acc
        for stmt in block:
            if isinstance(stmt, OpStmt):
                operand = value_of(stmt.operand)
                if stmt.op == "add":
                    acc = _mask32(acc + operand)
                elif stmt.op == "sub":
                    acc = _mask32(acc - operand)
                elif stmt.op == "mul":
                    acc = _mask32(acc * operand)
                else:
                    acc = _mask32(acc ^ operand)
            elif isinstance(stmt, IfStmt):
                low = acc & 0xFF
                taken = {"lt": low < stmt.threshold,
                         "ge": low >= stmt.threshold,
                         "eq": low == stmt.threshold}[stmt.cmp]
                if run_block(stmt.body if taken else stmt.orelse):
                    return True
            else:
                trips = stmt.trips if stmt.trips >= 0 else (tid & 3)
                for k in range(trips):
                    if k == stmt.break_when:
                        break
                    if run_block(stmt.body):
                        break
        return False

    run_block(program)
    return acc


# ---------------------------------------------------------------------
# Kernel generator
# ---------------------------------------------------------------------


def build_ir(program: Tuple):
    b = KernelBuilder("randprog", [("out", PTR)])
    tid = b.cvt(b.global_index_x(), Type.S32)
    acc = b.var(tid, Type.S32)

    def value_of(token: str):
        return tid if token == "tid" else acc if token == "acc" \
            else int(token)

    def emit_block(block: Tuple) -> None:
        for stmt in block:
            if isinstance(stmt, OpStmt):
                operand = value_of(stmt.operand)
                emit = {"add": b.add, "sub": b.sub, "mul": b.mul,
                        "xor": b.xor}[stmt.op]
                b.assign(acc, emit(acc, operand))
            elif isinstance(stmt, IfStmt):
                cond = {"lt": b.lt, "ge": b.ge, "eq": b.eq}[stmt.cmp](
                    b.and_(acc, 0xFF), stmt.threshold)
                branch = b.if_(cond)
                with branch:
                    emit_block(stmt.body)
                if stmt.orelse:
                    with branch.else_():
                        emit_block(stmt.orelse)
            else:
                trips = stmt.trips if stmt.trips >= 0 \
                    else b.cvt(b.and_(b.cvt(tid, Type.U32), 3), Type.S32)
                with b.for_range(0, trips) as k:
                    if stmt.break_when >= 0:
                        with b.if_(b.eq(k, stmt.break_when)):
                            b.break_()
                    emit_block(stmt.body)

    emit_block(program)
    b.store(b.gep(b.param("out"), b.global_index_x(), 4), acc)
    return b.finish()


def run_on_device(kernel, n=64) -> np.ndarray:
    device = Device()
    out = device.alloc(n * 4)
    device.launch(kernel, Dim3(2), Dim3(32), [out])
    return device.read_array(out, n, np.int32)


@settings(max_examples=40, deadline=None)
@given(programs)
def test_random_program_matches_interpreter(program):
    kernel = ptxas(build_ir(program))
    got = run_on_device(kernel)
    expected = np.array([interpret(program, t) for t in range(64)],
                        dtype=np.int64)
    expected = (expected & 0xFFFFFFFF).astype(np.uint32).view(np.int32)
    assert (got == expected).all()


@settings(max_examples=15, deadline=None)
@given(programs)
def test_random_program_unchanged_under_instrumentation(program):
    device = Device()
    runtime = SassiRuntime(device)   # with caller-saved poisoning
    runtime.register_before_handler(lambda ctx: None)
    runtime.register_after_handler(lambda ctx: None)
    spec = spec_from_flags(
        "-sassi-inst-before=all -sassi-inst-after=reg-writes "
        "-sassi-before-args=mem-info,cond-branch-info "
        "-sassi-after-args=reg-info")
    kernel = runtime.compile(build_ir(program), spec)
    out = device.alloc(64 * 4)
    device.launch(kernel, Dim3(2), Dim3(32), [out])
    got = device.read_array(out, 64, np.int32)
    expected = np.array([interpret(program, t) for t in range(64)],
                        dtype=np.int64)
    expected = (expected & 0xFFFFFFFF).astype(np.uint32).view(np.int32)
    assert (got == expected).all()


@pytest.mark.noskip
@settings(max_examples=12, deadline=None)
@given(program=programs)
def test_random_program_timing_live_equals_replay(program, tmp_path_factory):
    """Capture through ``TeeWriter`` (the live model is fed event by
    event), replay the written trace through the columnar frame path:
    result() and the rendered summary match under both policies."""
    path = str(tmp_path_factory.mktemp("fuzz") / "t.rptrace")
    live = TimingModel()
    device = Device()
    recorder = TraceRecorder(device, TeeWriter(TraceWriter(path), live))
    kernel = recorder.compile(build_ir(program))
    out = device.alloc(128 * 4)
    device.launch(kernel, Dim3(2), Dim3(64), [out])
    recorder.writer.close()
    for policy in ("gto", "lrr"):
        (replayed,) = replay(path, [TimingAnalysis(policy=policy)])
        timed = TimingAnalysis(policy=policy)
        timed.model = live
        assert replayed.result() == timed.result()
        assert render_summary(replayed.model.schedule(policy)) == \
            render_summary(live.schedule(policy))
        assert replayed.result()["launches"][0]["issued"] > 0


def _launch_profiled(program, profiler):
    """Run *program* once under *profiler* (2 CTAs x 64 threads)."""
    device = profiler.device
    kernel = profiler.compile(build_ir(program))
    out = device.alloc(128 * 4)
    device.launch(kernel, Dim3(2), Dim3(64), [out])
    return profiler


@pytest.mark.noskip
@settings(max_examples=10, deadline=None)
@given(program=programs)
def test_random_program_analyses_live_equal_replay(program,
                                                   tmp_path_factory):
    """Capture, then replay ``cachesim``/``divergence``/``memdiv``/
    ``opcodes``; each equals its live profiler run on the same program:
    ``MemoryTracer`` driving the same ``Cache`` pair, ``BranchProfiler``,
    ``MemoryDivergenceProfiler`` and ``OpcodeHistogram``."""
    path = str(tmp_path_factory.mktemp("fuzz") / "a.rptrace")
    device = Device()
    with TraceWriter(path) as writer:
        _launch_profiled(program, TraceRecorder(device, writer))
    cachesim, divergence, memdiv, opcodes = replay(path, [
        CacheSimAnalysis(), DivergenceAnalysis(),
        MemoryDivergenceAnalysis(), OpcodeHistogramAnalysis()])

    tracer = _launch_profiled(program, MemoryTracer(Device()))
    l2 = Cache(256 << 10, ways=16, name="L2")
    l1 = Cache(16 << 10, ways=4, name="L1", next_level=l2)
    tracer.replay_through(l1)
    tracer.close()
    for live, replayed in ((l1, cachesim.l1), (l2, cachesim.l2)):
        assert (live.stats.accesses, live.stats.hits, live.stats.misses,
                live.stats.evictions) == \
            (replayed.stats.accesses, replayed.stats.hits,
             replayed.stats.misses, replayed.stats.evictions)
    assert cachesim.l1.stats.accesses > 0

    branches = _launch_profiled(program, BranchProfiler(Device()))
    assert divergence.summary() == branches.summary()

    # per-branch rows match as a multiset: live addresses are
    # post-injection, the trace records the original layout
    def rows(stats):
        return sorted((b.total, b.active_threads, b.taken_threads,
                       b.not_taken_threads, b.divergent) for b in stats)

    assert rows(divergence.branches()) == rows(branches.branches())

    live_memdiv = _launch_profiled(program,
                                   MemoryDivergenceProfiler(Device()))
    assert (memdiv.matrix() == live_memdiv.matrix()).all()

    live_opcodes = _launch_profiled(program, OpcodeHistogram(Device()))
    assert opcodes.totals() == live_opcodes.totals()
    assert opcodes.totals()["total_executed"] > 0
