"""Per-lane handler bodies and context reads, kept as test oracles.

The stock handlers reduce each site with warp-wide array operations
over the active-lane indices, and their contexts read parameter rows
with one gather over the CTA's local block.  The oracles here walk the
lanes one at a time instead: each subclass overrides ``handler`` with
the per-lane body, :class:`PerLaneContext` folds ``ballot`` lane by
lane, and :func:`per_lane_contexts` makes every context and parameter
view built inside the block read its rows through ``Memory.read`` per
lane.  The instrumented differential suites assert the stock path is
identical to these.  Nothing here is imported by ``src/``.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

import repro.sassi.handlers as handlers_mod
from repro.handlers.branch_profiler import (ACTIVE, DIVERGENT, NOT_TAKEN,
                                            TAKEN, TOTAL, BranchProfiler)
from repro.handlers.memory_divergence import MemoryDivergenceProfiler
from repro.handlers.memtrace import MemoryTracer
from repro.handlers.opcode_histogram import OpcodeHistogram
from repro.handlers.value_profiler import (NUM_DSTS, WEIGHT,
                                           ValueProfiler, _dst_slot)
from repro.isa.program import INSTRUCTION_BYTES
from repro.sassi.handlers import SASSIContext
from repro.sassi.params import _View
from repro.sim.coalescer import OFFSET_BITS
from repro.sim.memory import is_global
from repro.sim.warp import WARP_SIZE
from repro.trace.capture import TraceRecorder
from repro.trace.format import (BranchEvent, InstrEvent, MEM_FLAG_ATOMIC,
                                MEM_FLAG_LOAD, MEM_FLAG_STORE, MemEvent)


class PerLaneContext(SASSIContext):
    """``ballot`` and ``active_mask`` folded one active lane at a time."""

    def ballot(self, values) -> int:
        values = np.asarray(values)
        result = 0
        for lane in np.nonzero(self.mask)[0]:
            if values[lane] if values.shape else values:
                result |= 1 << int(lane)
        return result

    def active_mask(self) -> int:
        return self.ballot(np.ones(len(self.mask), dtype=bool))


def _read_row_per_lane(view, offset: int, width: int, dtype) -> np.ndarray:
    row = np.zeros(WARP_SIZE, dtype=dtype)
    for lane in view._lanes:
        row[lane] = view._read_lane(lane, offset, width)
    return row


@contextlib.contextmanager
def per_lane_contexts():
    """Build every handler context inside the block as a
    :class:`PerLaneContext` whose parameter views read rows lane by
    lane."""
    with mock.patch.object(handlers_mod, "SASSIContext", PerLaneContext), \
            mock.patch.object(_View, "_read_row_uncached",
                              _read_row_per_lane):
        yield


def _mem_event(ctx, ins_addr: int, global_only: bool, heap_bytes: int):
    """The memory event of one site, built lane by lane: the lane
    filter, then each lane's line kept the first time it is seen."""
    will_execute = ctx.bp.GetInstrWillExecute()
    mp = ctx.mp
    addresses = mp.GetAddress()
    lanes = [lane for lane in ctx.lanes() if will_execute[lane]]
    if global_only:
        lanes = [lane for lane in lanes
                 if is_global(int(addresses[lane]), heap_bytes)]
    if not lanes:
        return None
    lines = []
    seen = set()
    for lane in lanes:
        line = (int(addresses[lane]) >> OFFSET_BITS) << OFFSET_BITS
        if line not in seen:
            seen.add(line)
            lines.append(line)
    flags = 0
    if mp.IsLoad():
        flags |= MEM_FLAG_LOAD
    if mp.IsStore():
        flags |= MEM_FLAG_STORE
    if mp.IsAtomic():
        flags |= MEM_FLAG_ATOMIC
    return MemEvent(ins_addr=ins_addr, flags=flags, width=mp.GetWidth(),
                    active_lanes=len(lanes), line_addresses=tuple(lines))


class BranchProfilerOracle(BranchProfiler):
    def handler(self, ctx) -> None:
        if ctx.brp is None:
            return
        direction = ctx.brp.GetDirection()
        active = ctx.mask
        taken = direction & active
        not_taken = ~direction & active
        num_active = int(active.sum())
        num_taken = int(taken.sum())
        num_not_taken = int(not_taken.sum())
        w = ctx.sample_rate
        counters = self.table.find(ctx, ctx.bp.GetInsAddr())
        ctx.atomic_add(self.table.counter_ptr(counters, TOTAL), w)
        ctx.atomic_add(self.table.counter_ptr(counters, ACTIVE),
                       num_active * w)
        ctx.atomic_add(self.table.counter_ptr(counters, TAKEN),
                       num_taken * w)
        ctx.atomic_add(self.table.counter_ptr(counters, NOT_TAKEN),
                       num_not_taken * w)
        if num_taken != num_active and num_not_taken != num_active:
            ctx.atomic_add(self.table.counter_ptr(counters, DIVERGENT), w)


class MemoryDivergenceOracle(MemoryDivergenceProfiler):
    def handler(self, ctx) -> None:
        if ctx.mp is None:
            return
        will_execute = ctx.bp.GetInstrWillExecute()
        addresses = ctx.mp.GetAddress()
        participating = [
            lane for lane in ctx.lanes()
            if will_execute[lane] and is_global(int(addresses[lane]),
                                                self.device.heap_bytes)
        ]
        if not participating:
            return
        lines = {int(addresses[lane]) >> OFFSET_BITS
                 for lane in participating}
        num_active = len(participating)
        unique = len(lines)
        index = (num_active - 1) * 32 + min(unique, 32) - 1
        ctx.atomic_add(self.counters.element_ptr(index), ctx.sample_rate)


class OpcodeHistogramOracle(OpcodeHistogram):
    def handler(self, ctx) -> None:
        threads = len(ctx.lanes()) * ctx.sample_rate
        bp, mp = ctx.bp, ctx.mp
        if bp.IsMem():
            ctx.atomic_add(self.counters.element_ptr(0), threads)
            if mp is not None and mp.GetWidth() > 4:
                ctx.atomic_add(self.counters.element_ptr(1), threads)
        if bp.IsControlXfer():
            ctx.atomic_add(self.counters.element_ptr(2), threads)
        if bp.IsSync():
            ctx.atomic_add(self.counters.element_ptr(3), threads)
        if bp.IsNumeric():
            ctx.atomic_add(self.counters.element_ptr(4), threads)
        if bp.IsTexture():
            ctx.atomic_add(self.counters.element_ptr(5), threads)
        ctx.atomic_add(self.counters.element_ptr(6), threads)


class ValueProfilerOracle(ValueProfiler):
    def handler(self, ctx) -> None:
        if ctx.rp is None:
            return
        num_dsts = ctx.rp.GetNumGPRDsts()
        if num_dsts == 0:
            return
        counters = self.table.find(ctx, ctx.bp.GetInsAddr())

        def ptr(index):
            return self.table.counter_ptr(counters, index)

        if ctx.read_device(ptr(WEIGHT), 8) == 0:
            ctx.write_device(ptr(NUM_DSTS), num_dsts, 8)
            for dst in range(num_dsts):
                ctx.write_device(ptr(_dst_slot(dst, 1)), 0xFFFFFFFF, 8)
                ctx.write_device(ptr(_dst_slot(dst, 2)), 0xFFFFFFFF, 8)
                ctx.write_device(ptr(_dst_slot(dst, 3)), 1, 8)
        ctx.atomic_add(ptr(WEIGHT), ctx.sample_rate)
        lanes = ctx.lanes()
        leader = ctx.leader()
        for dst in range(num_dsts):
            values = ctx.rp.GetRegValue(dst)
            ctx.write_device(ptr(_dst_slot(dst, 0)),
                             ctx.rp.GetRegNum(dst), 8)
            combined_ones = combined_zeros = 0xFFFFFFFF
            for lane in lanes:
                value = int(values[lane])
                combined_ones &= value
                combined_zeros &= ~value & 0xFFFFFFFF
            ctx.atomic_and(ptr(_dst_slot(dst, 1)), combined_ones, width=8)
            ctx.atomic_and(ptr(_dst_slot(dst, 2)), combined_zeros, width=8)
            leader_value = int(values[leader])
            all_same = all(int(values[lane]) == leader_value
                           for lane in lanes)
            if not all_same:
                ctx.atomic_and(ptr(_dst_slot(dst, 3)), 0, width=8)


class MemoryTracerOracle(MemoryTracer):
    def handler(self, ctx) -> None:
        if ctx.mp is None:
            return
        event = _mem_event(ctx, ctx.bp.GetInsAddr(), self.global_only,
                           self.device.heap_bytes)
        if event is None:
            return
        self.weighted_events += ctx.sample_rate
        self._writer.write(event)


class TraceRecorderOracle(TraceRecorder):
    """Writes each event on its own, in stream order."""

    def handler(self, ctx) -> None:
        write = self.writer.write
        bp = ctx.bp
        ins_addr = bp.GetFnAddr() + bp.GetID() * INSTRUCTION_BYTES
        mp = ctx.mp
        write(InstrEvent(ins_addr=ins_addr,
                         opcode=bp.GetOpcode().value,
                         lanes=len(ctx.lanes()),
                         width=mp.GetWidth() if mp is not None else 0))
        if mp is not None:
            event = _mem_event(ctx, ins_addr, self.global_only,
                               self.device.heap_bytes)
            if event is not None:
                write(event)
        brp = ctx.brp
        if brp is not None:
            direction = brp.GetDirection()
            active = ctx.mask
            taken = int((direction & active).sum())
            write(BranchEvent(ins_addr=ins_addr,
                              active=int(active.sum()),
                              taken=taken,
                              not_taken=int((~direction & active).sum())))
