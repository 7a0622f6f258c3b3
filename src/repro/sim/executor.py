"""The functional SIMT executor.

Executes one CTA at a time; within a CTA, warps run round-robin with a
run-to-barrier policy.  Lanes are numpy-vectorized: the register file is a
``(num_regs, 32)`` uint32 array per warp and ALU ops operate on whole
rows under the instruction's guard mask.

The executor is also where SASSI handler calls land: a ``JCAL`` whose
target lies in the handler address range (``SassProgram.HANDLER_BASE``)
invokes the binding registered with the device (see
:mod:`repro.sassi.handlers`) instead of transferring control — the
moral equivalent of the linker resolving ``sassi_before_handler`` in the
paper's Figure 1 flow.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.isa.instruction import (
    ConstRef,
    Imm,
    Instruction,
    LabelRef,
    MemRef,
    MemSpace,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import SassKernel, SassProgram
from repro.isa.registers import GPR, SpecialReg
from repro.sim.cache import Cache
from repro.sim.coalescer import coalesce
from repro.sim.costmodel import CycleCounter, block_issue_cycles
from repro.sim.errors import DeviceFault, HangDetected
from repro.sim.memory import (
    GLOBAL_BASE,
    LOCAL_BASE,
    SHARED_BASE,
    SHARED_BYTES,
    Memory,
)
from repro.sim.warp import WARP_SIZE, Warp, mask_to_u32
from repro.telemetry.classify import (
    OPCLASS_KEY,
    block_dispatch_counts,
    sassi_key,
)
from repro.telemetry.collector import TELEMETRY, Telemetry

#: Physical bytes of local memory actually backed per thread (the
#: addressing window is larger; see repro.sim.memory).
LOCAL_PHYS_BYTES = 4 << 10


@dataclass
class KernelStats:
    """Statistics for one kernel launch."""

    kernel: str = ""
    warp_instructions: int = 0
    thread_instructions: int = 0
    #: instructions injected by SASSI (tag == "sassi"), for overhead math
    sassi_warp_instructions: int = 0
    sassi_thread_instructions: int = 0
    opcode_counts: Counter = field(default_factory=Counter)
    global_mem_instructions: int = 0
    global_transactions: int = 0
    handler_calls: int = 0
    barriers: int = 0
    cycles: int = 0
    max_stack_depth: int = 0

    @property
    def baseline_warp_instructions(self) -> int:
        return self.warp_instructions - self.sassi_warp_instructions


@dataclass
class SimConfig:
    """Executor knobs."""

    enable_caches: bool = False
    #: watchdog: abort the launch after this many warp instructions.
    max_warp_instructions: int = 200_000_000
    #: fast path: execute straight-line superblocks with batched
    #: stats/telemetry accumulation (see ``_Superblock``).  Disable to
    #: force per-instruction dispatch — semantics and statistics are
    #: identical either way (the fast-path differential suite enforces
    #: this bit-exactly).
    fuse_blocks: bool = True
    #: fast path: serve single-space warp memory accesses with one
    #: vectorized gather/scatter instead of a per-lane loop.  Mixed-space
    #: generic accesses and faulting accesses always take the scalar
    #: path regardless.
    vector_memory: bool = True
    #: fast path: execute whole SASSI call sequences (spills, param
    #: marshaling, JCAL, restores) as one precompiled array-op plan per
    #: site (see ``repro.sassi.abi.SiteSequencePlan``), letting fused
    #: dispatch flow *through* instrumented sites instead of falling to
    #: per-instruction execution at every JCAL.  Disable to keep sites
    #: on the per-instruction path — the scalar reference the
    #: instrumented differential suite compares against bit-exactly.
    fuse_handler_calls: bool = True


class CTAContext:
    """Per-CTA execution context shared by its warps.

    Thread-local memories are rows of one CTA-wide byte block so that
    warp-uniform local accesses (the common case: SASSI's spill/param
    traffic always uses the same stack offset across the warp) can be
    served with one vectorized gather/scatter.
    """

    def __init__(self, ctaid: Tuple[int, int, int], shared_bytes: int,
                 num_threads: int = 1024):
        self.ctaid = ctaid
        self.shared = Memory(max(shared_bytes, SHARED_BYTES), name="shared")
        self.num_threads = num_threads
        self._local_block: Optional[np.ndarray] = None
        self._local_views: Dict[int, Memory] = {}

    def local_block(self) -> np.ndarray:
        if self._local_block is None:
            self._local_block = np.zeros(
                (self.num_threads, LOCAL_PHYS_BYTES), dtype=np.uint8)
        return self._local_block

    def local_mem(self, tid: int) -> Memory:
        mem = self._local_views.get(tid)
        if mem is None:
            mem = Memory.__new__(Memory)
            mem.size = LOCAL_PHYS_BYTES
            mem.name = f"local[t{tid}]"
            mem.data = self.local_block()[tid]
            self._local_views[tid] = mem
        return mem


class Executor:
    """Runs kernels on a device."""

    def __init__(self, device, config: Optional[SimConfig] = None):
        self.device = device
        self.config = config or SimConfig()
        self.l1: Optional[Cache] = None
        if self.config.enable_caches:
            from repro.sim.cache import kepler_hierarchy

            self.l1 = kepler_hierarchy()
        self.stats = KernelStats()
        self._watchdog = 0
        self._kernel: Optional[SassKernel] = None
        self._decoded: Optional[_DecodedKernel] = None
        self._targets: List[Optional[int]] = []
        self._cta: Optional[CTAContext] = None
        #: (bank, offset) -> uint32; const banks are immutable during a
        #: launch, so reads are memoized and flushed at each run().
        self._const_cache: dict = {}
        #: active-lane indices of the guard mask currently being
        #: dispatched — computed once per instruction (or once per fused
        #: block) and consumed by the scalar per-lane memory loops.
        self._active_lanes: Optional[np.ndarray] = None
        #: sampling weight of the site currently firing (1 = exact);
        #: handler contexts read it so sampled counters can be scaled
        #: into unbiased estimates.
        self._sample_rate: int = 1
        #: the device's AdaptiveController, if one is installed
        #: (``repro.sassi.runtime``); gates compiled site plans.
        self._adaptive = getattr(device, "adaptive", None)
        #: completed visits per fused unit (superblock or site plan);
        #: their opcode histograms are folded into the launch's stats
        #: once, when the launch ends or aborts (``_fold_visits``).
        self._visits: Dict[object, int] = {}
        #: the site plan whose handler is being called, if any — lets
        #: the handler runtime read the site's static parameter fields
        #: from the plan instead of local memory.
        self._site_plan = None

    # ------------------------------------------------------------ launch

    def run(self, kernel: SassKernel, grid, block,
            shared_bytes: int = 0) -> KernelStats:
        self.stats = KernelStats(kernel=kernel.name)
        self._watchdog = 0
        self._const_cache.clear()
        self._kernel = kernel
        self._decoded = decode_kernel(kernel)
        self._targets = self._decoded.targets
        self._sample_rate = 1
        self._adaptive = ctrl = getattr(self.device, "adaptive", None)
        if ctrl is not None:
            ctrl.begin_launch(kernel)
        counter = CycleCounter()
        num_threads = block.x * block.y * block.z
        if num_threads == 0 or num_threads > 1024:
            raise DeviceFault(f"bad block size: {num_threads}")
        self._visits.clear()
        try:
            for cz in range(grid.z):
                for cy in range(grid.y):
                    for cx in range(grid.x):
                        self._run_cta((cx, cy, cz), grid, block,
                                      num_threads, shared_bytes, counter)
        finally:
            # an aborted launch's stats are read too (fault campaigns)
            self._fold_visits()
        self.stats.cycles = counter.cycles
        return self.stats

    def _fold_visits(self) -> None:
        """Add each fused unit's opcode histogram, times its completed
        visits, to the launch's ``opcode_counts``."""
        counts = self.stats.opcode_counts
        for unit, visits in self._visits.items():
            for opcode, count in unit.opcode_counts.items():
                counts[opcode] += count * visits
        self._visits.clear()

    def _account_prefix(self, records, lanes: int, pairs: int = 0
                        ) -> None:
        """Stats of the records a fused unit ran before an exception
        left it — the raising record included, as per-instruction
        dispatch counts a record before running it.  Each of *pairs*
        guard-flag pairs touches every lane once between its two
        records."""
        stats = self.stats
        counts = stats.opcode_counts
        for dec in records:
            counts[dec.opcode] += 1
        sassi = sum(1 for dec in records if dec.sassi)
        stats.warp_instructions += len(records)
        stats.thread_instructions += lanes * (len(records) - pairs)
        stats.sassi_warp_instructions += sassi
        stats.sassi_thread_instructions += lanes * (sassi - pairs)

    def _run_cta(self, ctaid, grid, block, num_threads, shared_bytes,
                 counter) -> None:
        kernel = self._kernel
        cta = CTAContext(ctaid, shared_bytes, num_threads=num_threads)
        self._cta = cta
        warps: List[Warp] = []
        num_regs = max(kernel.num_regs, 8)
        for warp_index in range((num_threads + WARP_SIZE - 1) // WARP_SIZE):
            base = warp_index * WARP_SIZE
            lanes = min(WARP_SIZE, num_threads - base)
            tids = np.arange(base, base + WARP_SIZE, dtype=np.int64)
            warp = Warp(warp_index, num_regs, lanes, tids)
            self._init_warp(warp, ctaid, grid, block, num_threads)
            warps.append(warp)
        pending = [w for w in warps]
        while pending:
            progressed = False
            for warp in pending:
                if warp.done or warp.at_barrier:
                    continue
                self._run_warp(warp, cta, counter)
                progressed = True
            pending = [w for w in pending if not w.done]
            if pending and all(w.at_barrier for w in pending):
                for warp in pending:
                    warp.at_barrier = False
                self.stats.barriers += 1
                progressed = True
            if not progressed and pending:
                raise DeviceFault(
                    f"{kernel.name}: deadlock (barrier never satisfied)")
        self._cta = None

    def _init_warp(self, warp, ctaid, grid, block, num_threads) -> None:
        tids = warp.lane_thread_ids
        warp.tid_x = (tids % block.x).astype(np.uint32)
        warp.tid_y = ((tids // block.x) % block.y).astype(np.uint32)
        warp.tid_z = (tids // (block.x * block.y)).astype(np.uint32)
        warp.ctaid = ctaid
        warp.ntid = (block.x, block.y, block.z)
        warp.nctaid = (grid.x, grid.y, grid.z)
        # R1 = ABI stack pointer (top of the thread's local stack).
        warp.regs[1, :] = LOCAL_PHYS_BYTES

    # ------------------------------------------------------------ warps

    def _run_warp(self, warp: Warp, cta: CTAContext, counter) -> None:
        kernel = self._kernel
        decoded = self._decoded
        if decoded is None or decoded.kernel is not kernel:
            # callers (tests) may install ``_kernel`` directly
            decoded = decode_kernel(kernel)
            self._decoded = decoded
            self._targets = decoded.targets
        records = decoded.records
        blocks = decoded.blocks_for(self.config.fuse_handler_calls) \
            if self.config.fuse_blocks else None
        limit = len(records)
        max_warp_instructions = self.config.max_warp_instructions
        execute = self._execute
        execute_block = self._execute_block
        execute_site = self._execute_site
        while not warp.done and not warp.at_barrier:
            pc = warp.pc
            if not (0 <= pc < limit):
                raise DeviceFault(
                    f"{kernel.name}: PC 0x{kernel.pc_of(pc):x} outside "
                    "kernel body")
            if blocks is not None:
                block = blocks[pc]
                if block is not None:
                    if block.__class__ is _Superblock:
                        execute_block(block, warp, cta, counter)
                    else:
                        execute_site(block, warp, cta, counter)
                    continue
            self._watchdog += 1
            if self._watchdog > max_warp_instructions:
                raise HangDetected(
                    f"{kernel.name}: watchdog after {self._watchdog} "
                    "warp instructions")
            execute(records[pc], warp, cta, counter)

    def _execute_block(self, block: "_Superblock", warp: Warp,
                       cta: CTAContext, counter: CycleCounter) -> None:
        """Execute one fused superblock.

        Every record is unconditional straight-line code, so the guard
        of each instruction is the warp's active mask, which nothing in
        the block can change — one uniformity read serves all records.
        Watchdog, stack-depth, and the per-instruction stats/telemetry
        increments collapse to per-block deltas (flushed at block exit);
        the opcode handlers themselves run exactly as on the slow path.
        """
        length = block.length
        self._watchdog += length
        if self._watchdog > self.config.max_warp_instructions:
            raise HangDetected(
                f"{self._kernel.name}: watchdog after {self._watchdog} "
                "warp instructions")
        stats = self.stats
        if warp.stack_depth > stats.max_stack_depth:
            stats.max_stack_depth = warp.stack_depth
        g = warp.active
        g_idx = np.nonzero(g)[0]
        self._active_lanes = g_idx
        lanes = g_idx.size
        try:
            for handler, dec in block.dispatch:
                handler(self, warp, cta, dec, g, counter)
        except BaseException:
            # straight-line handlers advance pc only once they succeed
            self._account_prefix(
                block.records[:warp.pc - block.start + 1], lanes)
            raise
        stats.warp_instructions += length
        stats.thread_instructions += lanes * length
        if block.n_sassi:
            stats.sassi_warp_instructions += block.n_sassi
            stats.sassi_thread_instructions += lanes * block.n_sassi
        visits = self._visits
        visits[block] = visits.get(block, 0) + 1
        counter.cycles += block.issue_cycles
        telem = TELEMETRY
        if telem.enabled:
            if type(telem).record_dispatch is Telemetry.record_dispatch:
                telem.record_block(block.telemetry_counts)
            else:
                # a subclass wants per-site granularity: replay the
                # per-instruction hook (guards are uniform, so
                # lanes == active for every record)
                for _, dec in block.dispatch:
                    telem.record_dispatch(dec, lanes, lanes)

    def _execute_site(self, plan, warp: Warp, cta: CTAContext,
                      counter: CycleCounter) -> None:
        """Execute one instrumentation site as a batched plan.

        The per-instruction interpretation of the injected sequence is
        authoritative: the plan bails (returning None, before touching
        any state) on run-time preconditions it cannot batch — and a
        telemetry subclass observing per-dispatch granularity also
        forces the per-record path, exactly like ``_execute_block``.

        When an :class:`~repro.sassi.runtime.AdaptiveController` is
        installed, it gates every firing first.  Weight 0 skips the
        whole site (the injected sequence is architecturally invisible,
        so jumping ``warp.pc`` over it is exact) — the skipped
        instructions are accounted under the ``sassi.sampled_skipped``
        telemetry counter so overhead attribution still sums.  A weight
        of N > 1 runs the site with ``_sample_rate = N`` so the handler
        context can scale its counters into unbiased estimates.
        """
        ctrl = self._adaptive
        if ctrl is not None:
            weight = ctrl.decide(plan, warp, cta)
            if weight == 0:
                warp.pc = plan.start + plan.length
                telem = TELEMETRY
                if telem.enabled:
                    telem.incr("sassi.sampled_skipped", plan.length)
                return
            if weight != 1 or ctrl.wants_timing:
                timing = ctrl.wants_timing
                t0 = time.perf_counter() if timing else 0.0
                self._sample_rate = weight
                try:
                    self._site_body(plan, warp, cta, counter)
                finally:
                    self._sample_rate = 1
                    if timing:
                        ctrl.observe_fire(time.perf_counter() - t0)
                return
        self._site_body(plan, warp, cta, counter)

    def _site_body(self, plan, warp: Warp, cta: CTAContext,
                   counter: CycleCounter) -> None:
        length = plan.length
        self._watchdog += length
        if self._watchdog > self.config.max_warp_instructions:
            raise HangDetected(
                f"{self._kernel.name}: watchdog after {self._watchdog} "
                "warp instructions")
        stats = self.stats
        if warp.stack_depth > stats.max_stack_depth:
            stats.max_stack_depth = warp.stack_depth
        g = warp.active
        g_idx = np.nonzero(g)[0]
        self._active_lanes = g_idx
        telem = TELEMETRY
        partial = None
        if not telem.enabled \
                or type(telem).record_dispatch is Telemetry.record_dispatch:
            try:
                partial = plan.execute(self, warp, cta, g, g_idx, counter)
            except BaseException:
                if warp.pc == plan.jcal_index:
                    # the handler raised: everything up to its JCAL ran
                    # (guard pairs all precede it)
                    self._account_prefix(
                        plan.records[:plan.jcal_index - plan.start + 1],
                        g_idx.size, plan.n_pairs)
                raise
        if partial is None:
            end = plan.start + length
            records = plan.records
            start = plan.start
            execute = self._execute
            while warp.pc < end and not warp.done and not warp.at_barrier:
                execute(records[warp.pc - start], warp, cta, counter)
            return
        lanes = g_idx.size
        stats.warp_instructions += length
        stats.thread_instructions += lanes * plan.thread_weight
        stats.sassi_warp_instructions += length
        stats.sassi_thread_instructions += lanes * plan.thread_weight
        visits = self._visits
        visits[plan] = visits.get(plan, 0) + 1
        counter.cycles += plan.issue_cycles
        if telem.enabled:
            telem.record_block(plan.telemetry_counts)
            if partial:
                telem.incr("divergence.partial_dispatch", partial)

    def step(self, warp: Warp, cta: CTAContext, instr: Instruction,
             counter: CycleCounter) -> None:
        """Execute one instruction for one warp.

        Accepts a raw :class:`Instruction` (decoded on the fly) or a
        predecoded record from the per-kernel cache.
        """
        if not isinstance(instr, _Decoded):
            targets = self._targets
            target = targets[warp.pc] \
                if 0 <= warp.pc < len(targets) else None
            instr = _Decoded(instr, target)
        self._execute(instr, warp, cta, counter)

    def _execute(self, dec: "_Decoded", warp: Warp, cta: CTAContext,
                 counter: CycleCounter) -> None:
        stats = self.stats
        stats.warp_instructions += 1
        if dec.uncond:
            g = warp.active
        else:
            g = warp.guard_mask(warp.preds[dec.pred_index], dec.negated)
        g_idx = np.nonzero(g)[0]
        self._active_lanes = g_idx
        lanes = g_idx.size
        stats.thread_instructions += lanes
        stats.opcode_counts[dec.opcode] += 1
        if dec.sassi:
            stats.sassi_warp_instructions += 1
            stats.sassi_thread_instructions += lanes
        counter.issue(dec.opcode)
        if warp.stack_depth > stats.max_stack_depth:
            stats.max_stack_depth = warp.stack_depth
        if TELEMETRY.enabled:
            TELEMETRY.record_dispatch(
                dec, lanes, int(np.count_nonzero(warp.active)))

        handler = dec.handler
        if handler is None:
            raise DeviceFault(f"illegal instruction: {dec.instr!r}")
        handler(self, warp, cta, dec, g, counter)

    # --------------------------------------------------------- operands

    def _read(self, warp: Warp, operand) -> np.ndarray:
        """A 32-bit source operand as a uint32 row (or scalar)."""
        if isinstance(operand, GPR):
            if operand.is_zero:
                return np.uint32(0)
            return warp.regs[operand.index]
        if isinstance(operand, Imm):
            return np.uint32(operand.value & 0xFFFFFFFF)
        if isinstance(operand, ConstRef):
            key = (operand.bank, operand.offset)
            cached = self._const_cache.get(key)
            if cached is None:
                cached = np.uint32(self.device.const_read(operand.bank,
                                                          operand.offset))
                self._const_cache[key] = cached
            return cached
        raise DeviceFault(f"unreadable operand: {operand!r}")

    def _write(self, warp: Warp, operand, value, g: np.ndarray) -> None:
        if not isinstance(operand, GPR):
            raise DeviceFault(f"bad destination: {operand!r}")
        if operand.is_zero:
            return
        if operand.index >= warp.num_regs:
            raise DeviceFault(f"register R{operand.index} out of range")
        row = warp.regs[operand.index]
        if isinstance(value, np.ndarray):
            np.copyto(row, value, where=g, casting="unsafe")
        else:
            row[g] = np.uint32(value)

    # ------------------------------------------------------ memory core

    def _resolve_space(self, warp: Warp, cta: CTAContext, instr: Instruction,
                       addr: int, lane: int) -> Tuple[Memory, int, bool]:
        """Resolve (memory, offset, counts_as_global) for one lane."""
        opcode = instr.opcode
        if opcode in (Opcode.LDG, Opcode.STG, Opcode.ATOM, Opcode.RED,
                      Opcode.TLD):
            return self.device.global_mem, addr - GLOBAL_BASE, True
        if opcode in (Opcode.LDS, Opcode.STS, Opcode.ATOMS):
            return cta.shared, addr, False
        if opcode in (Opcode.LDL, Opcode.STL):
            tid = int(warp.lane_thread_ids[lane])
            return cta.local_mem(tid), addr, False
        if opcode == Opcode.LDC:
            return self.device.const_mem, addr, False
        # generic LD/ST: dispatch by window (local window sits above the
        # global heap, so test it first).
        if addr >= LOCAL_BASE:
            tid = int(warp.lane_thread_ids[lane])
            return cta.local_mem(tid), addr - LOCAL_BASE, False
        if addr >= GLOBAL_BASE:
            return self.device.global_mem, addr - GLOBAL_BASE, True
        if SHARED_BASE <= addr < SHARED_BASE + SHARED_BYTES:
            return cta.shared, addr - SHARED_BASE, False
        raise DeviceFault(f"unmapped generic address 0x{addr:x}")

    def lane_addresses(self, warp: Warp, instr: Instruction) -> np.ndarray:
        """Effective addresses (uint64 row) of a memory instruction."""
        ref = instr.mem_ref
        if ref is None:
            raise DeviceFault(f"memory instruction without operand: {instr!r}")
        base = ref.base
        if base.is_zero:
            lo = np.zeros(WARP_SIZE, dtype=np.uint64)
            return lo + np.uint64(ref.offset & 0xFFFFFFFFFFFFFFFF)
        offset = np.uint64(ref.offset & 0xFFFFFFFFFFFFFFFF)
        if instr.opcode in (Opcode.LDS, Opcode.STS, Opcode.ATOMS,
                            Opcode.LDL, Opcode.STL, Opcode.LDC):
            return warp.regs[base.index].astype(np.uint64) + offset
        lo = warp.regs[base.index].astype(np.uint64)
        hi = warp.regs[base.index + 1].astype(np.uint64) \
            if base.index + 1 < warp.num_regs else np.zeros(
                WARP_SIZE, dtype=np.uint64)
        return (lo | (hi << np.uint64(32))) + offset

    def _account_global(self, addrs, g, width, counter) -> None:
        active = addrs[g]
        if active.size == 0:
            return
        result = coalesce(active, width)
        self.stats.global_mem_instructions += 1
        self.stats.global_transactions += result.unique_lines
        counter.memory_transactions(result.unique_lines)
        if self.l1 is not None:
            l2 = self.l1.next_level
            l2_before = l2.stats.misses if l2 is not None else 0
            l1_misses = self.l1.access_lines(result.line_addresses)
            l2_misses = (l2.stats.misses - l2_before) if l2 is not None else 0
            counter.cache_misses(l1_misses, l2_misses)


# ---------------------------------------------------------------------
# per-kernel decode cache
# ---------------------------------------------------------------------


class _Decoded:
    """One instruction, predecoded.

    Everything the dispatch loop and the opcode handlers would otherwise
    recompute on every dynamic execution is resolved once per kernel:
    the handler function, the guard predicate, the branch target, the
    SASSI provenance flag, and the modifier-derived operand decodings
    (memory width/reference, comparison function, narrow-access
    extension, atomic operation).  The record intentionally mirrors the
    :class:`~repro.isa.instruction.Instruction` attribute surface
    (``opcode``/``dsts``/``srcs``/``mods``/``guard``/``mem_width``/
    ``mem_ref``) so opcode handlers accept either form.
    """

    __slots__ = ("instr", "opcode", "dsts", "srcs", "mods", "guard", "tag",
                 "uncond", "pred_index", "negated", "sassi", "handler",
                 "target", "mem_width", "mem_ref", "cmp_fn", "narrow",
                 "atom_op", "opclass_key", "sassi_key", "jcal_addr")

    def __init__(self, instr: Instruction, target: Optional[int] = None):
        self.instr = instr
        self.opcode = instr.opcode
        self.dsts = instr.dsts
        self.srcs = instr.srcs
        self.mods = instr.mods
        self.guard = instr.guard
        self.tag = instr.tag
        self.uncond = instr.guard.is_unconditional
        self.pred_index = instr.guard.pred.index
        self.negated = instr.guard.negated
        self.sassi = instr.tag == "sassi"
        self.opclass_key = OPCLASS_KEY[instr.opcode]
        self.sassi_key = sassi_key(instr) if self.sassi else None
        self.handler = _DISPATCH.get(instr.opcode)
        self.target = target
        self.mem_width = instr.mem_width
        self.mem_ref = instr.mem_ref
        self.cmp_fn = _CMP_FNS[next(
            (m for m in instr.mods if m in _CMP_FNS), "EQ")]
        self.narrow = next(
            (m for m in instr.mods if m in _SIGNED_EXT), None)
        self.atom_op = next(
            (m for m in instr.mods
             if m in _ATOM_FNS or m in ("MIN", "MAX")), "ADD")
        self.jcal_addr = instr.srcs[0].value & 0xFFFFFFFF \
            if (instr.opcode is Opcode.JCAL and instr.srcs
                and isinstance(instr.srcs[0], Imm)) else None

    def __repr__(self) -> str:
        return repr(self.instr)


#: Opcodes that terminate a superblock: control transfers, divergence
#: stack operations, barriers, SASSI handler calls — everything whose
#: handler may redirect ``pc``, change the active mask, park the warp,
#: or observe mid-block statistics (S2R reads ``SR_CLOCK``).
_BLOCK_TERMINATORS = frozenset({
    Opcode.BRA, Opcode.JCAL, Opcode.CAL, Opcode.RET, Opcode.EXIT,
    Opcode.SSY, Opcode.SYNC, Opcode.PBK, Opcode.BRK, Opcode.BAR,
    Opcode.S2R,
})


def _is_fusable(dec: "_Decoded") -> bool:
    """Whether a record may live inside a fused superblock: straight-line
    (handler always advances ``pc`` by one), unconditional (the block's
    single guard-uniformity test covers it), and a known opcode (illegal
    instructions fault on the slow path with the precise record)."""
    return (dec.handler is not None and dec.uncond
            and dec.opcode not in _BLOCK_TERMINATORS)


class _Superblock:
    """A maximal run of fusable records starting at a block leader.

    Everything the per-instruction dispatch loop accrues incrementally
    is pre-aggregated here: the opcode histogram, the SASSI-injected
    instruction count, the total issue-cycle cost, and the telemetry
    dispatch-counter deltas.  ``dispatch`` pairs each record with its
    handler so the fused loop does two tuple loads per instruction.
    """

    __slots__ = ("start", "length", "records", "dispatch", "opcode_counts",
                 "n_sassi", "issue_cycles", "telemetry_counts")

    def __init__(self, start: int, records: List["_Decoded"]):
        self.start = start
        self.records = records
        self.length = len(records)
        self.dispatch = [(dec.handler, dec) for dec in records]
        counts: Counter = Counter()
        for dec in records:
            counts[dec.opcode] += 1
        self.opcode_counts = dict(counts)
        self.n_sassi = sum(1 for dec in records if dec.sassi)
        self.issue_cycles = block_issue_cycles(
            dec.opcode for dec in records)
        self.telemetry_counts = block_dispatch_counts(records)


def _partition_superblocks(records: List["_Decoded"],
                           targets: List[Optional[int]],
                           fuse_handlers: bool = True):
    """Split *records* into superblocks and (optionally) site plans.

    ``blocks[pc]`` is the dispatch unit *starting* at ``pc`` — a
    :class:`_Superblock`, a ``SiteSequencePlan`` covering a whole SASSI
    call sequence, or None when ``pc`` is not a fused leader.  Branch
    targets always start a new block so a warp can only ever enter a
    block at its head; blocks shorter than two instructions stay on the
    per-instruction path (fusing them would only add overhead).

    With *fuse_handlers*, a first pass compiles every recognizable
    injected call sequence (``IADD R1, R1, -frame`` … ``JCAL`` … stack
    release) into one plan; the superblock pass then flows around the
    plans, so fused dispatch extends through instrumented sites instead
    of degenerating to per-instruction execution at every ``JCAL``.
    """
    limit = len(records)
    leaders = {target for target in targets
               if target is not None and 0 <= target < limit}
    blocks: list = [None] * limit
    covered = bytearray(limit)
    if fuse_handlers:
        from repro.sassi.abi import compile_site_plan

        handler_base = SassProgram.HANDLER_BASE
        pos = 0
        while pos < limit:
            rec = records[pos]
            if rec.sassi and rec.uncond \
                    and rec.opcode in (Opcode.IADD, Opcode.IADD32I):
                plan = compile_site_plan(records, pos, handler_base)
                if plan is not None and not any(
                        pos < leader < pos + plan.length
                        for leader in leaders):
                    blocks[pos] = plan
                    for index in range(pos, pos + plan.length):
                        covered[index] = 1
                    pos += plan.length
                    continue
            pos += 1
    start = 0
    while start < limit:
        if covered[start] or not _is_fusable(records[start]):
            start += 1
            continue
        end = start + 1
        while (end < limit and end not in leaders and not covered[end]
               and _is_fusable(records[end])):
            end += 1
        if end - start >= 2:
            blocks[start] = _Superblock(start, records[start:end])
        start = end

    return blocks


class _DecodedKernel:
    """The decode cache for one kernel: records, branch targets, and the
    superblock/site-plan partitions driving the fused dispatch fast
    path (one partition per ``fuse_handler_calls`` setting, built
    lazily — uninstrumented kernels share a single partition)."""

    __slots__ = ("kernel", "records", "targets", "_partitions")

    def __init__(self, kernel: SassKernel):
        self.kernel = kernel
        targets: List[Optional[int]] = []
        for instr in kernel.instructions:
            target: Optional[int] = None
            for operand in (*instr.srcs, *instr.dsts):
                if isinstance(operand, LabelRef):
                    target = kernel.label_target(operand.name)
            targets.append(target)
        self.targets = targets
        self.records = [_Decoded(instr, target) for instr, target
                        in zip(kernel.instructions, targets)]
        self._partitions: Dict[bool, list] = {}

    def blocks_for(self, fuse_handlers: bool) -> list:
        blocks = self._partitions.get(fuse_handlers)
        if blocks is None:
            blocks = _partition_superblocks(self.records, self.targets,
                                            fuse_handlers)
            self._partitions[fuse_handlers] = blocks
        return blocks

    @property
    def blocks(self) -> list:
        return self.blocks_for(True)


def decode_kernel(kernel: SassKernel) -> _DecodedKernel:
    """Decode *kernel* once and memoize the result on the instance, so
    every subsequent launch (BFS levels, iterative solvers...) skips
    straight to execution."""
    cached = kernel.__dict__.get("_decoded")
    if cached is None:
        cached = _DecodedKernel(kernel)
        object.__setattr__(kernel, "_decoded", cached)
    return cached


# ---------------------------------------------------------------------
# opcode semantics
# ---------------------------------------------------------------------


def _s32(row):
    if isinstance(row, np.ndarray):
        return row.view(np.int32) if row.dtype == np.uint32 \
            else row.astype(np.int32)
    return np.int32(np.uint32(row))


def _f32(row):
    if isinstance(row, np.ndarray):
        return row.view(np.float32)
    return np.uint32(row).view(np.float32) if hasattr(row, "view") \
        else np.frombuffer(np.uint32(row).tobytes(), dtype=np.float32)[0]


def _as_u32(row):
    if isinstance(row, np.ndarray):
        return row
    return np.uint32(row)


def _from_f32(row):
    return np.asarray(row, dtype=np.float32).view(np.uint32)


def _op_mov(ex, warp, cta, instr, g, counter):
    ex._write(warp, instr.dsts[0], _broadcast(ex._read(warp, instr.srcs[0])), g)


def _broadcast(value):
    if isinstance(value, np.ndarray):
        return value
    return np.full(WARP_SIZE, value, dtype=np.uint32)


def _op_sel(ex, warp, cta, instr, g, counter):
    a = _broadcast(ex._read(warp, instr.srcs[0]))
    b = _broadcast(ex._read(warp, instr.srcs[1]))
    pred = instr.srcs[2]
    row = warp.preds[pred.index]
    ex._write(warp, instr.dsts[0], np.where(row, a, b), g)


def _op_s2r(ex, warp, cta, instr, g, counter):
    name = instr.srcs[0].name
    lanes = np.arange(WARP_SIZE, dtype=np.uint32)
    table = {
        "SR_TID.X": warp.tid_x, "SR_TID.Y": warp.tid_y, "SR_TID.Z": warp.tid_z,
        "SR_CTAID.X": np.uint32(warp.ctaid[0]),
        "SR_CTAID.Y": np.uint32(warp.ctaid[1]),
        "SR_CTAID.Z": np.uint32(warp.ctaid[2]),
        "SR_NTID.X": np.uint32(warp.ntid[0]),
        "SR_NTID.Y": np.uint32(warp.ntid[1]),
        "SR_NTID.Z": np.uint32(warp.ntid[2]),
        "SR_NCTAID.X": np.uint32(warp.nctaid[0]),
        "SR_NCTAID.Y": np.uint32(warp.nctaid[1]),
        "SR_NCTAID.Z": np.uint32(warp.nctaid[2]),
        "SR_LANEID": lanes,
        "SR_WARPID": np.uint32(warp.warp_id),
        "SR_ACTIVEMASK": np.uint32(_mask_to_int(warp.active)),
        "SR_CLOCK": np.uint32(ex.stats.warp_instructions & 0xFFFFFFFF),
    }
    ex._write(warp, instr.dsts[0], _broadcast(table[name]), g)
    warp.pc += 1


def _mask_to_int(mask: np.ndarray) -> int:
    return mask_to_u32(mask)


def _op_p2r(ex, warp, cta, instr, g, counter):
    packed = np.zeros(WARP_SIZE, dtype=np.uint32)
    for index in range(7):
        packed |= warp.preds[index].astype(np.uint32) << np.uint32(index)
    mask = instr.srcs[-1]
    if isinstance(mask, Imm):
        packed &= np.uint32(mask.value & 0xFFFFFFFF)
    ex._write(warp, instr.dsts[0], packed, g)
    warp.pc += 1


def _op_r2p(ex, warp, cta, instr, g, counter):
    value = _broadcast(ex._read(warp, instr.srcs[0]))
    mask = instr.srcs[1].value if len(instr.srcs) > 1 \
        and isinstance(instr.srcs[1], Imm) else 0x7F
    for index in range(7):
        if mask & (1 << index):
            if isinstance(value, np.ndarray):
                bit = ((value >> np.uint32(index)) & np.uint32(1)) \
                    .astype(bool)
                warp.preds[index][g] = bit[g]
            else:
                warp.preds[index][g] = bool((int(value) >> index) & 1)
    warp.pc += 1


def _op_psetp(ex, warp, cta, instr, g, counter):
    a = warp.preds[instr.srcs[0].index]
    b = warp.preds[instr.srcs[1].index] if len(instr.srcs) > 1 \
        else warp.preds[7]
    if "OR" in instr.mods:
        result = a | b
    elif "XOR" in instr.mods:
        result = a ^ b
    else:
        result = a & b
    dst = instr.dsts[0]
    if not dst.is_true:
        warp.preds[dst.index][g] = result[g]
    warp.pc += 1


def _u64(value):
    """Promote a uint32 row or scalar to uint64 without overflow."""
    if isinstance(value, np.ndarray):
        return value.astype(np.uint64)
    return np.uint64(int(value) & 0xFFFFFFFF)


def _binary_int(ex, warp, instr):
    a = ex._read(warp, instr.srcs[0])
    b = ex._read(warp, instr.srcs[1])
    return _broadcast(a), _as_u32(b)


def _op_iadd(ex, warp, cta, instr, g, counter):
    mods = instr.mods
    if "NEGB" not in mods and "X" not in mods and "CC" not in mods:
        # hot path: uint32 wraparound add == 64-bit add masked to 32 bits
        a = _broadcast(ex._read(warp, instr.srcs[0]))
        b = _as_u32(ex._read(warp, instr.srcs[1]))
        ex._write(warp, instr.dsts[0], a + b, g)
        warp.pc += 1
        return
    a, b = _binary_int(ex, warp, instr)
    if "NEGB" in mods:
        b = ~_as_u32(b) + np.uint32(1)
    # carry chains in uint32: wraparound detection (sum < addend) gives
    # exactly bit 32 of the 64-bit sum, without uint64 temporaries.
    if "X" in mods:
        partial = a + b
        result = partial + warp.carry
        carry = (partial < a) | (result < partial)
    else:
        result = a + b
        carry = result < a
    if "CC" in mods:
        np.copyto(warp.carry, carry, where=g)
    ex._write(warp, instr.dsts[0], result, g)
    warp.pc += 1


def _op_imul(ex, warp, cta, instr, g, counter):
    a, b = _binary_int(ex, warp, instr)
    # a 32x32 product always fits uint64, so one widening multiply
    # suffices; the uint64->uint32 cast is the & 0xFFFFFFFF truncation.
    wide = np.multiply(a, b, dtype=np.uint64)
    if "WIDE" in instr.mods:
        lo = wide.astype(np.uint32)
        hi = (wide >> np.uint64(32)).astype(np.uint32)
        dst = instr.dsts[0]
        ex._write(warp, dst, lo, g)
        ex._write(warp, GPR(dst.index + 1), hi, g)
    else:
        ex._write(warp, instr.dsts[0], wide.astype(np.uint32), g)
    warp.pc += 1


def _op_imad(ex, warp, cta, instr, g, counter):
    a = _broadcast(ex._read(warp, instr.srcs[0]))
    b = _as_u32(ex._read(warp, instr.srcs[1]))
    c = _u64(_as_u32(ex._read(warp, instr.srcs[2])))
    result = (np.multiply(a, b, dtype=np.uint64) + c).astype(np.uint32)
    ex._write(warp, instr.dsts[0], result, g)
    warp.pc += 1


def _op_iscadd(ex, warp, cta, instr, g, counter):
    a = _broadcast(ex._read(warp, instr.srcs[0]))
    b = _as_u32(ex._read(warp, instr.srcs[1]))
    shift = instr.srcs[2].value if len(instr.srcs) > 2 else 0
    result = ((a.astype(np.uint64) << np.uint64(shift))
              + _u64(b)) & np.uint64(0xFFFFFFFF)
    ex._write(warp, instr.dsts[0], result.astype(np.uint32), g)
    warp.pc += 1


_CMP_FNS = {
    "LT": np.less, "LE": np.less_equal, "GT": np.greater,
    "GE": np.greater_equal, "EQ": np.equal, "NE": np.not_equal,
}


def _op_isetp(ex, warp, cta, instr, g, counter):
    a = _broadcast(ex._read(warp, instr.srcs[0]))
    b = _as_u32(ex._read(warp, instr.srcs[1]))
    signed = "S32" in instr.mods
    if signed:
        lhs, rhs = _s32(a), _s32(_broadcast(b))
    else:
        lhs, rhs = a, _broadcast(b)
    result = instr.cmp_fn(lhs, rhs)
    combine = warp.preds[instr.srcs[2].index] if len(instr.srcs) > 2 \
        and hasattr(instr.srcs[2], "index") else warp.preds[7]
    result = result & combine
    dst, inv = instr.dsts[0], instr.dsts[1] if len(instr.dsts) > 1 else None
    if not dst.is_true:
        warp.preds[dst.index][g] = result[g]
    if inv is not None and not inv.is_true:
        warp.preds[inv.index][g] = (~result & combine)[g]
    warp.pc += 1


def _op_imnmx(ex, warp, cta, instr, g, counter):
    a = _broadcast(ex._read(warp, instr.srcs[0]))
    b = _broadcast(_as_u32(ex._read(warp, instr.srcs[1])))
    signed = "S32" in instr.mods
    lhs, rhs = (_s32(a), _s32(b)) if signed else (a, b)
    result = np.minimum(lhs, rhs) if "MIN" in instr.mods \
        else np.maximum(lhs, rhs)
    ex._write(warp, instr.dsts[0], result.view(np.uint32) if signed
              else result, g)
    warp.pc += 1


def _op_lop(ex, warp, cta, instr, g, counter):
    a = _broadcast(ex._read(warp, instr.srcs[0]))
    b = _broadcast(_as_u32(ex._read(warp, instr.srcs[1])))
    if "OR" in instr.mods:
        result = a | b
    elif "XOR" in instr.mods:
        result = a ^ b
    elif "NOT_B" in instr.mods:
        result = ~b
    elif "PASS_B" in instr.mods:
        result = b
    else:
        result = a & b
    ex._write(warp, instr.dsts[0], result, g)
    warp.pc += 1


def _op_shl(ex, warp, cta, instr, g, counter):
    a = _broadcast(ex._read(warp, instr.srcs[0]))
    b = _broadcast(_as_u32(ex._read(warp, instr.srcs[1]))) & np.uint32(0xFF)
    amount = np.minimum(b, np.uint32(32)).astype(np.uint32)
    wide = a.astype(np.uint64) << amount.astype(np.uint64)
    ex._write(warp, instr.dsts[0],
              (wide & np.uint64(0xFFFFFFFF)).astype(np.uint32), g)
    warp.pc += 1


def _op_shr(ex, warp, cta, instr, g, counter):
    a = _broadcast(ex._read(warp, instr.srcs[0]))
    b = _broadcast(_as_u32(ex._read(warp, instr.srcs[1]))) & np.uint32(0xFF)
    amount = np.minimum(b, np.uint32(31 if "S32" in instr.mods else 32))
    if "S32" in instr.mods:
        result = (_s32(a) >> amount.astype(np.int32)).view(np.uint32)
    else:
        wide = a.astype(np.uint64) >> amount.astype(np.uint64)
        result = wide.astype(np.uint32)
    ex._write(warp, instr.dsts[0], result, g)
    warp.pc += 1


def _op_popc(ex, warp, cta, instr, g, counter):
    a = _broadcast(ex._read(warp, instr.srcs[0]))
    bits = np.unpackbits(a.view(np.uint8).reshape(WARP_SIZE, 4), axis=1)
    ex._write(warp, instr.dsts[0], bits.sum(axis=1).astype(np.uint32), g)
    warp.pc += 1


def _op_flo(ex, warp, cta, instr, g, counter):
    a = _broadcast(ex._read(warp, instr.srcs[0]))
    # bit_length via frexp: float64 holds any uint32 exactly, and frexp's
    # exponent is exact (no log2 rounding hazard at powers of two).
    _, exponent = np.frexp(a.astype(np.float64))
    result = np.where(a == 0, np.uint32(0xFFFFFFFF),
                      (exponent - 1).astype(np.uint32))
    ex._write(warp, instr.dsts[0], result, g)
    warp.pc += 1


def _op_bfe(ex, warp, cta, instr, g, counter):
    a = _broadcast(ex._read(warp, instr.srcs[0]))
    spec = _broadcast(_as_u32(ex._read(warp, instr.srcs[1])))
    pos = spec & np.uint32(0xFF)
    width = (spec >> np.uint32(8)) & np.uint32(0xFF)
    wide = a.astype(np.uint64) >> pos.astype(np.uint64)
    mask = (np.uint64(1) << width.astype(np.uint64)) - np.uint64(1)
    ex._write(warp, instr.dsts[0], (wide & mask).astype(np.uint32), g)
    warp.pc += 1


def _op_bfi(ex, warp, cta, instr, g, counter):
    base = _broadcast(ex._read(warp, instr.srcs[0]))
    spec = _broadcast(_as_u32(ex._read(warp, instr.srcs[1])))
    insert = _broadcast(_as_u32(ex._read(warp, instr.srcs[2])))
    pos = (spec & np.uint32(0xFF)).astype(np.uint64)
    width = ((spec >> np.uint32(8)) & np.uint32(0xFF)).astype(np.uint64)
    mask = ((np.uint64(1) << width) - np.uint64(1)) << pos
    result = (base.astype(np.uint64) & ~mask) \
        | ((insert.astype(np.uint64) << pos) & mask)
    ex._write(warp, instr.dsts[0], result.astype(np.uint32), g)
    warp.pc += 1


def _op_iabs(ex, warp, cta, instr, g, counter):
    a = _s32(_broadcast(ex._read(warp, instr.srcs[0])))
    ex._write(warp, instr.dsts[0], np.abs(a).view(np.uint32), g)
    warp.pc += 1


def _fbinary(ex, warp, instr):
    a = _f32(_broadcast(ex._read(warp, instr.srcs[0])))
    b_raw = _broadcast(_as_u32(ex._read(warp, instr.srcs[1])))
    return a, _f32(b_raw)


def _op_fadd(ex, warp, cta, instr, g, counter):
    a, b = _fbinary(ex, warp, instr)
    if "NEGB" in instr.mods:
        b = -b
    ex._write(warp, instr.dsts[0], _from_f32(a + b), g)
    warp.pc += 1


def _op_fmul(ex, warp, cta, instr, g, counter):
    a, b = _fbinary(ex, warp, instr)
    with np.errstate(all="ignore"):
        ex._write(warp, instr.dsts[0], _from_f32(a * b), g)
    warp.pc += 1


def _op_ffma(ex, warp, cta, instr, g, counter):
    a = _f32(_broadcast(ex._read(warp, instr.srcs[0])))
    b = _f32(_broadcast(_as_u32(ex._read(warp, instr.srcs[1]))))
    c = _f32(_broadcast(_as_u32(ex._read(warp, instr.srcs[2]))))
    with np.errstate(all="ignore"):
        ex._write(warp, instr.dsts[0], _from_f32(a * b + c), g)
    warp.pc += 1


def _op_fsetp(ex, warp, cta, instr, g, counter):
    a = _f32(_broadcast(ex._read(warp, instr.srcs[0])))
    b = _f32(_broadcast(_as_u32(ex._read(warp, instr.srcs[1]))))
    with np.errstate(invalid="ignore"):
        result = instr.cmp_fn(a, b)
    dst = instr.dsts[0]
    if not dst.is_true:
        warp.preds[dst.index][g] = result[g]
    if len(instr.dsts) > 1 and not instr.dsts[1].is_true:
        warp.preds[instr.dsts[1].index][g] = (~result)[g]
    warp.pc += 1


def _op_fmnmx(ex, warp, cta, instr, g, counter):
    a, b = _fbinary(ex, warp, instr)
    with np.errstate(invalid="ignore"):
        result = np.fmin(a, b) if "MIN" in instr.mods else np.fmax(a, b)
    ex._write(warp, instr.dsts[0], _from_f32(result), g)
    warp.pc += 1


def _op_mufu(ex, warp, cta, instr, g, counter):
    a = _f32(_broadcast(ex._read(warp, instr.srcs[0])))
    with np.errstate(all="ignore"):
        if "RCP" in instr.mods:
            result = np.float32(1.0) / a
        elif "SQRT" in instr.mods:
            result = np.sqrt(a)
        elif "RSQ" in instr.mods:
            result = np.float32(1.0) / np.sqrt(a)
        elif "LG2" in instr.mods:
            result = np.log2(a)
        elif "EX2" in instr.mods:
            result = np.exp2(a)
        elif "SIN" in instr.mods:
            result = np.sin(a)
        elif "COS" in instr.mods:
            result = np.cos(a)
        else:
            raise DeviceFault(f"MUFU without function: {instr!r}")
    ex._write(warp, instr.dsts[0], _from_f32(result), g)
    warp.pc += 1


def _op_f2i(ex, warp, cta, instr, g, counter):
    a = _f32(_broadcast(ex._read(warp, instr.srcs[0])))
    with np.errstate(invalid="ignore"):
        clipped = np.nan_to_num(np.trunc(a), nan=0.0,
                                posinf=2**31 - 1, neginf=-2**31)
        if "U32" in instr.mods:
            result = np.clip(clipped, 0, 2**32 - 1).astype(np.uint32)
        else:
            result = np.clip(clipped, -(2**31), 2**31 - 1) \
                .astype(np.int32).view(np.uint32)
    ex._write(warp, instr.dsts[0], result, g)
    warp.pc += 1


def _op_i2f(ex, warp, cta, instr, g, counter):
    a = _broadcast(ex._read(warp, instr.srcs[0]))
    if "S32" in instr.mods:
        result = _s32(a).astype(np.float32)
    else:
        result = a.astype(np.float32)
    ex._write(warp, instr.dsts[0], _from_f32(result), g)
    warp.pc += 1


def _op_sel_advance(ex, warp, cta, instr, g, counter):
    _op_sel(ex, warp, cta, instr, g, counter)
    warp.pc += 1


def _op_mov_advance(ex, warp, cta, instr, g, counter):
    _op_mov(ex, warp, cta, instr, g, counter)
    warp.pc += 1


_SIGNED_EXT = {"S8": (1, True), "U8": (1, False),
               "S16": (2, True), "U16": (2, False)}

#: Opcode → fixed memory space of the vectorized classifier; generic
#: LD/ST dispatch by window instead (same ladder as ``_resolve_space``).
_GLOBAL_OPS = frozenset({Opcode.LDG, Opcode.STG, Opcode.ATOM, Opcode.RED,
                         Opcode.TLD})
_SHARED_OPS = frozenset({Opcode.LDS, Opcode.STS, Opcode.ATOMS})
_LOCAL_OPS = frozenset({Opcode.LDL, Opcode.STL})


def _local_bounds_ok(offsets: np.ndarray, width: int) -> bool:
    return (int(offsets.min()) >= 0
            and int(offsets.max()) + width <= LOCAL_PHYS_BYTES)


def _vector_plan(ex, warp, cta, instr, g, addrs, width):
    """Classify every active lane of one warp memory access at once.

    Returns ``(memory, offsets, local_tids)``: the single
    :class:`Memory` serving all lanes plus per-lane int64 offsets, or —
    for thread-local accesses (``local_tids`` not None) — offsets into
    the CTA-wide local block, gathered 2-D by (thread, byte).  Returns
    None when the access cannot be served by one vectorized
    gather/scatter: no active lanes, lanes straddling spaces, unmapped
    generic addresses, or any lane out of bounds — the scalar loop then
    reproduces the exact per-lane classification and fault.
    """
    active = addrs[g]
    if active.size == 0:
        return None
    offsets = active.astype(np.int64)
    opcode = instr.opcode
    if opcode in _GLOBAL_OPS:
        mem = ex.device.global_mem
        offsets -= GLOBAL_BASE
    elif opcode in _SHARED_OPS:
        mem = cta.shared
    elif opcode is Opcode.LDC:
        mem = ex.device.const_mem
    elif opcode in _LOCAL_OPS:
        if not _local_bounds_ok(offsets, width):
            return None
        return None, offsets, warp.lane_thread_ids[g]
    else:  # generic LD/ST: the local window sits above the global heap
        if bool((offsets >= LOCAL_BASE).all()):
            offsets -= LOCAL_BASE
            if not _local_bounds_ok(offsets, width):
                return None
            return None, offsets, warp.lane_thread_ids[g]
        if bool(((offsets >= GLOBAL_BASE)
                 & (offsets < LOCAL_BASE)).all()):
            mem = ex.device.global_mem
            offsets -= GLOBAL_BASE
        elif bool(((offsets >= SHARED_BASE)
                   & (offsets < SHARED_BASE + SHARED_BYTES)).all()):
            mem = cta.shared
            offsets -= SHARED_BASE
        else:
            return None          # mixed-space or unmapped
    if not mem.lanes_in_bounds(offsets, width):
        return None
    return mem, offsets, None


def _local_lane_index(offsets: np.ndarray, width: int) -> np.ndarray:
    return offsets.reshape(-1, 1) + np.arange(width, dtype=np.int64)


def _local_read_lanes(cta, tids, offsets, width) -> np.ndarray:
    block = cta.local_block()
    raw = block[tids.reshape(-1, 1), _local_lane_index(offsets, width)]
    return raw.view(np.uint32)


def _local_write_lanes(cta, tids, offsets, width, words) -> None:
    block = cta.local_block()
    payload = np.ascontiguousarray(words, dtype=np.uint32).view(np.uint8)
    block[tids.reshape(-1, 1), _local_lane_index(offsets, width)] = \
        payload.reshape(len(offsets), width)


def _scatter_is_disjoint(offsets: np.ndarray, width: int) -> bool:
    """Whether the per-lane ranges ``[offset, offset+width)`` never
    overlap — the precondition for a well-defined numpy scatter (on
    overlap, lane order decides and the scalar loop is authoritative)."""
    if len(offsets) < 2:
        return True
    ordered = np.sort(offsets)
    return int((ordered[1:] - ordered[:-1]).min()) >= width


def _lane_indices(ex, g):
    """Active-lane indices of the guard mask being dispatched.

    ``_execute``/``_execute_block``/``_execute_site`` compute the
    nonzero scan once per dispatch and stash it on the executor; the
    scalar per-lane loops reuse it instead of re-scanning *g* (they
    always receive the dispatched guard unchanged)."""
    idx = ex._active_lanes
    if idx is None:
        return np.nonzero(g)[0]
    return idx


def _op_load(ex, warp, cta, instr, g, counter):
    width = instr.mem_width
    addrs = ex.lane_addresses(warp, instr)
    if instr.opcode in (Opcode.LDG, Opcode.LD, Opcode.TLD):
        ex._account_global(addrs, g, width, counter)
    dst = instr.dsts[0]
    narrow = instr.narrow
    if narrow is None and width % 4 == 0 and ex.config.vector_memory:
        plan = _vector_plan(ex, warp, cta, instr, g, addrs, width)
        if plan is not None:
            mem, offsets, tids = plan
            if tids is None:
                words = mem.read_lanes(offsets, width)
            else:
                words = _local_read_lanes(cta, tids, offsets, width)
            regs = warp.regs
            for word in range(width // 4):
                regs[dst.index + word][g] = words[:, word]
            warp.pc += 1
            return
    for lane in _lane_indices(ex, g):
        lane = int(lane)
        mem, offset, _ = ex._resolve_space(warp, cta, instr,
                                           int(addrs[lane]), lane)
        if narrow:
            nbytes, signed = _SIGNED_EXT[narrow]
            raw = mem.read(offset, nbytes)
            if signed and raw & (1 << (8 * nbytes - 1)):
                raw -= 1 << (8 * nbytes)
            warp.regs[dst.index, lane] = np.uint32(raw & 0xFFFFFFFF)
        else:
            raw = mem.read(offset, width)
            for word in range(width // 4):
                warp.regs[dst.index + word, lane] = np.uint32(
                    (raw >> (32 * word)) & 0xFFFFFFFF)
    warp.pc += 1


def _op_store(ex, warp, cta, instr, g, counter):
    width = instr.mem_width
    addrs = ex.lane_addresses(warp, instr)
    if instr.opcode in (Opcode.STG, Opcode.ST):
        ex._account_global(addrs, g, width, counter)
    data = instr.srcs[-1]
    narrow = instr.narrow
    if (narrow is None and width % 4 == 0 and ex.config.vector_memory
            and isinstance(data, GPR) and not data.is_zero):
        plan = _vector_plan(ex, warp, cta, instr, g, addrs, width)
        if plan is not None:
            mem, offsets, tids = plan
            # thread-local lanes write disjoint rows by construction
            if tids is not None or _scatter_is_disjoint(offsets, width):
                words = np.empty((len(offsets), width // 4), dtype=np.uint32)
                regs = warp.regs
                for word in range(width // 4):
                    words[:, word] = regs[data.index + word][g]
                if tids is None:
                    mem.write_lanes(offsets, width, words)
                else:
                    _local_write_lanes(cta, tids, offsets, width, words)
                warp.pc += 1
                return
    for lane in _lane_indices(ex, g):
        lane = int(lane)
        mem, offset, _ = ex._resolve_space(warp, cta, instr,
                                           int(addrs[lane]), lane)
        if isinstance(data, GPR) and not data.is_zero:
            if narrow:
                nbytes, _ = _SIGNED_EXT[narrow]
                mem.write(offset, nbytes,
                          int(warp.regs[data.index, lane]))
                continue
            value = 0
            for word in range(width // 4):
                value |= int(warp.regs[data.index + word, lane]) << (32 * word)
            mem.write(offset, width, value)
        else:
            value = 0 if not isinstance(data, Imm) else data.value
            mem.write(offset, width, value)
    warp.pc += 1


_ATOM_FNS = {
    "ADD": lambda old, val: old + val,
    "AND": lambda old, val: old & val,
    "OR": lambda old, val: old | val,
    "XOR": lambda old, val: old ^ val,
    "EXCH": lambda old, val: val,
    "INC": lambda old, val: old + 1,
    "DEC": lambda old, val: old - 1,
}


def _atom_vectorized(ex, warp, cta, instr, g, addrs, op, signed,
                     value_src, has_dst) -> bool:
    """Serve a whole warp atomic with one gather/compute/scatter.

    Only when every active lane targets a distinct word — conflicting
    lanes serialize in lane order, which the scalar loop is
    authoritative for.  Returns False to send the access down the
    scalar path.
    """
    plan = _vector_plan(ex, warp, cta, instr, g, addrs, 4)
    if plan is None:
        return False
    mem, offsets, tids = plan
    if tids is not None or not _scatter_is_disjoint(offsets, 4):
        return False
    old = mem.read_lanes(offsets, 4)[:, 0]
    if isinstance(value_src, GPR):
        val = warp.regs[value_src.index][g]
    else:
        val = np.full(len(offsets), value_src.value & 0xFFFFFFFF,
                      dtype=np.uint32)
    if op in ("MIN", "MAX"):
        fn = np.minimum if op == "MIN" else np.maximum
        if signed:
            new = fn(old.view(np.int32), val.view(np.int32)).view(np.uint32)
        else:
            new = fn(old, val)
    elif op == "EXCH":
        new = val
    elif op == "INC":
        new = old + np.uint32(1)
    elif op == "DEC":
        new = old - np.uint32(1)
    elif op == "AND":
        new = old & val
    elif op == "OR":
        new = old | val
    elif op == "XOR":
        new = old ^ val
    elif op == "ADD":
        new = old + val
    else:
        return False
    mem.write_lanes(offsets, 4, new.reshape(-1, 1))
    if has_dst:
        warp.regs[instr.dsts[0].index][g] = old
    return True


def _op_atom(ex, warp, cta, instr, g, counter):
    addrs = ex.lane_addresses(warp, instr)
    if instr.opcode in (Opcode.ATOM, Opcode.RED):
        ex._account_global(addrs, g, 4, counter)
    op = instr.atom_op
    signed = "S32" in instr.mods
    value_src = instr.srcs[-1]
    has_dst = bool(instr.dsts)
    if ex.config.vector_memory and _atom_vectorized(
            ex, warp, cta, instr, g, addrs, op, signed, value_src, has_dst):
        warp.pc += 1
        return
    for lane in _lane_indices(ex, g):
        lane = int(lane)
        mem, offset, _ = ex._resolve_space(warp, cta, instr,
                                           int(addrs[lane]), lane)
        old = mem.read(offset, 4)
        val = int(warp.regs[value_src.index, lane]) \
            if isinstance(value_src, GPR) else int(value_src.value)
        if op in ("MIN", "MAX"):
            def to_signed(x):
                return x - (1 << 32) if signed and x & (1 << 31) else x
            pair = (to_signed(old), to_signed(val))
            new = (min if op == "MIN" else max)(pair)
        else:
            new = _ATOM_FNS[op](old, val)
        mem.write(offset, 4, new & 0xFFFFFFFF)
        if has_dst:
            warp.regs[instr.dsts[0].index, lane] = np.uint32(old & 0xFFFFFFFF)
    warp.pc += 1


def _op_membar(ex, warp, cta, instr, g, counter):
    warp.pc += 1


def _op_bra(ex, warp, cta, instr, g, counter):
    target = ex._targets[warp.pc]
    warp.branch(g, target)


def _op_jcal(ex, warp, cta, instr, g, counter):
    address = getattr(instr, "jcal_addr", None)
    if address is None:
        target_op = instr.srcs[0] if instr.srcs else None
        if not isinstance(target_op, Imm):
            raise DeviceFault(f"JCAL needs an absolute target: {instr!r}")
        address = target_op.value & 0xFFFFFFFF
    binding = ex.device.handler_bindings.get(address)
    if binding is not None:
        ex.stats.handler_calls += 1
        binding(ex, warp, cta, g)
        warp.pc += 1
        return
    raise DeviceFault(f"JCAL to unbound address 0x{address:x}")


def _op_cal(ex, warp, cta, instr, g, counter):
    target = ex._targets[warp.pc]
    warp.call_stack.append(warp.pc + 1)
    warp.pc = target


def _op_ret(ex, warp, cta, instr, g, counter):
    if warp.call_stack:
        warp.pc = warp.call_stack.pop()
    else:
        warp.exit_lanes(g)


def _op_exit(ex, warp, cta, instr, g, counter):
    warp.exit_lanes(g)


def _op_ssy(ex, warp, cta, instr, g, counter):
    warp.push_sync(ex._targets[warp.pc])
    warp.pc += 1


def _op_sync(ex, warp, cta, instr, g, counter):
    warp.sync()


def _op_pbk(ex, warp, cta, instr, g, counter):
    warp.push_brk(ex._targets[warp.pc])
    warp.pc += 1


def _op_brk(ex, warp, cta, instr, g, counter):
    warp.brk(g)


def _op_bar(ex, warp, cta, instr, g, counter):
    warp.at_barrier = True
    warp.pc += 1


def _op_nop(ex, warp, cta, instr, g, counter):
    warp.pc += 1


def _op_vote(ex, warp, cta, instr, g, counter):
    pred_src = instr.srcs[0]
    row = warp.preds[pred_src.index] & warp.active
    if "BALLOT" in instr.mods:
        value = np.uint32(_mask_to_int(row))
    elif "ALL" in instr.mods:
        value = np.uint32(1 if bool((row | ~warp.active).all()) else 0)
    else:  # ANY
        value = np.uint32(1 if bool(row.any()) else 0)
    ex._write(warp, instr.dsts[0], _broadcast(value), g)
    warp.pc += 1


def _op_shfl(ex, warp, cta, instr, g, counter):
    value = _broadcast(ex._read(warp, instr.srcs[0]))
    lane_spec = _broadcast(_as_u32(ex._read(warp, instr.srcs[1])))
    lanes = np.arange(WARP_SIZE, dtype=np.int64)
    if "IDX" in instr.mods:
        source = lane_spec.astype(np.int64)
    elif "UP" in instr.mods:
        source = lanes - lane_spec.astype(np.int64)
    elif "DOWN" in instr.mods:
        source = lanes + lane_spec.astype(np.int64)
    else:  # BFLY
        source = lanes ^ lane_spec.astype(np.int64)
    source = np.clip(source, 0, WARP_SIZE - 1)
    ex._write(warp, instr.dsts[0], value[source], g)
    warp.pc += 1


def _op_ldc(ex, warp, cta, instr, g, counter):
    _op_load(ex, warp, cta, instr, g, counter)


_DISPATCH: Dict[Opcode, Callable] = {
    Opcode.MOV: _op_mov_advance,
    Opcode.MOV32I: _op_mov_advance,
    Opcode.SEL: _op_sel_advance,
    Opcode.S2R: _op_s2r,
    Opcode.P2R: _op_p2r,
    Opcode.R2P: _op_r2p,
    Opcode.PSETP: _op_psetp,
    Opcode.IADD: _op_iadd,
    Opcode.IADD32I: _op_iadd,
    Opcode.IMUL: _op_imul,
    Opcode.IMAD: _op_imad,
    Opcode.ISCADD: _op_iscadd,
    Opcode.ISETP: _op_isetp,
    Opcode.IMNMX: _op_imnmx,
    Opcode.LOP: _op_lop,
    Opcode.LOP32I: _op_lop,
    Opcode.SHL: _op_shl,
    Opcode.SHR: _op_shr,
    Opcode.POPC: _op_popc,
    Opcode.FLO: _op_flo,
    Opcode.BFE: _op_bfe,
    Opcode.BFI: _op_bfi,
    Opcode.IABS: _op_iabs,
    Opcode.FADD: _op_fadd,
    Opcode.FMUL: _op_fmul,
    Opcode.FFMA: _op_ffma,
    Opcode.FSETP: _op_fsetp,
    Opcode.FMNMX: _op_fmnmx,
    Opcode.MUFU: _op_mufu,
    Opcode.F2I: _op_f2i,
    Opcode.I2F: _op_i2f,
    Opcode.F2F: _op_mov_advance,
    Opcode.LD: _op_load,
    Opcode.ST: _op_store,
    Opcode.LDG: _op_load,
    Opcode.STG: _op_store,
    Opcode.LDS: _op_load,
    Opcode.STS: _op_store,
    Opcode.LDL: _op_load,
    Opcode.STL: _op_store,
    Opcode.LDC: _op_ldc,
    Opcode.ATOM: _op_atom,
    Opcode.ATOMS: _op_atom,
    Opcode.RED: _op_atom,
    Opcode.TLD: _op_load,
    Opcode.MEMBAR: _op_membar,
    Opcode.BRA: _op_bra,
    Opcode.JCAL: _op_jcal,
    Opcode.CAL: _op_cal,
    Opcode.RET: _op_ret,
    Opcode.EXIT: _op_exit,
    Opcode.SSY: _op_ssy,
    Opcode.SYNC: _op_sync,
    Opcode.PBK: _op_pbk,
    Opcode.BRK: _op_brk,
    Opcode.BAR: _op_bar,
    Opcode.NOP: _op_nop,
    Opcode.BPT: _op_nop,
    Opcode.VOTE: _op_vote,
    Opcode.SHFL: _op_shfl,
}
