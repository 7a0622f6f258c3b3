"""Trace capture: a SASSI before-handler that streams events to disk.

:class:`TraceRecorder` rides the existing handler machinery — it is
"just another handler" registered with a :class:`SassiRuntime`, exactly
like the case-study profilers, plus launch/exit callbacks (the CUPTI
analog) for kernel framing.  Every instrumented site emits an
:class:`~repro.trace.format.InstrEvent`; memory sites add a
:class:`~repro.trace.format.MemEvent` with coalesced 32-byte line
addresses; conditional branches add a
:class:`~repro.trace.format.BranchEvent`.  One recorded run therefore
feeds *all* the replay analyses in :mod:`repro.trace.replay`.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.isa.program import INSTRUCTION_BYTES
from repro.sassi import SassiRuntime, spec_from_flags
from repro.sassi.handlers import SASSIContext
from repro.sim.coalescer import OFFSET_BITS
from repro.sim.memory import GLOBAL_BASE
from repro.telemetry.collector import span as telemetry_span
from repro.trace.format import (
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MEM_FLAG_ATOMIC,
    MEM_FLAG_LOAD,
    MEM_FLAG_STORE,
    MemEvent,
)
from repro.trace.io import TraceWriter

#: the capture spec: every instruction, with memory and branch details
CAPTURE_FLAGS = ("-sassi-inst-before=all "
                 "-sassi-before-args=mem-info,cond-branch-info")


class TraceRecorder:
    """Attachable trace capture (the record half of record/replay).

    Pass an existing *runtime* to piggyback capture onto another
    instrumentation (the error-injection campaign does this for its
    per-trial trace sidecars); otherwise the recorder owns a fresh
    :class:`SassiRuntime` and ``compile`` works like every other
    attachable profiler in :mod:`repro.handlers`.
    """

    def __init__(self, device, writer: TraceWriter,
                 runtime: Optional[SassiRuntime] = None,
                 global_only: bool = True):
        self.device = device
        self.writer = writer
        self.global_only = global_only
        self.runtime = runtime or SassiRuntime(device)
        self.runtime.register_before_handler(self.handler)
        self.spec = spec_from_flags(CAPTURE_FLAGS)
        self._launch_index = 0
        device.on_kernel_launch(self._on_launch)
        device.on_kernel_exit(self._on_exit)

    def compile(self, kernel_ir, cache=None):
        return self.runtime.compile(kernel_ir, self.spec, cache=cache)

    # -------------------------------------------------------- framing

    def _on_launch(self, device, kernel, grid, block) -> None:
        self.writer.write(LaunchEvent(
            kernel=kernel.name,
            grid=(grid.x, grid.y, grid.z),
            block=(block.x, block.y, block.z),
            launch_index=self._launch_index))
        self._launch_index += 1

    def _on_exit(self, device, kernel, stats) -> None:
        self.writer.write(KernelEndEvent(
            warp_instructions=stats.warp_instructions))

    # -------------------------------------------------------- handler

    def handler(self, ctx: SASSIContext) -> None:
        bp = ctx.bp
        # Record the instruction's address in the *original* (pre-
        # injection) layout — GetInsAddr() would shift with the
        # instrumentation spec, making traces from different specs
        # incomparable under trace-diff.
        ins_addr = bp.GetFnAddr() + bp.GetID() * INSTRUCTION_BYTES
        mp = ctx.mp
        events = [InstrEvent(ins_addr=ins_addr,
                             opcode=bp.GetOpcode().value,
                             lanes=ctx.num_active,
                             width=mp.GetWidth() if mp is not None else 0)]
        if mp is not None:
            event = mem_event(ctx, ins_addr, self.global_only)
            if event is not None:
                events.append(event)
        brp = ctx.brp
        if brp is not None:
            direction = brp.GetDirection()
            num_active = ctx.num_active
            taken = int(np.count_nonzero(direction[ctx.lanes_idx]))
            events.append(BranchEvent(ins_addr=ins_addr,
                                      active=num_active,
                                      taken=taken,
                                      not_taken=num_active - taken))
        self.writer.write_batch(events)


def mem_event(ctx: SASSIContext, ins_addr: int,
              global_only: bool) -> Optional[MemEvent]:
    """The :class:`MemEvent` of a memory site, or None when no lane
    takes part.

    A lane takes part when its guard lets the instruction execute and,
    with *global_only*, its address lies in the device heap.  Line
    addresses are the 32-byte lines those lanes touch, each once, in
    the order of the first lane touching it.
    """
    idx = ctx.lanes_idx
    mp = ctx.mp
    addresses = mp.GetAddress()[idx]
    keep = ctx.bp.GetInstrWillExecute()[idx].astype(bool, copy=False)
    if global_only:
        heap_top = GLOBAL_BASE + ctx.device.heap_bytes
        keep &= (addresses >= GLOBAL_BASE) & (addresses < heap_top)
    num_lanes = int(np.count_nonzero(keep))
    if not num_lanes:
        return None
    line_vals = (addresses[keep] >> OFFSET_BITS) << OFFSET_BITS
    _, first = np.unique(line_vals, return_index=True)
    flags = 0
    if mp.IsLoad():
        flags |= MEM_FLAG_LOAD
    if mp.IsStore():
        flags |= MEM_FLAG_STORE
    if mp.IsAtomic():
        flags |= MEM_FLAG_ATOMIC
    return MemEvent(ins_addr=ins_addr, flags=flags, width=mp.GetWidth(),
                    active_lanes=num_lanes,
                    line_addresses=tuple(int(line_vals[i])
                                         for i in np.sort(first)))


def capture_workload(name: str, path: str, cache=None,
                     global_only: bool = True):
    """Record one workload's trace to *path*.

    Returns ``(manifest, verified, wall_seconds)`` — the trace manifest,
    whether the instrumented run still produced the right answer, and
    the recorded run's wall time (the record-overhead numerator).
    """
    import time

    from repro.sim import Device
    from repro.workloads import make

    workload = make(name)
    device = Device()
    with telemetry_span("trace.capture", workload=name):
        with TraceWriter(path) as writer:
            recorder = TraceRecorder(device, writer,
                                     global_only=global_only)
            kernel = recorder.compile(workload.build_ir(), cache=cache)
            start = time.perf_counter()
            output = workload.execute(device, kernel)
            wall = time.perf_counter() - start
            verified = workload.verify(output)
        manifest = writer.close()
    return manifest, verified, wall
