"""Section 9.4 extension: memory-trace collection for driving other
simulators.

"SASSI can collect low-level traces of device-side events, which can
then be processed by separate tools.  For instance, a memory trace
collected by SASSI can be used to drive a memory hierarchy simulator."

The tracer streams, per warp memory access: the instruction address,
the access kind, and the coalesced 32-byte line addresses.  Records go
straight to a :class:`~repro.trace.io.TraceWriter` (bounded host
memory, any trace length), so the resulting ``.rptrace`` file can also
be fed to ``repro replay`` / :func:`repro.trace.replay`.  The
``examples/memtrace_cachesim.py`` example replays such a trace through
the :mod:`repro.sim.cache` models offline.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.sassi import SassiRuntime, spec_from_flags
from repro.sassi.handlers import SASSIContext
from repro.trace.capture import mem_event
from repro.trace.format import KernelEndEvent, LaunchEvent, MemEvent
from repro.trace.index import index_path_for
from repro.trace.io import TraceReader, TraceWriter


@dataclass(frozen=True)
class TraceRecord:
    """One warp-level memory access (host-side view of a
    :class:`~repro.trace.format.MemEvent`)."""

    ins_addr: int
    is_load: bool
    line_addresses: Tuple[int, ...]
    active_lanes: int


class MemoryTracer:
    """Attachable trace collector (streaming to disk, as a CPU-side
    trace consumer per the paper's heterogeneous-instrumentation
    prototype).

    Pass *path* to keep the ``.rptrace`` file; otherwise records stream
    to an unlinked-on-collection temp file.  Iterate with
    :meth:`records` (constant memory) or replay directly with
    :meth:`replay_through`.  Memory events are framed by kernel-launch
    records (the CUPTI-analog callbacks), so the trace is seekable and
    frame-indexed like any capture-produced trace.
    """

    FLAGS = "-sassi-inst-before=memory -sassi-before-args=mem-info"

    def __init__(self, device, global_only: bool = True,
                 path: Optional[str] = None,
                 buffer_bytes: int = 256 * 1024):
        self.device = device
        self.global_only = global_only
        if path is None:
            fd, path = tempfile.mkstemp(suffix=".rptrace",
                                        prefix="memtrace-")
            os.close(fd)
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = path
        self._writer: Optional[TraceWriter] = TraceWriter(
            path, buffer_bytes=buffer_bytes)
        self._manifest = None
        self._launch_index = 0
        device.on_kernel_launch(self._on_launch)
        device.on_kernel_exit(self._on_exit)
        #: sampling-weighted event count: each recorded event adds its
        #: firing's sample rate, so under 1/N sampling this remains an
        #: unbiased estimate of the exact event count (trace events
        #: themselves are never scaled — the format is per-access).
        self.weighted_events = 0
        self.runtime = SassiRuntime(device)
        self.runtime.register_before_handler(self.handler)
        self.spec = spec_from_flags(self.FLAGS)

    def compile(self, kernel_ir, cache=None):
        return self.runtime.compile(kernel_ir, self.spec, cache=cache)

    # -------------------------------------------------------- framing

    def _on_launch(self, device, kernel, grid, block) -> None:
        if self._writer is not None:
            self._writer.write(LaunchEvent(
                kernel=kernel.name,
                grid=(grid.x, grid.y, grid.z),
                block=(block.x, block.y, block.z),
                launch_index=self._launch_index))
            self._launch_index += 1

    def _on_exit(self, device, kernel, stats) -> None:
        if self._writer is not None:
            self._writer.write(KernelEndEvent(
                warp_instructions=stats.warp_instructions))

    def handler(self, ctx: SASSIContext) -> None:
        if ctx.mp is None:
            return
        event = mem_event(ctx, ctx.bp.GetInsAddr(), self.global_only)
        if event is None:
            return
        self.weighted_events += ctx.sample_rate
        self._writer.write(event)

    # ------------------------------------------------------- host side

    def flush(self):
        """Finalize the trace file (idempotent).  Returns the
        :class:`~repro.trace.format.TraceManifest`.  Recording more
        accesses after this raises."""
        if self._writer is not None:
            self._manifest = self._writer.close()
            self._writer = None
        return self._manifest

    def records(self) -> Iterator[TraceRecord]:
        """Stream the collected accesses back (constant memory)."""
        self.flush()
        for event in TraceReader(self.path).events():
            if isinstance(event, MemEvent):
                yield TraceRecord(
                    ins_addr=event.ins_addr,
                    is_load=event.is_load,
                    line_addresses=event.line_addresses,
                    active_lanes=event.active_lanes,
                )

    def replay_through(self, cache) -> None:
        """Feed the collected line addresses to a cache model one
        launch at a time (one :meth:`~repro.sim.cache.Cache.access_lines`
        call each), flushing its contents at every kernel-launch frame —
        the same launch-boundary semantics as the ``cachesim`` replay
        analysis, so both grade a multi-launch trace identically."""
        self.flush()
        lines: List[int] = []
        for event in TraceReader(self.path).events():
            if isinstance(event, MemEvent):
                lines.extend(event.line_addresses)
            elif isinstance(event, LaunchEvent):
                cache.access_lines(lines)
                lines = []
                cache.invalidate()
        cache.access_lines(lines)

    def close(self) -> None:
        """Finalize, and remove the backing file (and its index
        sidecar) if we created them."""
        self.flush()
        if self._owns_file:
            for path in (self.path, index_path_for(self.path)):
                if os.path.exists(path):
                    os.unlink(path)
            self._owns_file = False

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
