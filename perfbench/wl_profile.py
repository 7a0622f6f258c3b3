"""``profile``: the paper's live workflow.

Each pass runs four kernels seven ways: uninstrumented, under each of
the five stock handlers, and as a trace capture with its index.  Every
run compiles without the compile cache, executes and calls
``verify()``.  The pass stresses the backend, SASSI injection, the
executor, the handler bodies and trace writing; it never decodes or
replays a trace.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List

from harness import Context, run_checked, run_passes
from ledger import HANDLERS, ratio

KERNELS = (
    "rodinia/hotspot",        # stencil with shared memory
    "parboil/spmv(small)",    # irregular gathers and divergence
    "rodinia/nw",             # 95 launches: per-launch cost
    "parboil/sgemm(small)",   # dense and regular
)
MODES = ("plain",) + HANDLERS + ("capture",)


def kernel_stats(stats) -> Dict:
    """The simulated statistics of one launch, as plain JSON values."""
    return {
        "kernel": stats.kernel,
        "warp_instructions": stats.warp_instructions,
        "thread_instructions": stats.thread_instructions,
        "sassi_warp_instructions": stats.sassi_warp_instructions,
        "sassi_thread_instructions": stats.sassi_thread_instructions,
        "opcode_counts": sorted((getattr(op, "name", str(op)), int(n))
                                for op, n in stats.opcode_counts.items()),
        "global_mem_instructions": stats.global_mem_instructions,
        "global_transactions": stats.global_transactions,
        "handler_calls": stats.handler_calls,
        "barriers": stats.barriers,
        "cycles": stats.cycles,
        "max_stack_depth": stats.max_stack_depth,
    }


def manifest_fields(manifest) -> Dict:
    return {"total_events": manifest.total_events,
            "counts": [list(pair) for pair in manifest.counts],
            "checksum": manifest.checksum}


def handler_result(mode: str, profiler):
    """The host-side result each stock handler reports."""
    if mode == "branch_profiler":
        return sorted((b.address, b.total, b.active_threads,
                       b.taken_threads, b.not_taken_threads, b.divergent)
                      for b in profiler.branches())
    if mode == "memory_divergence":
        return profiler.matrix().tolist()
    if mode == "opcode_histogram":
        return profiler.totals()
    if mode == "value_profiler":
        return [(p.address, p.weight, p.dsts) for p in profiler.profiles()]
    if mode == "memtrace":
        return manifest_fields(profiler.flush())
    raise KeyError(mode)


@dataclass
class RunRecord:
    """One run: its host wall time and what it did."""

    mode: str
    start: float          # host perf_counter interval of the run
    end: float
    app_instrs: int
    sassi_instrs: int
    sites: int
    events: int = 0
    bytes: int = 0


@dataclass
class PassRecord:
    runs: List[RunRecord] = field(default_factory=list)


def profile_run(kernel: str, mode: str, workdir: str,
                problems: List[str], refs) -> RunRecord:
    """Compile (no cache), execute and verify *kernel* under *mode*."""
    from repro.backend import ptxas
    from repro.handlers import (BranchProfiler, MemoryDivergenceProfiler,
                                MemoryTracer, OpcodeHistogram,
                                ValueProfiler)
    from repro.sim import Device
    from repro.trace.capture import TraceRecorder
    from repro.trace.io import TraceWriter
    from repro.workloads import make

    profilers = {"branch_profiler": BranchProfiler,
                 "memory_divergence": MemoryDivergenceProfiler,
                 "opcode_histogram": OpcodeHistogram,
                 "value_profiler": ValueProfiler,
                 "memtrace": MemoryTracer}
    workload = make(kernel)
    device = Device()
    path = os.path.join(workdir, "capture.rptrace")
    start = time.perf_counter()
    writer = profiler = result = None
    size = 0
    if mode == "plain":
        compiled = ptxas(workload.build_ir())
    elif mode == "capture":
        writer = TraceWriter(path)
        profiler = TraceRecorder(device, writer)
        compiled = profiler.compile(workload.build_ir())
    else:
        profiler = profilers[mode](device)
        compiled = profiler.compile(workload.build_ir())
    output = workload.execute(device, compiled)
    verified = workload.verify(output)
    if writer is not None:
        result = manifest_fields(writer.close())
        size = os.path.getsize(path)
    elif profiler is not None:
        result = handler_result(mode, profiler)
        if mode == "memtrace":
            size = os.path.getsize(profiler.path)
    end = time.perf_counter()
    if mode == "memtrace":
        profiler.close()
    if not verified:
        problems.append("verify() failed")
    launches = workload.last_trace.launches
    refs.expect(f"profile:{kernel}:{mode}",
                {"stats": [kernel_stats(s) for s in launches],
                 "result": result}, problems)
    reports = profiler.runtime.reports if profiler is not None else ()
    return RunRecord(
        mode=mode, start=start, end=end,
        app_instrs=sum(s.baseline_warp_instructions for s in launches),
        sassi_instrs=sum(s.sassi_warp_instructions for s in launches),
        sites=sum(r.before_sites + r.after_sites for r in reports),
        events=result["total_events"] if mode in ("memtrace", "capture")
        else 0,
        bytes=size)


class ProfileWorkload:
    name = "profile"
    #: set-ups per run; setup_s is their median
    setups = 3

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def workload_classes(self):
        from repro.workloads import make

        return {type(make(kernel)) for kernel in KERNELS}

    def setup(self) -> None:
        """Instantiate the four workloads and run each once
        uninstrumented (first-use tables, allocator warm-up)."""
        for kernel in KERNELS:
            self._run(kernel, "plain")

    def _run(self, kernel: str, mode: str):
        ctx = self.ctx
        return run_checked(
            ctx, f"{kernel}:{mode}",
            lambda problems: profile_run(kernel, mode, ctx.workdir,
                                         problems, ctx.refs))

    def one_pass(self) -> PassRecord:
        order = [(kernel, mode) for kernel in KERNELS for mode in MODES]
        self.ctx.rng.shuffle(order)
        record = PassRecord()
        for kernel, mode in order:
            run = self._run(kernel, mode)
            if run is not None:
                record.runs.append(run)
        return record

    def measure(self, seconds: float, tracer=None):
        return run_passes(self.one_pass, seconds, tracer)

    def seconds(self, start: float, end: float) -> float:
        return self.ctx.speed.seconds(start, end)

    def record_reference(self) -> None:
        for kernel in KERNELS:
            for mode in MODES:
                self._run(kernel, mode)

    # ---------------------------------------------------------- metrics

    def _time(self, runs: List[RunRecord]) -> float:
        return sum(self.seconds(r.start, r.end) for r in runs)

    @staticmethod
    def _runs(passes, modes) -> List[RunRecord]:
        return [run for record in passes for run in record.runs
                if run.mode in modes]

    def end_to_end(self, passes) -> Dict[str, tuple]:
        instrumented = self._runs(passes, HANDLERS)
        captures = self._runs(passes, ("capture",))
        app_rate = ratio(sum(r.app_instrs for r in instrumented),
                         self._time(instrumented))
        return {
            "work_per_s": (app_rate, "1/s"),
            "app_winstr_per_s": (app_rate, "1/s"),
            "capture_events_per_s": (
                ratio(sum(r.events for r in captures),
                      self._time(captures)), "1/s"),
        }

    def per_layer(self, passes, breakdown) -> Dict[str, float]:
        count = len(passes)
        runs = self._runs(passes, MODES)
        writers = self._runs(passes, ("memtrace", "capture"))
        app = sum(r.app_instrs for r in runs)
        sassi = sum(r.sassi_instrs for r in runs)
        metrics = {
            "sassi.sites": sum(r.sites for r in runs) / count,
            "sim.app_warp_instrs": app / count,
            "sim.sassi_warp_instrs": sassi / count,
            "sim.winstr_per_s": ratio((app + sassi) / count,
                                      breakdown.mean("sim.launch_s")),
            "trace.events_written": sum(r.events for r in writers) / count,
            "trace.bytes_per_event": ratio(sum(r.bytes for r in writers),
                                           sum(r.events for r in writers)),
        }
        for mode in HANDLERS + ("capture",):
            mode_runs = self._runs(passes, (mode,))
            app_mode = sum(r.app_instrs for r in mode_runs)
            metrics[f"sim.overhead_x.{mode}"] = ratio(
                app_mode + sum(r.sassi_instrs for r in mode_runs), app_mode)
        return metrics

    def warm(self) -> None:
        pass

    def extra_rss_mb(self) -> float:
        return 0.0

    def close(self) -> None:
        pass
