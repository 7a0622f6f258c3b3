"""Which public functions of the program mark each layer.

:func:`install` patches them on a :class:`~tracing.Tracer`; each span
is named after the per-layer metric its self time feeds.  The program
itself is not modified: the wrappers live only while a traced pass
runs.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterable

#: stock handler (the five case-study profilers, plus trace capture)
#: by the class that registers it
HANDLER_LABELS = {
    "BranchProfiler": "branch_profiler",
    "MemoryDivergenceProfiler": "memory_divergence",
    "OpcodeHistogram": "opcode_histogram",
    "ValueProfiler": "value_profiler",
    "MemoryTracer": "memtrace",
    "TraceRecorder": "capture",
}

#: replay analyses with a columnar feed, by class
ANALYSIS_LABELS = {
    "CacheSimAnalysis": "cachesim",
    "DivergenceAnalysis": "divergence",
    "MemoryDivergenceAnalysis": "memdiv",
    "OpcodeHistogramAnalysis": "opcodes",
    "TimingAnalysis": "timing",
}


class VectorCount:
    """Frames the vector decoder accepted (the rest took the scalar
    walk); frames decoded in all are the ``trace.decode_s`` spans."""

    def __init__(self):
        self.accepted = 0

    def observe(self, columns) -> None:
        self.accepted += columns is not None


def install(tracer, workload_classes: Iterable[type]) -> VectorCount:
    """Wrap every layer boundary; returns the live vector-decode count."""
    from repro.sassi.handlers import SassiRuntime
    from repro.sim.device import Device

    # import_module: some package __init__ files re-export a function
    # under its module's name (repro.trace.replay)
    compiler, inject, index, io, replay, timing = (
        importlib.import_module(f"repro.{name}") for name in (
            "backend.compiler", "sassi.inject", "trace.index", "trace.io",
            "trace.replay", "trace.timing"))

    for cls in workload_classes:
        tracer.patch(cls, "build_ir", "kernelir.build_ir_s")
    tracer.patch_function(compiler, "ptxas", "backend.ptxas_s")
    tracer.patch_function(inject, "instrument_kernel", "sassi.inject_s")
    tracer.patch(Device, "launch", "sim.launch_s")

    register = SassiRuntime.register_handler

    def register_handler(runtime, name, fn, *args, **kwargs):
        owner = type(getattr(fn, "__self__", None)).__name__
        label = HANDLER_LABELS.get(owner, name)
        traced = tracer.wrap_callable(fn, f"handlers.body_s.{label}")
        return register(runtime, name, traced, *args, **kwargs)

    tracer.replace(SassiRuntime, "register_handler", register_handler)

    for method in ("write", "write_batch", "close"):
        tracer.patch(io.TraceWriter, method, "trace.write_s")
    tracer.patch(index.IndexBuilder, "observe", "trace.index_s")
    tracer.patch(index.IndexBuilder, "finish", "trace.index_s")
    tracer.patch_function(index, "write_index", "trace.index_s")

    vector = VectorCount()
    tracer.patch_function(io, "decode_frame_columns", "trace.decode_s")
    tracer.patch_counter(io, "_columns_vector", vector.observe)

    classes: Dict[str, type] = {
        cls.__name__: cls for cls in (
            replay.CacheSimAnalysis, replay.DivergenceAnalysis,
            replay.MemoryDivergenceAnalysis,
            replay.OpcodeHistogramAnalysis, timing.TimingAnalysis)}
    for cls_name, label in ANALYSIS_LABELS.items():
        tracer.patch(classes[cls_name], "feed_columns",
                     f"replay.feed_s.{label}")
    tracer.patch(timing.TimingModel, "schedule", "replay.schedule_s")
    return vector
