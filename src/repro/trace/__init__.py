"""``repro.trace`` — binary event-trace capture, replay, and diff.

The Section 9.4 workflow as a subsystem: record one instrumented run
into a compact, versioned, streaming binary format (``.rptrace``), then
answer many questions offline at replay speed — cache simulation,
branch divergence, memory divergence, opcode histograms — and compare
traces across runs (``trace-diff``) to pinpoint where an injected error
first became architecturally visible.

Quick start::

    from repro.trace import TraceWriter, TraceRecorder, replay, \\
        CacheSimAnalysis

    with TraceWriter("run.rptrace") as writer:
        recorder = TraceRecorder(device, writer)
        kernel = recorder.compile(workload.build_ir())
        workload.execute(device, kernel)

    (cache,) = replay("run.rptrace", [CacheSimAnalysis()])
    print(cache.report())
"""

from repro.trace.format import (
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
    TraceFormatError,
    TraceManifest,
)
from repro.trace.io import FrameColumns, TraceReader, TraceWriter, \
    decode_frame_columns
from repro.trace.capture import CAPTURE_FLAGS, TraceRecorder, \
    capture_workload
from repro.trace.replay import (
    ANALYSES,
    CacheSimAnalysis,
    DivergenceAnalysis,
    MemoryDivergenceAnalysis,
    OpcodeHistogramAnalysis,
    TraceAnalysis,
    make_analysis,
    replay,
)
from repro.trace.index import (
    IndexBuilder,
    LaunchEntry,
    TraceIndex,
    build_index,
    ensure_index,
    index_path_for,
    read_index,
    sidecar_index,
    write_index,
)
from repro.trace.query import QueryFilter, QueryStats, count_query, \
    run_query
from repro.trace.diff import TraceDiff, diff_traces
from repro.trace.timing import (
    TeeWriter,
    TimingAnalysis,
    TimingModel,
    TimingReport,
    TimingSink,
    live_timing,
    render_iters,
    render_summary,
)

__all__ = [
    "BranchEvent", "InstrEvent", "KernelEndEvent", "LaunchEvent",
    "MemEvent", "TraceFormatError", "TraceManifest",
    "FrameColumns", "TraceReader", "TraceWriter",
    "decode_frame_columns",
    "CAPTURE_FLAGS", "TraceRecorder", "capture_workload",
    "ANALYSES", "CacheSimAnalysis", "DivergenceAnalysis",
    "MemoryDivergenceAnalysis", "OpcodeHistogramAnalysis",
    "TraceAnalysis", "make_analysis", "replay",
    "IndexBuilder", "LaunchEntry", "TraceIndex", "build_index",
    "ensure_index", "index_path_for", "read_index", "sidecar_index",
    "write_index",
    "QueryFilter", "QueryStats", "count_query", "run_query",
    "TraceDiff", "diff_traces",
    "TeeWriter", "TimingAnalysis", "TimingModel", "TimingReport",
    "TimingSink", "live_timing", "render_iters", "render_summary",
]
