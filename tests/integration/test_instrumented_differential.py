"""Instrumented fast/slow differential suite: the warp-wide handler
fast lanes must be invisible.

Each of the five stock handlers runs every workload twice:

* **fast** — the stock path: fused site plans, gathered context
  reads, and the handler's warp-wide body;
* **scalar** — the oracles: per-instruction dispatch with per-lane
  memory (:func:`tests.executor_oracle.oracle_executor`), per-lane
  context reads (:func:`tests.handler_oracle.per_lane_contexts`), and
  the handler's per-lane body (its ``tests.handler_oracle`` subclass).

Both paths must produce bit-identical workload outputs, handler
results, :class:`KernelStats`, and telemetry counters; captured traces
must be byte-identical files.
"""

from __future__ import annotations

import contextlib
import filecmp

import numpy as np
import pytest

from repro.handlers.branch_profiler import BranchProfiler
from repro.handlers.memory_divergence import MemoryDivergenceProfiler
from repro.handlers.memtrace import MemoryTracer
from repro.handlers.opcode_histogram import OpcodeHistogram
from repro.handlers.value_profiler import ValueProfiler
from repro.sim import Device
from repro.telemetry.collector import TELEMETRY
from repro.trace.capture import TraceRecorder
from repro.trace.io import TraceWriter
from repro.workloads import make
from tests.executor_oracle import oracle_executor
from tests.handler_oracle import (BranchProfilerOracle,
                                  MemoryDivergenceOracle,
                                  MemoryTracerOracle,
                                  OpcodeHistogramOracle,
                                  TraceRecorderOracle, ValueProfilerOracle,
                                  per_lane_contexts)

WORKLOADS = [
    "rodinia/nn",
    "rodinia/pathfinder",
    "parboil/sgemm(small)",
]


@contextlib.contextmanager
def _scalar_path():
    with oracle_executor(), per_lane_contexts():
        yield


def _run_profiled(name, make_profiler, collect, scalar):
    """Run *name* under ``make_profiler(device)``; return
    ``(output, handler_result, stats_list, telemetry_counters)``."""
    workload = make(name)
    device = Device()
    profiler = make_profiler(device)
    stats_list = []
    device.on_kernel_exit(lambda _d, _k, stats: stats_list.append(stats))
    path = _scalar_path() if scalar else contextlib.nullcontext()
    TELEMETRY.enable(reset=True)
    try:
        kernel = profiler.compile(workload.build_ir())
        with path:
            output = workload.execute(device, kernel)
        counters = dict(TELEMETRY.counters)
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    return output, collect(profiler), stats_list, counters


def _assert_identical(name, fast, scalar, what):
    fast_out, fast_result, fast_stats, fast_counters = fast
    slow_out, slow_result, slow_stats, slow_counters = scalar
    assert np.array_equal(fast_out, slow_out), \
        f"{name}: workload output differs for {what}"
    assert fast_result == slow_result, \
        f"{name}: handler results differ for {what}:\n" \
        f"  fast={fast_result}\n  scalar={slow_result}"
    assert fast_stats == slow_stats, \
        f"{name}: KernelStats differ for {what}"
    assert fast_counters == slow_counters, \
        f"{name}: telemetry counters differ for {what}"


def _differential(name, stock, oracle, collect, what):
    fast = _run_profiled(name, stock, collect, scalar=False)
    scalar = _run_profiled(name, oracle, collect, scalar=True)
    _assert_identical(name, fast, scalar, what)


@pytest.mark.parametrize("name", WORKLOADS)
def test_branch_profiler_differential(name):
    _differential(name, BranchProfiler, BranchProfilerOracle,
                  lambda p: p.branches(), "branch_profiler")


@pytest.mark.parametrize("name", WORKLOADS)
def test_memory_divergence_differential(name):
    _differential(name, MemoryDivergenceProfiler, MemoryDivergenceOracle,
                  lambda p: p.matrix().tolist(), "memory_divergence")


@pytest.mark.parametrize("name", WORKLOADS)
def test_opcode_histogram_differential(name):
    _differential(name, OpcodeHistogram, OpcodeHistogramOracle,
                  lambda p: p.totals(), "opcode_histogram")


@pytest.mark.parametrize("name", WORKLOADS)
def test_value_profiler_differential(name):
    _differential(name, ValueProfiler, ValueProfilerOracle,
                  lambda p: p.profiles(), "value_profiler")


@pytest.mark.parametrize("name", WORKLOADS)
def test_memtrace_differential(name, tmp_path):
    _differential(
        name,
        lambda device: MemoryTracer(
            device, path=str(tmp_path / "fast.rptrace")),
        lambda device: MemoryTracerOracle(
            device, path=str(tmp_path / "scalar.rptrace")),
        lambda p: list(p.records()), "memtrace")
    assert filecmp.cmp(str(tmp_path / "fast.rptrace"),
                       str(tmp_path / "scalar.rptrace"), shallow=False), \
        f"{name}: memtrace files differ between fast and scalar paths"


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_capture_differential(name, tmp_path):
    paths = {}
    for label, recorder_cls, path_ctx in (
            ("fast", TraceRecorder, contextlib.nullcontext()),
            ("scalar", TraceRecorderOracle, _scalar_path())):
        workload = make(name)
        device = Device()
        path = str(tmp_path / f"{label}.rptrace")
        with TraceWriter(path) as writer:
            recorder = recorder_cls(device, writer)
            kernel = recorder.compile(workload.build_ir())
            with path_ctx:
                workload.execute(device, kernel)
        paths[label] = path
    assert filecmp.cmp(paths["fast"], paths["scalar"], shallow=False), \
        f"{name}: captured traces differ between fast and scalar paths"
