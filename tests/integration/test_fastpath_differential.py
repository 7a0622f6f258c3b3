"""Fast-path differential suite: the fused-superblock / vector-memory
executor must be architecturally AND statistically invisible.

Three executors run every workload:

* **fast** — the executor (superblock fusion, site plans, vector
  memory);
* **slow** — :class:`tests.executor_oracle.OracleExecutor`,
  per-instruction dispatch with per-lane scalar memory;
* **stepped** — :class:`tests.executor_oracle.StepExecutor`, driven one
  raw :class:`Instruction` at a time through the public
  ``Executor.step`` API.

All three must produce bit-identical outputs, :class:`KernelStats`
(every field, including cycles, transactions, and the opcode Counter),
and telemetry dispatch counters — with and without SASSI
instrumentation.  Captured binary traces must be byte-identical
between the fast path and the oracle.
"""

from __future__ import annotations

import contextlib
import filecmp

import numpy as np
import pytest

from repro.backend import ptxas
from repro.sassi import SassiRuntime, spec_from_flags
from repro.sim import Device
from repro.telemetry.collector import TELEMETRY
from repro.trace.capture import TraceRecorder
from repro.trace.io import TraceWriter
from repro.workloads import make
from tests.executor_oracle import (OracleExecutor, StepExecutor,
                                   oracle_executor)

WORKLOADS = [
    "rodinia/nn",
    "rodinia/pathfinder",
    "rodinia/hotspot",
    "parboil/sgemm(small)",
    "parboil/spmv(small)",
]

#: workloads whose stores or atomics have lanes overlapping within a
#: warp (applied in lane order); uninstrumented only
CONFLICTING_WORKLOADS = [
    "parboil/bfs(NY)",
    "rodinia/bfs",
    "parboil/histo",
    "parboil/mri-gridding",
    "parboil/tpacf(small)",
]

HEAVY_FLAGS = ("-sassi-inst-before=all "
               "-sassi-before-args=mem-info,reg-info,cond-branch-info")


def _run(name, flags=None, oracle=None):
    """One full application run, on the fast path or (*oracle* set to an
    oracle executor class) under :func:`oracle_executor`.

    Returns ``(output, stats_list, telemetry_counters)`` with
    telemetry enabled for the duration of the run.
    """
    workload = make(name)
    device = Device()
    if flags is None:
        kernel = ptxas(workload.build_ir())
    else:
        runtime = SassiRuntime(device, poison_caller_saved=False)
        spec = spec_from_flags(flags)
        runtime.register_before_handler(lambda ctx: None)
        kernel = runtime.compile(workload.build_ir(), spec)
    stats_list = []
    device.on_kernel_exit(lambda _d, _k, stats: stats_list.append(stats))
    executor = contextlib.nullcontext() if oracle is None \
        else oracle_executor(oracle)
    TELEMETRY.enable(reset=True)
    try:
        with executor:
            output = workload.execute(device, kernel)
        counters = dict(TELEMETRY.counters)
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    return output, stats_list, counters


def _assert_equivalent(name, base, other, what):
    base_out, base_stats, base_counters = base
    other_out, other_stats, other_counters = other
    assert np.array_equal(base_out, other_out), \
        f"{name}: output differs on the {what} path"
    assert len(base_stats) == len(other_stats)
    for index, (a, b) in enumerate(zip(base_stats, other_stats)):
        assert a == b, \
            f"{name}: KernelStats differ on the {what} path " \
            f"(launch #{index}):\n  fast={a}\n  {what}={b}"
    assert base_counters == other_counters, \
        f"{name}: telemetry counters differ on the {what} path"


@pytest.mark.parametrize("name", WORKLOADS + CONFLICTING_WORKLOADS)
def test_slow_path_bit_identical(name):
    fast = _run(name)
    slow = _run(name, oracle=OracleExecutor)
    _assert_equivalent(name, fast, slow, "slow")


@pytest.mark.parametrize("name", WORKLOADS)
def test_slow_path_bit_identical_instrumented(name):
    fast = _run(name, flags=HEAVY_FLAGS)
    slow = _run(name, flags=HEAVY_FLAGS, oracle=OracleExecutor)
    _assert_equivalent(name, fast, slow, "slow")


@pytest.mark.parametrize("name", ["rodinia/nn", "rodinia/pathfinder",
                                  "parboil/sgemm(small)"])
def test_step_path_bit_identical(name):
    fast = _run(name)
    stepped = _run(name, oracle=StepExecutor)
    _assert_equivalent(name, fast, stepped, "stepped")


@pytest.mark.parametrize("name", ["rodinia/nn", "parboil/sgemm(small)",
                                  "parboil/spmv(small)"])
def test_trace_capture_bit_identical(name, tmp_path):
    paths = {}
    for label, executor in (("fast", contextlib.nullcontext()),
                            ("slow", oracle_executor())):
        workload = make(name)
        device = Device()
        path = str(tmp_path / f"{label}.rptrace")
        with TraceWriter(path) as writer:
            recorder = TraceRecorder(device, writer)
            kernel = recorder.compile(workload.build_ir())
            with executor:
                workload.execute(device, kernel)
        paths[label] = path
    assert filecmp.cmp(paths["fast"], paths["slow"], shallow=False), \
        f"{name}: captured traces differ between fast path and oracle"
