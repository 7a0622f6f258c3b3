"""Golden-stat regression tests.

Each snapshot in ``tests/golden/`` pins the merged
:class:`~repro.sim.executor.KernelStats` of one small workload's run —
instruction counts, opcode histogram, memory transactions, cycles.
Most runs are uninstrumented; a few run under a stock handler, one of
them sampled at 1/3 by an :class:`AdaptiveController`, so the
instrumented and sampled flat cycle counts behind Table 3 are pinned
too.  Any executor, coalescer, or cost-model change that shifts these
numbers fails here first, loudly, with a diff.

To bless an intentional change::

    PYTHONPATH=src python -m pytest tests/integration/test_golden_stats.py \
        --update-golden
"""

from __future__ import annotations

import json
import os

import pytest

from repro.backend import ptxas
from repro.campaign.engine import merge_kernel_stats
from repro.handlers import BranchProfiler, OpcodeHistogram, ValueProfiler
from repro.sassi.runtime import AdaptiveController, EveryNth
from repro.sim import Device
from repro.workloads import make

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")

GOLDEN_WORKLOADS = [
    "rodinia/nn",
    "rodinia/hotspot",
    "rodinia/pathfinder",
    "parboil/sgemm(small)",
    "parboil/spmv(small)",
]

#: instrumented runs: mode -> (handler class, 1-in-N sampling or None)
INSTRUMENTED_MODES = {
    "branch_profiler": (BranchProfiler, None),
    "value_profiler": (ValueProfiler, None),
    "opcode_histogram_nth3": (OpcodeHistogram, 3),
}

GOLDEN_CASES = GOLDEN_WORKLOADS + [
    f"{name}:{mode}" for name in ("rodinia/nn", "rodinia/pathfinder")
    for mode in INSTRUMENTED_MODES]


def _slug(case: str) -> str:
    return (case.replace("/", "_").replace("(", "_")
            .replace(")", "").replace(":", "__").lower())


def _snapshot(case: str) -> dict:
    name, _, mode = case.partition(":")
    workload = make(name)
    device = Device()
    if mode:
        handler, nth = INSTRUMENTED_MODES[mode]
        if nth is not None:
            AdaptiveController(sampling=EveryNth(nth)).install(device)
        kernel = handler(device).compile(workload.build_ir())
    else:
        kernel = ptxas(workload.build_ir())
    workload.execute(device, kernel)
    trace = workload.last_trace
    merged = merge_kernel_stats(trace.launches)
    snapshot = {
        "workload": name,
        "kernel_launches": trace.kernel_launches,
        "warp_instructions": merged.warp_instructions,
        "thread_instructions": merged.thread_instructions,
        "opcode_counts": {op.name: count for op, count in
                          sorted(merged.opcode_counts.items(),
                                 key=lambda item: item[0].name)},
        "global_mem_instructions": merged.global_mem_instructions,
        "global_transactions": merged.global_transactions,
        "barriers": merged.barriers,
        "cycles": merged.cycles,
        "max_stack_depth": merged.max_stack_depth,
    }
    if mode:
        snapshot.update(
            mode=mode,
            sassi_warp_instructions=merged.sassi_warp_instructions,
            sassi_thread_instructions=merged.sassi_thread_instructions,
            handler_calls=merged.handler_calls)
    return snapshot


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden_stats(name, update_golden):
    path = os.path.join(GOLDEN_DIR, f"{_slug(name)}.json")
    current = _snapshot(name)
    if update_golden:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(current, handle, indent=2, sort_keys=True)
            handle.write("\n")
        pytest.skip(f"golden snapshot rewritten: {path}")
    assert os.path.exists(path), \
        f"missing golden snapshot {path}; run with --update-golden"
    with open(path) as handle:
        golden = json.load(handle)
    assert current == golden, (
        f"{name}: executor statistics drifted from the golden snapshot; "
        f"if intentional, re-bless with --update-golden")
