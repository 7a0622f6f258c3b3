"""The live pipeline stays on the fast path.

Runs ``rodinia/nn`` and ``rodinia/pathfinder`` uninstrumented, under
``branch_profiler``, ``opcode_histogram`` and ``value_profiler``, and as
a ``TraceRecorder`` capture, and counts, through test-side wrappers
only, how much of each run left the fused path:

* the share of warp instructions dispatched one at a time through
  ``Executor._execute`` (branches, predicated records and the rest of
  what no superblock or site plan covers);
* warp memory accesses not served by one gather or scatter
  (``_lane_parts`` returning several parts — a generic warp split by
  space — or a part whose lanes overlap, or a fault);
* compiled SASSI site plans that bailed to per-instruction execution
  (``SiteSequencePlan.execute`` returning None);
* injected call sequences that never became a site plan: a
  ``sassi``-tagged ``IADD R1, R1, -frame`` that starts no
  ``SiteSequencePlan`` in ``decode_kernel(kernel).blocks`` (a matcher
  that declined a sequence it used to take would only slow runs down).

The ceilings sit a little above the shares these runs have today, so a
change that knocks records off the fused path fails here whatever the
machine's speed.
"""

from __future__ import annotations

import pytest

import repro.sim.executor as executor_mod
from repro.backend import ptxas
from repro.handlers import BranchProfiler, OpcodeHistogram, ValueProfiler
from repro.isa.instruction import Imm
from repro.isa.opcodes import Opcode
from repro.isa.registers import GPR
from repro.sassi.abi import SiteSequencePlan
from repro.sim import Device
from repro.sim.executor import Executor, decode_kernel
from repro.trace.capture import TraceRecorder
from repro.trace.io import TraceWriter
from repro.workloads import make

pytestmark = pytest.mark.noskip

WORKLOADS = ["rodinia/nn", "rodinia/pathfinder"]

#: mode -> ceiling on the ``_execute`` share of warp instructions
#: (measured today: 0.200/0.236, 0.082/0.073, 0.025/0.030, 0.024/0.030
#: and 0.025/0.029 for nn/pathfinder)
CEILINGS = {
    "uninstrumented": 0.25,
    "branch_profiler": 0.09,
    "opcode_histogram": 0.035,
    "value_profiler": 0.035,
    "capture": 0.035,
}

PROFILERS = {"branch_profiler": BranchProfiler,
             "opcode_histogram": OpcodeHistogram,
             "value_profiler": ValueProfiler}


class _Counts:
    def __init__(self):
        self.executed = 0
        self.split = 0
        self.bailed = 0


def _count(monkeypatch) -> _Counts:
    counts = _Counts()
    execute = Executor._execute
    lane_parts = executor_mod._lane_parts
    plan_execute = SiteSequencePlan.execute

    def counted_execute(self, *args):
        counts.executed += 1
        return execute(self, *args)

    def counted_lane_parts(*args, **kwargs):
        parts, fault = lane_parts(*args, **kwargs)
        counts.split += len(parts) > 1 or fault is not None \
            or any(overlap for *_, overlap in parts)
        return parts, fault

    def counted_plan_execute(self, *args):
        partial = plan_execute(self, *args)
        counts.bailed += partial is None
        return partial

    monkeypatch.setattr(Executor, "_execute", counted_execute)
    monkeypatch.setattr(executor_mod, "_lane_parts", counted_lane_parts)
    monkeypatch.setattr(SiteSequencePlan, "execute", counted_plan_execute)
    return counts


def _declined_sequences(kernel):
    """``(injected call sequences, those that start no site plan)``."""
    decoded = decode_kernel(kernel)
    starts = [pos for pos, dec in enumerate(decoded.records)
              if dec.sassi and dec.opcode in (Opcode.IADD, Opcode.IADD32I)
              and dec.dsts == (GPR(1),) and len(dec.srcs) == 2
              and dec.srcs[0] == GPR(1) and isinstance(dec.srcs[1], Imm)
              and dec.srcs[1].value < 0]
    declined = sum(not isinstance(decoded.blocks[pos], SiteSequencePlan)
                   for pos in starts)
    return len(starts), declined


@pytest.mark.parametrize("mode", sorted(CEILINGS))
@pytest.mark.parametrize("name", WORKLOADS)
def test_runs_stay_on_the_fast_path(name, mode, monkeypatch, tmp_path):
    workload = make(name)
    device = Device()
    writer = None
    if mode == "uninstrumented":
        kernel = ptxas(workload.build_ir())
    elif mode == "capture":
        writer = TraceWriter(str(tmp_path / "capture.rptrace"))
        kernel = TraceRecorder(device, writer).compile(workload.build_ir())
    else:
        kernel = PROFILERS[mode](device).compile(workload.build_ir())
    launches = []
    device.on_kernel_exit(lambda _d, _k, stats: launches.append(stats))
    counts = _count(monkeypatch)
    try:
        assert workload.verify(workload.execute(device, kernel))
    finally:
        if writer is not None:
            writer.close()
    warp_instructions = sum(s.warp_instructions for s in launches)
    share = counts.executed / warp_instructions
    assert share <= CEILINGS[mode], \
        f"{name} {mode}: {share:.3f} of warp instructions dispatched " \
        f"one at a time (ceiling {CEILINGS[mode]})"
    assert counts.split == 0, \
        f"{name} {mode}: {counts.split} memory accesses took more than " \
        "one gather or scatter"
    assert counts.bailed == 0, \
        f"{name} {mode}: {counts.bailed} site plans bailed"
    sequences, declined = _declined_sequences(kernel)
    assert (sequences > 0) == (mode != "uninstrumented")
    assert declined == 0, \
        f"{name} {mode}: {declined} of {sequences} injected call " \
        "sequences built no site plan"
