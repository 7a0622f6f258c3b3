"""Differential tests: instrumentation must be architecturally invisible.

Three contracts from the paper's design (Sections 3 and 9):

1. Running a workload under SASSI instrumentation with no-op handlers
   must leave every piece of architectural state identical to the
   uninstrumented run — the output arrays, all of global memory, and
   the original kernel's registers at EXIT.  The injected ABI sequence
   may only touch state it spills and restores.
2. The same must hold with register write-back enabled when the handler
   does not modify anything (the read-modify-writeback path must be a
   faithful round trip).
3. Campaign results must not depend on how they were scheduled: a study
   run serially and the same study run with ``jobs=4`` must render
   byte-identical results.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.device as device_mod
from repro.backend import ptxas
from repro.sassi import SassiRuntime, spec_from_flags
from repro.sassi.abi import CALLER_SAVED
from repro.sim import Device
from repro.sim.executor import Executor
from repro.workloads import make

pytestmark = pytest.mark.noskip

#: workloads exercised end to end (registry names); small datasets,
#: but together they cover loads/stores, atomics, branches, loops,
#: shared memory, barriers, and multi-launch drivers.
DIFFERENTIAL_WORKLOADS = [
    "rodinia/nn",
    "rodinia/hotspot",
    "rodinia/pathfinder",
    "rodinia/nw",
    "rodinia/lud",
    "rodinia/backprop",
    "parboil/sgemm(small)",
    "parboil/spmv(small)",
    "parboil/stencil",
]

#: every instruction instrumented before, every write instrumented after
HEAVY_FLAGS = ("-sassi-inst-before=all "
               "-sassi-before-args=mem-info,reg-info,cond-branch-info")
WRITEBACK_FLAGS = ("-sassi-inst-after=reg-writes,memory "
                   "-sassi-after-args=reg-info,mem-info "
                   "-sassi-writeback-regs")


class _SnapshotExecutor(Executor):
    """Executor that snapshots each warp's registers when it exits."""

    snapshots: list = []

    def _run_warp(self, warp, cta, counter):
        super()._run_warp(warp, cta, counter)
        if warp.done:
            type(self).snapshots.append(warp.regs.copy())


def _run_workload(name, flags=None):
    """One complete run; returns (output, global memory, exit regs)."""
    workload = make(name)
    device = Device()
    ir = workload.build_ir()
    if flags is None:
        kernel = ptxas(ir)
        num_regs = kernel.num_regs
    else:
        runtime = SassiRuntime(device, poison_caller_saved=False)
        spec = spec_from_flags(flags)
        if spec.before:
            runtime.register_before_handler(lambda ctx: None)
        if spec.after:
            runtime.register_after_handler(lambda ctx: None)
        kernel = runtime.compile(ir, spec)
        num_regs = ptxas(workload.build_ir()).num_regs
    _SnapshotExecutor.snapshots = []
    output = workload.execute(device, kernel)
    # compare the registers the ABI preserves across handler calls: the
    # stack pointer and every callee-saved register of the original
    # kernel's allocation.  Caller-saved registers are only spilled and
    # restored while *live* (Figure 2: "the compiler knows exactly which
    # registers to spill"), so a dead one may legitimately hold ABI
    # scratch at EXIT.
    preserved = [r for r in range(num_regs) if r not in CALLER_SAVED]
    regs = [snap[preserved] for snap in _SnapshotExecutor.snapshots]
    return output, device.global_mem.data.copy(), regs


@pytest.fixture(autouse=True)
def _snapshot_launches(monkeypatch):
    monkeypatch.setattr(device_mod, "Executor", _SnapshotExecutor)


@pytest.mark.parametrize("name", DIFFERENTIAL_WORKLOADS)
def test_noop_instrumentation_is_invisible(name):
    base_out, base_mem, base_regs = _run_workload(name)
    inst_out, inst_mem, inst_regs = _run_workload(name, HEAVY_FLAGS)
    assert base_out.dtype == inst_out.dtype
    assert np.array_equal(base_out, inst_out), \
        f"{name}: output differs under no-op instrumentation"
    assert np.array_equal(base_mem, inst_mem), \
        f"{name}: global memory differs under no-op instrumentation"
    assert len(base_regs) == len(inst_regs)
    for index, (base, inst) in enumerate(zip(base_regs, inst_regs)):
        assert np.array_equal(base, inst), \
            f"{name}: exit registers differ (warp exit #{index})"


@pytest.mark.parametrize("name", ["rodinia/nn", "parboil/sgemm(small)",
                                  "rodinia/pathfinder"])
def test_noop_writeback_is_invisible(name):
    base_out, base_mem, base_regs = _run_workload(name)
    inst_out, inst_mem, inst_regs = _run_workload(name, WRITEBACK_FLAGS)
    assert np.array_equal(base_out, inst_out)
    assert np.array_equal(base_mem, inst_mem)
    for base, inst in zip(base_regs, inst_regs):
        assert np.array_equal(base, inst)


def test_study_results_independent_of_jobs():
    from repro.studies import casestudy3

    names = ["rodinia/nn", "rodinia/pathfinder"]
    serial = casestudy3.main(names, jobs=1)
    parallel = casestudy3.main(names, jobs=4)
    assert serial == parallel


def test_injection_campaign_independent_of_jobs():
    from repro.studies import casestudy4

    serial = casestudy4.main(["rodinia/nn"], num_injections=6, jobs=1)
    parallel = casestudy4.main(["rodinia/nn"], num_injections=6, jobs=4)
    assert serial == parallel
