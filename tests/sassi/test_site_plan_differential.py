"""Site-plan state differential: a compiled site program is invisible.

Every :class:`~repro.sassi.abi.SiteSequencePlan` compiled for the five
stock handlers, stock error injection, and a frame-rewriting handler
(``SetRegValue`` on every destination of every lane, written back by the
injected restores) on ``rodinia/nn``, ``rodinia/nw`` and
``parboil/spmv(small)`` runs twice from one Hypothesis-drawn warp state
— random registers, predicates and carry, a partial active mask, and a
per-lane stack pointer:

* **compiled** — ``Executor._site_body``, i.e. ``plan.execute`` plus
  the per-visit accounting, with opcode counts folded per launch;
* **reference** — the per-instruction walk of ``plan.records`` through
  ``Executor._execute``.

Registers, predicates, carry, ``pc``, the CTA's local-memory bytes,
device global memory (handler side effects), :class:`KernelStats`,
issue cycles and telemetry counters (``divergence.partial_dispatch``
included) must be identical after every plan.  The two sides run on
twin devices that stay in lockstep for as long as the paths agree.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.handlers import (BranchProfiler, MemoryDivergenceProfiler,
                            MemoryTracer, OpcodeHistogram, ValueProfiler)
from repro.handlers.error_injection import (INJECT_FLAGS,
                                            _InjectionHandler)
from repro.sassi import SassiRuntime, spec_from_flags
from repro.sassi import params as P
from repro.sassi.abi import SiteSequencePlan
from repro.sassi.cupti import CounterBuffer, CuptiSubscription
from repro.sim import Device
from repro.sim.costmodel import CycleCounter
from repro.sim.executor import (LOCAL_PHYS_BYTES, CTAContext, Executor,
                                KernelStats, decode_kernel)
from repro.sim.warp import WARP_SIZE, Warp
from repro.telemetry.collector import TELEMETRY
from repro.workloads import make

pytestmark = pytest.mark.noskip

WORKLOADS = ["rodinia/nn", "rodinia/nw", "parboil/spmv(small)"]


# A handler factory takes a device and returns ``(compile, seen)``:
# the instrumenting compile function and a list the handler appends the
# architectural state it observed at each call to.

def _error_injection(device):
    cupti = CuptiSubscription(device)
    counters = CounterBuffer(cupti, 1, per_kernel=False)
    runtime = SassiRuntime(device, poison_caller_saved=False)
    runtime.register_after_handler(
        _InjectionHandler(counters, target_event=0, dst_seed=1,
                          bit_seed=7))
    return (lambda ir: runtime.compile(ir, spec_from_flags(INJECT_FLAGS)),
            [])


def _frame_rewriter(device):
    """Records the warp state at the call, then flips bits of every
    destination value of every active lane via ``SetRegValue``; the
    injected restores write them back."""
    seen = []

    def handler(ctx):
        warp = ctx.warp
        seen.append((warp.regs.copy(), warp.preds.copy(),
                     warp.carry.copy(), warp.pc))
        if ctx.rp is None:
            return
        for index in range(ctx.rp.GetNumGPRDsts()):
            values = ctx.rp.GetRegValue(index)
            for lane in ctx.lanes():
                ctx.rp.SetRegValue(index, lane,
                                   int(values[lane]) ^ (0x9E3779B9 >> index))

    runtime = SassiRuntime(device, poison_caller_saved=False)
    runtime.register_after_handler(handler)
    return (lambda ir: runtime.compile(ir, spec_from_flags(INJECT_FLAGS)),
            seen)


def _profiler(cls):
    def factory(device):
        return cls(device).compile, []
    return factory


_TRACERS: list = []


def _memtrace(device):
    tracer = MemoryTracer(device)
    _TRACERS.append(tracer)     # closed (temp file removed) at teardown
    return tracer.compile, []


HANDLERS = {
    "branch_profiler": _profiler(BranchProfiler),
    "memory_divergence": _profiler(MemoryDivergenceProfiler),
    "opcode_histogram": _profiler(OpcodeHistogram),
    "value_profiler": _profiler(ValueProfiler),
    "memtrace": _memtrace,
    "error_injection": _error_injection,
    "frame_rewriter": _frame_rewriter,
}


@functools.lru_cache(maxsize=None)
def _twin(workload: str, handler: str):
    """Two identically prepared devices with their instrumented kernel
    and its compiled site plans (shared across examples: the two sides
    stay in lockstep as long as the paths agree)."""
    sides = []
    for _ in range(2):
        device = Device()
        compile_fn, seen = HANDLERS[handler](device)
        kernel = device.load_kernel(compile_fn(make(workload).build_ir()))
        plans = [unit for unit in decode_kernel(kernel).blocks_for(True)
                 if isinstance(unit, SiteSequencePlan)]
        sides.append((device, kernel, plans, seen))
    return sides


@pytest.fixture(scope="module", autouse=True)
def _release_twins():
    yield
    for tracer in _TRACERS:
        tracer.close()
    _TRACERS.clear()
    _twin.cache_clear()


def _executor(device, kernel) -> Executor:
    ex = Executor(device)
    ex._kernel = kernel
    ex._decoded = decode_kernel(kernel)
    ex._targets = ex._decoded.targets
    ex.stats = KernelStats(kernel=kernel.name)
    return ex


def _warp_state(rng, kernel, plan, mask):
    """A drawn warp parked at *plan*'s first record."""
    num_regs = max(kernel.num_regs, 8)
    warp = Warp(0, num_regs, WARP_SIZE,
                np.arange(WARP_SIZE, dtype=np.int64))
    warp.regs[:] = rng.integers(0, 1 << 32, warp.regs.shape,
                                dtype=np.uint64).astype(np.uint32)
    warp.preds[:7] = rng.integers(0, 2, (7, WARP_SIZE)).astype(bool)
    warp.carry[:] = rng.integers(0, 2, WARP_SIZE).astype(bool)
    # every lane's frame must fit the backed local window
    top = LOCAL_PHYS_BYTES + plan.frame - plan.max_touch
    warp.regs[1] = rng.integers(plan.frame, top + 1, WARP_SIZE)
    warp.active = mask.copy()
    warp.pc = plan.start
    return warp


def _run(side, plan, state, compiled):
    device, kernel, _, seen = side
    del seen[:]
    ex = _executor(device, kernel)
    warp, local = state
    warp = _copy_warp(warp)
    cta = CTAContext((0, 0, 0), 0, num_threads=WARP_SIZE)
    cta.local_block()[:] = local
    counter = CycleCounter()
    TELEMETRY.enable(reset=True)
    try:
        if compiled:
            ex._site_body(plan, warp, cta, counter)
            assert ex._visits == {plan: 1}, \
                "the compiled path bailed to per-instruction execution"
            ex._fold_visits()
        else:
            end = plan.start + plan.length
            while warp.pc < end:
                ex._execute(plan.records[warp.pc - plan.start], warp, cta,
                            counter)
        counters = dict(TELEMETRY.counters)
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    # handlers only write what the device heap has handed out
    heap = device.global_mem.data[:device._bump].copy()
    return (warp, cta.local_block().copy(), ex.stats, counter.cycles,
            counters, heap, list(seen))


def _copy_warp(warp: Warp) -> Warp:
    twin = Warp(warp.warp_id, warp.num_regs, WARP_SIZE,
                warp.lane_thread_ids)
    twin.regs[:] = warp.regs
    twin.preds[:] = warp.preds
    twin.carry[:] = warp.carry
    twin.active = warp.active.copy()
    twin.pc = warp.pc
    return twin


def _assert_same(plan, compiled, reference):
    (warp_a, local_a, stats_a, cycles_a, tele_a, mem_a, seen_a) = compiled
    (warp_b, local_b, stats_b, cycles_b, tele_b, mem_b, seen_b) = reference
    where = f"plan at {plan.start} (site {plan.site_id})"
    assert np.array_equal(warp_a.regs, warp_b.regs), f"{where}: registers"
    assert np.array_equal(warp_a.preds, warp_b.preds), f"{where}: preds"
    assert np.array_equal(warp_a.carry, warp_b.carry), f"{where}: carry"
    assert warp_a.pc == warp_b.pc, f"{where}: pc"
    assert np.array_equal(local_a, local_b), f"{where}: local memory"
    assert np.array_equal(mem_a, mem_b), f"{where}: global memory"
    assert stats_a == stats_b, f"{where}: KernelStats"
    assert cycles_a == cycles_b, f"{where}: issue cycles"
    assert tele_a == tele_b, f"{where}: telemetry counters"
    assert len(seen_a) == len(seen_b), f"{where}: handler calls"
    for at_call_a, at_call_b in zip(seen_a, seen_b):
        for part_a, part_b in zip(at_call_a, at_call_b):
            assert np.array_equal(part_a, part_b), \
                f"{where}: state seen by the handler"


_masks = st.one_of(
    st.just((1 << WARP_SIZE) - 1),
    st.integers(min_value=1, max_value=(1 << WARP_SIZE) - 1))


@pytest.mark.parametrize("handler", sorted(HANDLERS))
@pytest.mark.parametrize("workload", WORKLOADS)
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), bits=_masks)
def test_compiled_plan_matches_per_instruction_walk(workload, handler,
                                                    seed, bits):
    side_a, side_b = _twin(workload, handler)
    plans_a, plans_b = side_a[2], side_b[2]
    assert plans_a and len(plans_a) == len(plans_b)
    mask = np.array([(bits >> lane) & 1 for lane in range(WARP_SIZE)],
                    dtype=bool)
    rng = np.random.default_rng(seed)
    for plan_a, plan_b in zip(plans_a, plans_b):
        assert plan_a.start == plan_b.start
        warp = _warp_state(rng, side_a[1], plan_a, mask)
        local = rng.integers(0, 256, (WARP_SIZE, LOCAL_PHYS_BYTES),
                             dtype=np.uint8)
        compiled = _run(side_a, plan_a, (warp, local), compiled=True)
        reference = _run(side_b, plan_b, (warp, local), compiled=False)
        _assert_same(plan_a, compiled, reference)


def test_suite_covers_double_fills_and_frame_rewrites():
    """The plans above include a register filled twice by the restores
    (R2/R3 carry the predicate and carry spills before their own GPR
    fill) and after-sites that write register values back."""
    double = rewrites = 0
    for workload in WORKLOADS:
        for handler in HANDLERS:
            for plan in _twin(workload, handler)[0][2]:
                filled = [op[1] for op in plan.post_ops if op[0] == "fill"]
                double += len(filled) != len(set(filled))
                if handler == "frame_rewriter":
                    # a fill from beyond the before-params is a
                    # register-value write-back
                    rewrites += any(
                        op[0] == "fill"
                        and plan.fill_cols[4 * op[2]] >= P.BP_SIZE
                        for op in plan.post_ops)
    assert double > 0
    assert rewrites > 0
