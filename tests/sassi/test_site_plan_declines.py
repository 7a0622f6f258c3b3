"""Runs the site-plan matcher declines stay on the per-instruction path.

``compile_site_plan`` (and ``_partition_superblocks`` around it) must
decline every run that is not the exact shape the injector emits.  Each
test here takes one real injected call sequence (a memory site of
``rodinia/nn`` with the address pair and ``bp``/``mp`` fields), mutates
it in one of the ways the matcher declines, and runs it as a kernel of
its own:

* no :class:`~repro.sassi.abi.SiteSequencePlan` is built for it;
* the production executor (superblocks and per-instruction dispatch)
  leaves the same registers, predicates, carry, local memory, stats,
  issue cycles and telemetry, and shows the handler the same state, as
  the per-instruction oracle with per-lane memory
  (:func:`tests.executor_oracle.oracle_executor`).

The unmutated sequence is the control: it builds a plan, and the plan's
run equals the oracle's too.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.isa.instruction import Imm, Instruction, LabelRef, PredGuard
from repro.isa.opcodes import Opcode
from repro.isa.program import SassKernel, SassProgram
from repro.isa.registers import PT, Pred
from repro.sassi import SassiRuntime, spec_from_flags
from repro.sassi.abi import SiteSequencePlan, compile_site_plan
from repro.sim import Device
from repro.sim.executor import (LOCAL_PHYS_BYTES, CTAContext, Executor,
                                KernelStats, decode_kernel)
from repro.sim.scheduler import flat_cycles
from repro.sim.warp import WARP_SIZE, Warp
from repro.telemetry.collector import TELEMETRY
from repro.workloads import make
from tests.executor_oracle import OracleExecutor, oracle_executor

pytestmark = pytest.mark.noskip

FLAGS = "-sassi-inst-before=memory -sassi-before-args=mem-info"

#: where the JCAL of the low-address mutation points (bound to the same
#: handler, so the per-instruction path can still call it)
LOW_HANDLER = SassProgram.HANDLER_BASE - 0x100


@functools.lru_cache(maxsize=None)
def _site():
    """A device with a state-recording before-handler, and the
    instructions of one injected memory-site sequence."""
    device = Device()
    seen: list = []

    def handler(ctx):
        warp = ctx.warp
        seen.append((warp.regs.copy(), warp.preds.copy(),
                     warp.carry.copy(), warp.pc))

    runtime = SassiRuntime(device)
    runtime.register_before_handler(handler)
    kernel = device.load_kernel(runtime.compile(
        make("rodinia/nn").build_ir(), spec_from_flags(FLAGS)))
    plan = next(unit for unit in decode_kernel(kernel).blocks
                if isinstance(unit, SiteSequencePlan)
                and any(dec.opcode is Opcode.STL and "64" in dec.mods
                        for dec in unit.records))
    bindings = device.handler_bindings
    bindings[LOW_HANDLER] = bindings[plan.jcal_addr]
    run = [dec.instr for dec in plan.records]
    return device, seen, kernel.num_regs, plan.frame, tuple(run)


def _index(run, opcode, nth=0, after_call=False):
    """Position of the *nth* *opcode* record (after the JCAL when
    *after_call*)."""
    jcal = next(i for i, instr in enumerate(run)
                if instr.opcode is Opcode.JCAL)
    hits = [i for i, instr in enumerate(run)
            if instr.opcode is opcode and (i > jcal) == after_call]
    return hits[nth]


def _with_offset(instr: Instruction, offset: int) -> Instruction:
    ref = replace(instr.srcs[0], offset=offset)
    return replace(instr, srcs=(ref, *instr.srcs[1:]))


def _non_sassi_record(run, frame):
    at = _index(run, Opcode.STL)
    run[at] = replace(run[at], tag=None)
    return run, {}


def _overlapping_stores(run, frame):
    first, second = _index(run, Opcode.STL), _index(run, Opcode.STL, 1)
    run[second] = _with_offset(run[second], run[first].srcs[0].offset)
    return run, {}


def _store_past_frame(run, frame):
    at = _index(run, Opcode.STL, 1)
    run[at] = _with_offset(run[at], frame)
    return run, {}


def _predicated_restore(run, frame):
    at = _index(run, Opcode.LDL, after_call=True)
    run[at] = replace(run[at], guard=PredGuard(Pred(0)))
    return run, {}


def _low_handler_address(run, frame):
    at = _index(run, Opcode.JCAL)
    run[at] = replace(run[at], srcs=(Imm(LOW_HANDLER),))
    return run, {}


def _branch_into_run(run, frame):
    # a never-taken branch after the run whose target is the JCAL
    run.append(Instruction(Opcode.BRA, srcs=(LabelRef("inside"),),
                           guard=PredGuard(PT, negated=True)))
    return run, {"inside": _index(run, Opcode.JCAL)}


MUTATIONS = {
    "non_sassi_record": _non_sassi_record,
    "overlapping_stores": _overlapping_stores,
    "store_past_frame": _store_past_frame,
    "predicated_restore": _predicated_restore,
    "low_handler_address": _low_handler_address,
    "branch_into_run": _branch_into_run,
}


def _kernel(run, labels, num_regs) -> SassKernel:
    body = (*run, Instruction(Opcode.EXIT))
    return SassKernel(name="site", instructions=body, labels=labels,
                      num_regs=num_regs)


def _warp(rng, num_regs, mask) -> Warp:
    warp = Warp(0, max(num_regs, 8), WARP_SIZE,
                np.arange(WARP_SIZE, dtype=np.int64))
    warp.regs[:] = rng.integers(0, 1 << 32, warp.regs.shape,
                                dtype=np.uint64).astype(np.uint32)
    warp.preds[:7] = rng.integers(0, 2, (7, WARP_SIZE)).astype(bool)
    warp.carry[:] = rng.integers(0, 2, WARP_SIZE).astype(bool)
    # room above the stack pointer, so a store past the frame lands
    warp.regs[1] = LOCAL_PHYS_BYTES - 64
    warp.active = mask.copy()
    warp.pc = 0
    return warp


def _run(executor_cls, device, seen, kernel, warp, local):
    del seen[:]
    ex = executor_cls(device)
    ex._kernel = kernel
    ex._decoded = decode_kernel(kernel)
    ex._targets = ex._decoded.targets
    ex.stats = KernelStats(kernel=kernel.name)
    cta = CTAContext((0, 0, 0), 0, num_threads=WARP_SIZE)
    cta.local_block()[:] = local
    TELEMETRY.enable(reset=True)
    try:
        ex._run_warp(warp, cta)
        ex._fold_visits()
        counters = dict(TELEMETRY.counters)
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    return (warp, cta.local_block().copy(), ex.stats, flat_cycles(ex.stats),
            counters, list(seen))


def _assert_same(fast, oracle):
    (warp_a, local_a, stats_a, cycles_a, tele_a, seen_a) = fast
    (warp_b, local_b, stats_b, cycles_b, tele_b, seen_b) = oracle
    assert warp_a.done and warp_b.done
    assert np.array_equal(warp_a.regs, warp_b.regs), "registers"
    assert np.array_equal(warp_a.preds, warp_b.preds), "predicates"
    assert np.array_equal(warp_a.carry, warp_b.carry), "carry"
    assert np.array_equal(local_a, local_b), "local memory"
    assert stats_a == stats_b, "KernelStats"
    assert cycles_a == cycles_b, "issue cycles"
    assert tele_a == tele_b, "telemetry counters"
    assert len(seen_a) == len(seen_b) == 1, "handler calls"
    for part_a, part_b in zip(seen_a[0], seen_b[0]):
        assert np.array_equal(part_a, part_b), "state seen by the handler"


def _check(mutation, full: bool):
    device, seen, num_regs, frame, run = _site()
    labels: dict = {}
    run = list(run)
    if mutation is not None:
        run, labels = MUTATIONS[mutation](run, frame)
    kernel = _kernel(run, labels, num_regs)
    plans = [unit for unit in decode_kernel(kernel).blocks
             if isinstance(unit, SiteSequencePlan)]
    if mutation is None:
        assert len(plans) == 1 and plans[0].length == len(run)
    else:
        assert plans == [], f"{mutation}: a plan was built"
    rng = np.random.default_rng(len(run))
    mask = np.ones(WARP_SIZE, dtype=bool) if full \
        else rng.integers(0, 2, WARP_SIZE).astype(bool) | (
            np.arange(WARP_SIZE) == 0)
    warp = _warp(rng, num_regs, mask)
    local = rng.integers(0, 256, (WARP_SIZE, LOCAL_PHYS_BYTES),
                         dtype=np.uint8)
    fast = _run(Executor, device, seen, kernel, _copy(warp), local)
    with oracle_executor():
        oracle = _run(OracleExecutor, device, seen, kernel, _copy(warp),
                      local)
    _assert_same(fast, oracle)


def _copy(warp: Warp) -> Warp:
    twin = Warp(warp.warp_id, warp.num_regs, WARP_SIZE,
                warp.lane_thread_ids)
    twin.regs[:] = warp.regs
    twin.preds[:] = warp.preds
    twin.carry[:] = warp.carry
    twin.active = warp.active.copy()
    twin.pc = warp.pc
    return twin


@pytest.mark.parametrize("full", [True, False], ids=["full", "partial"])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_declined_run_matches_the_oracle(mutation, full):
    _check(mutation, full)


@pytest.mark.parametrize("full", [True, False], ids=["full", "partial"])
def test_unmutated_run_builds_a_plan_that_matches_the_oracle(full):
    _check(None, full)


@pytest.mark.parametrize("mutation", sorted(set(MUTATIONS)
                                            - {"branch_into_run"}))
def test_matcher_declines_the_mutated_run(mutation):
    """The five record-shape declines are ``compile_site_plan``'s own;
    a branch target inside the run is the partitioner's."""
    device, seen, num_regs, frame, run = _site()
    run, _ = MUTATIONS[mutation](list(run), frame)
    records = decode_kernel(_kernel(run, {}, num_regs)).records
    assert compile_site_plan(records, 0, SassProgram.HANDLER_BASE) is None
