"""Tests for the injection pass: the Figure 2 golden sequence, semantic
preservation under instrumentation (with caller-saved poisoning), site
selection, and the spill-skipping ablation."""

import numpy as np
import pytest

from repro.backend import CompileOptions, ptxas
from repro.isa.instruction import Imm, MemRef
from repro.isa.opcodes import Opcode
from repro.kernelir import KernelBuilder, Type
from repro.kernelir.ir import Space
from repro.kernelir.types import PTR
from repro.sassi import SassiRuntime, spec_from_flags
from repro.sassi.inject import InjectionReport, instrument_kernel
from repro.sassi.spec import InstClass, InstrumentationSpec, What
from repro.sim import Device, Dim3

from tests.conftest import (
    build_divergent_sum,
    build_vecadd,
    divergent_sum_reference,
    run_vecadd,
)


def noop_handler(ctx):
    pass


def compile_instrumented(device, kernel_ir, flags, handler=noop_handler,
                         after=None):
    runtime = SassiRuntime(device)
    runtime.register_before_handler(handler)
    runtime.register_after_handler(after or noop_handler)
    spec = spec_from_flags(flags)
    return runtime.compile(kernel_ir, spec), runtime


class TestFigure2Sequence:
    """The paper's Figure 2: instrumenting a predicated global store
    before=memory with mem-info.  The kernel is hand-written SASS with
    the same shape as the paper's example (a ``@P0 ST`` with live R0,
    R10, R11)."""

    def build(self):
        from repro.isa import parse_kernel

        source = """
.kernel vadd
        MOV R10, c[0x0][0x148] ;
        MOV R11, c[0x0][0x14c] ;
        MOV R0, c[0x0][0x140] ;
        ISETP.LT.U32.AND P0, PT, R0, c[0x0][0x150], PT ;
        @P0 STG [R10], R0 ;
        EXIT ;
"""
        kernel = parse_kernel(source)
        spec = spec_from_flags(
            "-sassi-inst-before=memory -sassi-before-args=mem-info")
        instrumented = instrument_kernel(
            kernel, spec, lambda name: 0x7F000000, fn_addr=0x1000)
        instrumented.validate()
        return instrumented

    def injected_run(self, kernel):
        """The injected instructions around the (only) STG."""
        store_at = next(i for i, ins in enumerate(kernel.instructions)
                        if ins.opcode is Opcode.STG)
        start = store_at
        while start and kernel.instructions[start - 1].tag == "sassi":
            start -= 1
        return kernel.instructions[start:store_at], store_at

    def test_frame_is_0x80_as_in_the_paper(self):
        kernel = self.build()
        seq, _ = self.injected_run(kernel)
        alloc = seq[0]
        assert alloc.opcode is Opcode.IADD
        assert alloc.srcs[1] == Imm(-0x80)
        assert kernel.frame_bytes == 0x80

    def test_sequence_steps_in_figure_order(self):
        kernel = self.build()
        seq, _ = self.injected_run(kernel)
        ops = [i.opcode for i in seq]
        # step 2: predicate spill via P2R + STL
        p2r = ops.index(Opcode.P2R)
        assert ops[p2r + 1] is Opcode.STL
        # step 7: the call
        jcal = ops.index(Opcode.JCAL)
        # step 8 is after the call: restores
        r2p = ops.index(Opcode.R2P)
        assert p2r < jcal < r2p

    def test_spills_use_register_numbered_slots(self):
        kernel = self.build()
        seq, _ = self.injected_run(kernel)
        from repro.sassi.params import BP_GPR_SPILL

        for instr in seq:
            if instr.opcode is Opcode.STL and isinstance(
                    instr.srcs[1], type(instr.srcs[1])):
                ref = instr.mem_ref
                data = instr.srcs[1]
                if hasattr(data, "index") \
                        and ref.offset >= BP_GPR_SPILL \
                        and ref.offset < BP_GPR_SPILL + 64 \
                        and (ref.offset - BP_GPR_SPILL) % 4 == 0 \
                        and instr.mods == ():
                    slot = (ref.offset - BP_GPR_SPILL) // 4
                    if slot < 16 and data.index < 16:
                        assert slot == data.index

    def test_pointer_setup_matches_abi(self):
        kernel = self.build()
        seq, _ = self.injected_run(kernel)
        lops = [i for i in seq if i.opcode is Opcode.LOP]
        # bp pointer in R4, extra params pointer in R6
        dsts = {i.dsts[0].index for i in lops}
        assert {4, 6} <= dsts

    def test_wide_store_of_address_pair(self):
        kernel = self.build()
        seq, _ = self.injected_run(kernel)
        wide_stores = [i for i in seq if i.opcode is Opcode.STL
                       and "64" in i.mods]
        assert len(wide_stores) == 1  # mp.address

    def test_original_store_unmodified(self):
        kernel = self.build()
        _, store_at = self.injected_run(kernel)
        store = kernel.instructions[store_at]
        assert store.tag is None
        assert not store.guard.is_unconditional  # still predicated

    def test_guarded_will_execute_pair(self):
        # the @P0 IADD R4, RZ, 0x1 / @!P0 IADD R4, RZ, 0x0 idiom
        kernel = self.build()
        seq, _ = self.injected_run(kernel)
        guarded = [i for i in seq if i.opcode is Opcode.IADD
                   and not i.guard.is_unconditional]
        assert len(guarded) == 2
        assert {i.srcs[1].value for i in guarded} == {0, 1}
        assert guarded[0].guard.negated != guarded[1].guard.negated

    def test_live_registers_spilled(self):
        # R0, R10, R11 are live across the site, exactly as in Figure 2
        kernel = self.build()
        seq, _ = self.injected_run(kernel)
        from repro.sassi.params import BP_GPR_SPILL

        spilled_regs = {(i.mem_ref.offset - BP_GPR_SPILL) // 4
                        for i in seq if i.opcode is Opcode.STL
                        and not i.mods
                        and BP_GPR_SPILL <= i.mem_ref.offset < 0x58}
        assert {0, 10, 11} <= spilled_regs

    def test_restores_mirror_spills(self):
        kernel = self.build()
        seq, _ = self.injected_run(kernel)
        from repro.sassi.params import BP_GPR_SPILL

        spilled = {i.mem_ref.offset for i in seq
                   if i.opcode is Opcode.STL and not i.mods
                   and BP_GPR_SPILL <= i.mem_ref.offset < 0x58}
        filled = {i.mem_ref.offset for i in seq
                  if i.opcode is Opcode.LDL
                  and BP_GPR_SPILL <= i.mem_ref.offset < 0x58}
        assert spilled == filled


class TestSemanticPreservation:
    """Instrumented kernels must compute identical results even though
    the trampoline poisons every caller-saved register after each call."""

    @pytest.mark.parametrize("flags", [
        "-sassi-inst-before=memory -sassi-before-args=mem-info",
        "-sassi-inst-before=branches -sassi-before-args=cond-branch-info",
        "-sassi-inst-before=all "
        "-sassi-before-args=mem-info,cond-branch-info",
        "-sassi-inst-after=reg-writes -sassi-after-args=reg-info",
        "-sassi-inst-before=all -sassi-inst-after=reg-writes "
        "-sassi-after-args=reg-info,mem-info",
    ])
    def test_vecadd_unchanged(self, flags):
        device = Device()
        kernel, _ = compile_instrumented(device, build_vecadd(), flags)
        a, b, out, stats = run_vecadd(device, kernel, n=200, block=64)
        assert np.allclose(out, a + b)
        assert stats.handler_calls > 0
        assert stats.sassi_warp_instructions > 0

    def test_divergent_kernel_unchanged(self):
        device = Device()
        kernel, _ = compile_instrumented(
            device, build_divergent_sum(),
            "-sassi-inst-before=all "
            "-sassi-before-args=mem-info,cond-branch-info")
        n = 200
        out_ptr = device.alloc(n * 4)
        device.launch(kernel, Dim3(1), Dim3(256), [n, out_ptr])
        out = device.read_array(out_ptr, n, np.int32)
        assert (out == divergent_sum_reference(n)).all()

    def test_shared_memory_kernel_unchanged(self):
        device = Device()
        b = KernelBuilder("rev", [("data", PTR)])
        smem = b.shared_array(64 * 4)
        tid = b.tid_x()
        b.store(b.shared_ptr(smem, tid, 4),
                b.load_u32(b.gep(b.param("data"), tid, 4)),
                space=Space.SHARED)
        b.barrier()
        got = b.load_u32(b.shared_ptr(smem, b.sub(63, tid), 4),
                         space=Space.SHARED)
        b.store(b.gep(b.param("data"), tid, 4), got)
        kernel, _ = compile_instrumented(
            device, b.finish(),
            "-sassi-inst-before=memory -sassi-before-args=mem-info")
        data = np.arange(64, dtype=np.uint32)
        ptr = device.alloc_array(data)
        device.launch(kernel, Dim3(1), Dim3(64), [ptr])
        assert (device.read_array(ptr, 64, np.uint32) == data[::-1]).all()


class TestPredicatedExit:
    """A site ahead of ``@P0 EXIT`` must preserve what the guard-false
    lanes use after it: hand-written SASS, one CTA of 32 threads, where
    threads 0-15 survive the exit and store R5."""

    SOURCE = """
.kernel pexit
.param out 0x140 8
        S2R R0, SR_TID.X ;
        MOV32I R5, 0x7 ;
        ISETP.GE.U32.AND P0, PT, R0, 0x10, PT ;
        @P0 EXIT ;
        MOV R10, c[0x0][0x140] ;
        MOV R11, c[0x0][0x144] ;
        STG [R10], R5 ;
        EXIT ;
"""

    def stored(self, flags=None):
        from repro.isa import parse_kernel

        device = Device()
        kernel = parse_kernel(self.SOURCE)
        if flags is not None:
            runtime = SassiRuntime(device)
            runtime.register_before_handler(noop_handler)
            kernel = runtime.instrument(spec_from_flags(flags))(kernel)
        out = device.alloc(4)
        device.launch(kernel, Dim3(1), Dim3(32), [out])
        return int(device.read_array(out, 1, np.uint32)[0])

    def test_instrumented_run_keeps_r5(self):
        assert self.stored() == self.stored("-sassi-inst-before=all") == 0x7


class TestSiteSelection:
    def test_memory_only_instruments_memory_ops(self):
        device = Device()
        kernel, runtime = compile_instrumented(
            device, build_vecadd(),
            "-sassi-inst-before=memory -sassi-before-args=mem-info")
        report = runtime.reports[0]
        baseline = ptxas(build_vecadd())
        memory_ops = sum(1 for i in baseline.instructions if i.is_memory)
        assert report.before_sites == memory_ops

    def test_all_instruments_everything_once(self):
        device = Device()
        kernel, runtime = compile_instrumented(
            device, build_vecadd(), "-sassi-inst-before=all")
        report = runtime.reports[0]
        baseline = ptxas(build_vecadd())
        assert report.before_sites == len(baseline.instructions)

    def test_injected_code_not_reinstrumented(self):
        device = Device()
        kernel, _ = compile_instrumented(
            device, build_vecadd(), "-sassi-inst-before=all")
        jcal_count = sum(1 for i in kernel.instructions
                         if i.opcode is Opcode.JCAL)
        baseline = ptxas(build_vecadd())
        assert jcal_count == len(baseline.instructions)

    def test_labels_point_at_instrumentation(self):
        # jumping to a label must execute the target's instrumentation
        device = Device()
        kernel, _ = compile_instrumented(
            device, build_divergent_sum(), "-sassi-inst-before=all")
        for name, index in kernel.labels.items():
            if index < len(kernel.instructions):
                pass  # validated by execution tests; structural check:
        kernel.validate()


class TestSkipRedundantSpills:
    def test_ablation_reduces_spills(self):
        device = Device()
        runtime = SassiRuntime(device)
        runtime.register_before_handler(noop_handler)
        base_spec = spec_from_flags("-sassi-inst-before=all")
        opt_spec = spec_from_flags(
            "-sassi-inst-before=all -sassi-skip-redundant-spills")

        baseline = runtime.compile(build_vecadd(), base_spec)
        base_report = runtime.reports[-1]
        optimized = runtime.compile(build_vecadd(), opt_spec)
        opt_report = runtime.reports[-1]
        assert opt_report.spills_skipped > 0
        assert len(optimized.instructions) < len(baseline.instructions)

    def test_ablation_preserves_results(self):
        device = Device()
        runtime = SassiRuntime(device)
        runtime.register_before_handler(noop_handler)
        spec = spec_from_flags(
            "-sassi-inst-before=all -sassi-skip-redundant-spills")
        kernel = runtime.compile(build_vecadd(), spec)
        a, b, out, _ = run_vecadd(device, kernel, n=100, block=64)
        assert np.allclose(out, a + b)


class TestRegisterCap:
    def test_fat_handler_rejected(self):
        from repro.sassi.handlers import HandlerRegistrationError

        device = Device()
        runtime = SassiRuntime(device)
        runtime.register_before_handler(noop_handler, registers=64)
        with pytest.raises(HandlerRegistrationError):
            runtime.instrument(spec_from_flags("-sassi-inst-before=all"))

    def test_sixteen_register_handler_accepted(self):
        device = Device()
        runtime = SassiRuntime(device)
        runtime.register_before_handler(noop_handler, registers=16)
        runtime.instrument(spec_from_flags("-sassi-inst-before=all"))
