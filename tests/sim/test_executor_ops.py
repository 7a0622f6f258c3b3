"""Targeted executor-semantics tests for less-travelled instructions:
warp communication (VOTE/SHFL), conversions, wide accesses, texture
loads, special registers, and the cost model."""

import numpy as np
import pytest

from repro.backend import ptxas
from repro.kernelir import KernelBuilder, Type
from repro.kernelir.ir import Space
from repro.kernelir.types import PTR
from repro.isa import parse_kernel
from repro.sim import Device, Dim3


def run_snippet(device, body, num_regs=24, block=32, params=()):
    text = ".kernel snip\n"
    for name, offset, size in params:
        text += f".param {name} 0x{offset:x} {size}\n"
    text += body + "\nEXIT ;"
    kernel = parse_kernel(text)
    from dataclasses import replace

    kernel = replace(kernel, num_regs=num_regs)
    return device.launch(kernel, Dim3(1), Dim3(block), [])


class TestWarpOps:
    def test_vote_ballot(self, device):
        from repro.sim.executor import Executor
        from repro.sim.warp import Warp
        from repro.sim.executor import CTAContext

        kernel = device.load_kernel(parse_kernel("""
.kernel v
        S2R R0, SR_LANEID ;
        ISETP.LT.U32.AND P0, PT, R0, 5, PT ;
        VOTE.BALLOT R2, P0 ;
        EXIT ;
"""))
        executor = Executor(device)
        executor._kernel = kernel
        warp = Warp(0, 8, 32, np.arange(32))
        executor._init_warp(warp, (0, 0, 0), Dim3(1), Dim3(32), 32)
        executor._run_warp(warp, CTAContext((0, 0, 0), 0))
        assert warp.regs[2, 0] == 0b11111

    def test_shfl_idx_broadcast(self, device):
        b = KernelBuilder("shfl", [("out", PTR)])
        # no SHFL in the IR menu: exercise via warp handler intrinsics
        # instead; this test covers the ISA op directly
        from repro.sim.executor import Executor, CTAContext
        from repro.sim.warp import Warp

        kernel = device.load_kernel(parse_kernel("""
.kernel s
        S2R R0, SR_LANEID ;
        MOV32I R1, 0 ;
        SHFL.IDX R2, R0, R1 ;
        EXIT ;
"""))
        executor = Executor(device)
        executor._kernel = kernel
        warp = Warp(0, 8, 32, np.arange(32))
        executor._init_warp(warp, (0, 0, 0), Dim3(1), Dim3(32), 32)
        executor._run_warp(warp, CTAContext((0, 0, 0), 0))
        assert (warp.regs[2] == 0).all()   # everyone got lane 0's value


class TestConversionsAndWidths:
    def test_f2i_and_i2f_roundtrip(self, device):
        b = KernelBuilder("conv", [("out", PTR)])
        tid = b.tid_x()
        as_float = b.cvt(b.cvt(tid, Type.S32), Type.F32)
        scaled = b.fmul(as_float, 2.5)
        back = b.cvt(scaled, Type.S32)
        b.store(b.gep(b.param("out"), tid, 4), back)
        kernel = ptxas(b.finish())
        out = device.alloc(32 * 4)
        device.launch(kernel, Dim3(1), Dim3(32), [out])
        got = device.read_array(out, 32, np.int32)
        expected = np.trunc(np.arange(32, dtype=np.float32)
                            * np.float32(2.5)).astype(np.int32)
        assert (got == expected).all()

    def test_128bit_load_store(self, device):
        kernel = device.load_kernel(parse_kernel("""
.kernel wide
        MOV R4, c[0x0][0x140] ;
        MOV R5, c[0x0][0x144] ;
        LDG.128 R8, [R4] ;
        IADD R4, R4, 0x10 ;
        STG.128 [R4], R8 ;
        EXIT ;
"""))
        from dataclasses import replace
        from repro.isa.program import KernelParam

        kernel = replace(kernel, num_regs=16,
                         params=(KernelParam("p", 0x140, 8),))
        device.program.kernels[kernel.name] = kernel
        buffer = device.alloc(64)
        payload = np.arange(4, dtype=np.uint32)
        device.memcpy_htod(buffer, payload)
        device.launch(kernel, Dim3(1), Dim3(1), [buffer])
        copied = device.read_array(buffer + 16, 4, np.uint32)
        assert (copied == payload).all()

    def test_texture_load_reads_global(self, device):
        b = KernelBuilder("tex", [("src", PTR), ("dst", PTR)])
        i = b.tid_x()
        value = b.load_u32(b.gep(b.param("src"), i, 4),
                           space=Space.TEXTURE)
        b.store(b.gep(b.param("dst"), i, 4), value)
        kernel = ptxas(b.finish())
        data = np.arange(32, dtype=np.uint32) * 3
        src = device.alloc_array(data)
        dst = device.alloc(32 * 4)
        stats = device.launch(kernel, Dim3(1), Dim3(32), [src, dst])
        assert (device.read_array(dst, 32, np.uint32) == data).all()
        from repro.isa.opcodes import Opcode

        assert stats.opcode_counts[Opcode.TLD] == 1


class TestSpecialRegisters:
    def test_2d_coordinates(self, device):
        b = KernelBuilder("coords", [("out", PTR)])
        linear = b.mad(b.tid_y(), b.ntid_x(), b.tid_x())
        block_linear = b.mad(b.ctaid_y(), b.nctaid_x(), b.ctaid_x())
        index = b.mad(block_linear,
                      b.mul(b.ntid_x(), b.ntid_y()), linear)
        b.store(b.gep(b.param("out"), index, 4), index)
        kernel = ptxas(b.finish())
        out = device.alloc(4 * 4 * 4 * 4)
        device.launch(kernel, Dim3(2, 2), Dim3(4, 4), [out])
        got = device.read_array(out, 64, np.uint32)
        assert (got == np.arange(64)).all()


class TestCostModel:
    def test_mufu_costs_more_than_iadd(self, device):
        def cycles_of(emit):
            b = KernelBuilder("cost", [("out", PTR)])
            value = b.cvt(b.tid_x(), Type.S32)
            for _ in range(8):
                value = emit(b, value)
            b.store(b.gep(b.param("out"), b.tid_x(), 4), value)
            kernel = ptxas(b.finish())
            out = device.alloc(32 * 4)
            return device.launch(kernel, Dim3(1), Dim3(32),
                                 [out]).cycles

        cheap = cycles_of(lambda b, v: b.add(v, 1))
        pricey = cycles_of(
            lambda b, v: b.cvt(b.sqrt(b.cvt(v, Type.F32)), Type.S32))
        assert pricey > cheap

    def test_diverged_memory_costs_more(self, device):
        def cycles_of(stride):
            b = KernelBuilder("div", [("data", PTR), ("s", Type.U32)])
            index = b.mul(b.tid_x(), b.param("s"))
            value = b.load_u32(b.gep(b.param("data"), index, 4))
            b.store(b.gep(b.param("data"), index, 4), value)
            kernel = ptxas(b.finish())
            data = device.alloc(32 * stride * 4 + 64)
            return device.launch(kernel, Dim3(1), Dim3(32),
                                 [data, stride]).cycles

        assert cycles_of(16) > cycles_of(1)


class TestFlo:
    def test_flo_edge_cases(self, device):
        from repro.sim.executor import CTAContext, Executor
        from repro.sim.warp import Warp

        kernel = device.load_kernel(parse_kernel("""
.kernel flo
        FLO R2, R3 ;
        EXIT ;
"""))
        values = [0, 1, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF, 2, 3]
        values += [1 << k for k in range(2, 27)]          # powers of two
        assert len(values) == 32
        executor = Executor(device)
        executor._kernel = kernel
        warp = Warp(0, 8, 32, np.arange(32))
        executor._init_warp(warp, (0, 0, 0), Dim3(1), Dim3(32), 32)
        warp.regs[3] = np.array(values, dtype=np.uint32)
        executor._run_warp(warp, CTAContext((0, 0, 0), 0))
        expected = [0xFFFFFFFF if v == 0 else v.bit_length() - 1
                    for v in values]
        assert warp.regs[2].tolist() == expected
