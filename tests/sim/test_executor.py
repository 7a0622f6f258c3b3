"""Functional tests of the SIMT executor: correctness of kernels with
arithmetic, control flow, divergence, shared memory, atomics, barriers."""

from dataclasses import replace

import numpy as np
import pytest

from repro.backend import ptxas
from repro.isa import parse_kernel
from repro.kernelir import KernelBuilder, Type
from repro.kernelir.ir import AtomOp, Space
from repro.kernelir.types import PTR
from repro.sim import Device, DeviceFault, Dim3, HangDetected
from repro.sim.executor import SimConfig

from tests.conftest import (
    build_divergent_sum,
    build_saxpy,
    build_vecadd,
    divergent_sum_reference,
    run_vecadd,
)


class TestStraightLine:
    def test_vecadd(self, device, vecadd_kernel):
        a, b, out, _ = run_vecadd(device, vecadd_kernel, n=1000, block=256)
        assert np.allclose(out, a + b)

    def test_partial_last_warp(self, device, vecadd_kernel):
        a, b, out, _ = run_vecadd(device, vecadd_kernel, n=33, block=64)
        assert np.allclose(out, a + b)

    def test_saxpy_float_params(self, device):
        kernel = ptxas(build_saxpy())
        n = 257
        rng = np.random.default_rng(3)
        x = rng.random(n, dtype=np.float32)
        y = rng.random(n, dtype=np.float32)
        px, py = device.alloc_array(x), device.alloc_array(y)
        device.launch(kernel, Dim3(3), Dim3(128), [n, 2.5, px, py])
        out = device.read_array(py, n, np.float32)
        assert np.allclose(out, np.float32(2.5) * x + y)

    def test_multi_cta_grid(self, device, vecadd_kernel):
        a, b, out, stats = run_vecadd(device, vecadd_kernel, n=2048,
                                      block=128)
        assert np.allclose(out, a + b)


class TestDivergence:
    def test_divergent_loop_with_break(self, device):
        kernel = ptxas(build_divergent_sum())
        n = 300
        out_ptr = device.alloc(n * 4)
        device.launch(kernel, Dim3(2), Dim3(256), [n, out_ptr])
        out = device.read_array(out_ptr, n, np.int32)
        assert (out == divergent_sum_reference(n)).all()

    def test_if_else_both_sides(self, device):
        b = KernelBuilder("ifelse", [("n", Type.U32), ("out", PTR)])
        i = b.global_index_x()
        with b.if_(b.lt(i, b.param("n"))):
            branch = b.if_(b.eq(b.and_(i, 1), 0))
            result = b.var(0, Type.S32)
            with branch:
                b.assign(result, b.mul(b.cvt(i, Type.S32), 2))
            with branch.else_():
                b.assign(result, b.add(b.cvt(i, Type.S32), 100))
            b.store(b.gep(b.param("out"), i, 4), result)
        kernel = ptxas(b.finish())
        n = 128
        out_ptr = device.alloc(n * 4)
        device.launch(kernel, Dim3(1), Dim3(128), [n, out_ptr])
        out = device.read_array(out_ptr, n, np.int32)
        expected = np.where(np.arange(n) % 2 == 0, np.arange(n) * 2,
                            np.arange(n) + 100)
        assert (out == expected).all()

    def test_early_return_inside_if(self, device):
        b = KernelBuilder("early", [("n", Type.U32), ("out", PTR)])
        i = b.global_index_x()
        with b.if_(b.ge(i, b.param("n"))):
            b.ret()
        b.store(b.gep(b.param("out"), i, 4), b.add(b.cvt(i, Type.S32), 1))
        kernel = ptxas(b.finish())
        n = 40
        out_ptr = device.alloc(64 * 4)
        device.launch(kernel, Dim3(1), Dim3(64), [n, out_ptr])
        out = device.read_array(out_ptr, 64, np.int32)
        assert (out[:n] == np.arange(1, n + 1)).all()
        assert (out[n:] == 0).all()

    def test_nested_divergent_loops(self, device):
        b = KernelBuilder("nested", [("n", Type.U32), ("out", PTR)])
        i = b.global_index_x()
        with b.if_(b.lt(i, b.param("n"))):
            total = b.var(0, Type.S32)
            outer = b.cvt(b.and_(i, 3), Type.S32)
            with b.for_range(0, outer) as j:
                with b.for_range(0, j) as k:
                    b.assign(total, b.add(total, k))
            b.store(b.gep(b.param("out"), i, 4), total)
        kernel = ptxas(b.finish())
        n = 64
        out_ptr = device.alloc(n * 4)
        device.launch(kernel, Dim3(1), Dim3(64), [n, out_ptr])
        out = device.read_array(out_ptr, n, np.int32)

        def ref(i):
            return sum(k for j in range(i & 3) for k in range(j))

        assert (out == np.array([ref(i) for i in range(n)])).all()

    def test_continue_in_loop(self, device):
        b = KernelBuilder("cont", [("n", Type.U32), ("out", PTR)])
        i = b.global_index_x()
        with b.if_(b.lt(i, b.param("n"))):
            total = b.var(0, Type.S32)
            with b.for_range(0, 8) as j:
                with b.if_(b.eq(b.and_(j, 1), 1)):
                    b.continue_()
                b.assign(total, b.add(total, j))
            b.store(b.gep(b.param("out"), i, 4), total)
        kernel = ptxas(b.finish())
        n = 48
        out_ptr = device.alloc(n * 4)
        device.launch(kernel, Dim3(1), Dim3(64), [n, out_ptr])
        out = device.read_array(out_ptr, n, np.int32)
        assert (out == 0 + 2 + 4 + 6).all()


class TestSharedMemoryAndBarriers:
    def test_block_reverse_through_shared(self, device):
        b = KernelBuilder("reverse", [("data", PTR)])
        smem = b.shared_array(64 * 4)
        tid = b.tid_x()
        value = b.load_u32(b.gep(b.param("data"), tid, 4))
        b.store(b.shared_ptr(smem, tid, 4), value, space=Space.SHARED)
        b.barrier()
        reversed_index = b.sub(63, tid)
        got = b.load_u32(b.shared_ptr(smem, reversed_index, 4),
                         space=Space.SHARED)
        b.store(b.gep(b.param("data"), tid, 4), got)
        kernel = ptxas(b.finish())
        data = np.arange(64, dtype=np.uint32)
        ptr = device.alloc_array(data)
        device.launch(kernel, Dim3(1), Dim3(64), [ptr],
                      shared_bytes=64 * 4)
        out = device.read_array(ptr, 64, np.uint32)
        assert (out == data[::-1]).all()

    def test_barrier_across_warps(self, device):
        # warp 1 reads what warp 0 wrote before the barrier
        b = KernelBuilder("xwarp", [("out", PTR)])
        smem = b.shared_array(64 * 4)
        tid = b.tid_x()
        b.store(b.shared_ptr(smem, tid, 4), b.add(tid, 7),
                space=Space.SHARED)
        b.barrier()
        partner = b.xor(tid, 32)  # the other warp's lane
        got = b.load_u32(b.shared_ptr(smem, partner, 4), space=Space.SHARED)
        b.store(b.gep(b.param("out"), tid, 4), got)
        kernel = ptxas(b.finish())
        ptr = device.alloc(64 * 4)
        device.launch(kernel, Dim3(1), Dim3(64), [ptr])
        out = device.read_array(ptr, 64, np.uint32)
        expected = (np.arange(64) ^ 32) + 7
        assert (out == expected).all()


class TestAtomics:
    def test_global_atomic_add_counts_threads(self, device):
        b = KernelBuilder("count", [("counter", PTR)])
        b.atomic_add(b.param("counter"), 1)
        kernel = ptxas(b.finish())
        ptr = device.alloc(4)
        device.launch(kernel, Dim3(4), Dim3(64), [ptr])
        assert device.read_array(ptr, 1, np.uint32)[0] == 256

    def test_atomic_returns_old_value(self, device):
        b = KernelBuilder("ticket", [("counter", PTR), ("out", PTR)])
        i = b.global_index_x()
        ticket = b.atomic_add(b.param("counter"), 1)
        b.store(b.gep(b.param("out"), i, 4), ticket)
        kernel = ptxas(b.finish())
        counter = device.alloc(4)
        out_ptr = device.alloc(64 * 4)
        device.launch(kernel, Dim3(1), Dim3(64), [counter, out_ptr])
        tickets = device.read_array(out_ptr, 64, np.uint32)
        assert sorted(tickets) == list(range(64))

    def test_atomic_max(self, device):
        b = KernelBuilder("amax", [("best", PTR), ("data", PTR)])
        i = b.global_index_x()
        value = b.load_s32(b.gep(b.param("data"), i, 4))
        b.atom(AtomOp.MAX, b.param("best"), value, type_=Type.S32)
        kernel = ptxas(b.finish())
        rng = np.random.default_rng(11)
        data = rng.integers(-1000, 1000, 128).astype(np.int32)
        pd = device.alloc_array(data)
        best = device.alloc(4)
        device.memcpy_htod(best, np.array([-(2**31)], dtype=np.int32))
        device.launch(kernel, Dim3(2), Dim3(64), [best, pd])
        assert device.read_array(best, 1, np.int32)[0] == data.max()

    def test_shared_atomics(self, device):
        b = KernelBuilder("satom", [("out", PTR)])
        smem = b.shared_array(4)
        b.atomic_add(smem, 1, space=Space.SHARED)
        b.barrier()
        with b.if_(b.eq(b.tid_x(), 0)):
            b.store(b.param("out"),
                    b.load_u32(smem, space=Space.SHARED))
        kernel = ptxas(b.finish())
        ptr = device.alloc(4)
        device.launch(kernel, Dim3(1), Dim3(96), [ptr])
        assert device.read_array(ptr, 1, np.uint32)[0] == 96

    def test_unimplemented_atomic_op_faults(self, device):
        # the IR offers no compare-and-swap (its atom has no compare
        # operand), and an ATOM whose operation the executor lacks must
        # fault as an illegal instruction instead of running as ADD
        assert "CAS" not in AtomOp.__members__
        ptr = device.alloc(4)
        device.memcpy_htod(ptr, np.array([7], dtype=np.uint32))
        kernel = replace(parse_kernel(f"""
.kernel cas
        MOV32I R2, 0x{ptr & 0xFFFFFFFF:x} ;
        MOV32I R3, 0x{ptr >> 32:x} ;
        MOV32I R0, 5 ;
        ATOM.CAS.U32 R8, [R2], R0 ;
        EXIT ;
"""), num_regs=16)
        with pytest.raises(DeviceFault, match="illegal instruction"):
            device.launch(kernel, Dim3(1), Dim3(32), [])
        assert device.read_array(ptr, 1, np.uint32)[0] == 7


class TestFaults:
    def test_out_of_bounds_store_faults(self, device):
        b = KernelBuilder("oob", [("out", PTR)])
        b.store(b.add(b.param("out"), 1 << 30), 1)
        kernel = ptxas(b.finish())
        ptr = device.alloc(4)
        with pytest.raises(DeviceFault):
            device.launch(kernel, Dim3(1), Dim3(32), [ptr])

    def test_watchdog_detects_hang(self):
        device = Device(config=SimConfig(max_warp_instructions=10_000))
        b = KernelBuilder("spin", [("out", PTR)])
        flag = b.var(0, Type.S32)
        with b.while_(lambda: b.eq(flag, 0)):
            pass
        kernel = ptxas(b.finish())
        ptr = device.alloc(4)
        with pytest.raises(HangDetected):
            device.launch(kernel, Dim3(1), Dim3(32), [ptr])

    def test_wrong_arg_count_rejected(self, device, vecadd_kernel):
        with pytest.raises(DeviceFault):
            device.launch(vecadd_kernel, Dim3(1), Dim3(32), [1, 2])


class TestStats:
    def test_counts_are_plausible(self, device, vecadd_kernel):
        _, _, _, stats = run_vecadd(device, vecadd_kernel, n=256, block=128)
        assert stats.warp_instructions > 0
        assert stats.thread_instructions >= stats.warp_instructions
        assert stats.global_mem_instructions == 24  # 3 per warp, 8 warps
        assert stats.sassi_warp_instructions == 0

    def test_coalesced_transactions(self, device, vecadd_kernel):
        # unit-stride float accesses: 32 lanes x 4B = 4 lines of 32B
        _, _, _, stats = run_vecadd(device, vecadd_kernel, n=256, block=128)
        assert stats.global_transactions == 24 * 4

    def test_cycles_accumulate(self, device, vecadd_kernel):
        _, _, _, stats = run_vecadd(device, vecadd_kernel)
        assert stats.cycles >= stats.warp_instructions
