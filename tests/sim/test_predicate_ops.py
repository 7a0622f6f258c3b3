"""Regression tests for predicate file pack/unpack (P2R/R2P).

R2P once set P_i from ``(value >> i) != 0`` instead of bit *i*, which
silently corrupted low predicates whenever a higher one was set —
caught by the nw workload running under instrumentation (the SASSI
pred spill/restore round-trips the whole file at every site)."""

import numpy as np
import pytest

from repro.isa import parse_kernel
from repro.sim import Device, Dim3
from repro.sim.executor import CTAContext, Executor
from repro.sim.warp import Warp


def run_snippet(body: str, setup):
    device = Device()
    kernel = device.load_kernel(parse_kernel(f".kernel t\n{body}\nEXIT ;"))
    executor = Executor(device)
    executor._kernel = kernel
    cta = CTAContext((0, 0, 0), 0)
    warp = Warp(0, 16, 32, np.arange(32))
    setup(warp)

    executor._run_warp(warp, cta)
    return warp


class TestP2RR2P:
    @pytest.mark.parametrize("pattern", [
        0b0000001, 0b1111110, 0b0101010, 0b1000000, 0b0001110,
    ])
    def test_roundtrip_preserves_every_pattern(self, pattern):
        def setup(warp):
            for index in range(7):
                warp.preds[index, :] = bool(pattern & (1 << index))

        warp = run_snippet(
            "P2R R3, 0x7f ;\n"
            # scramble the predicate file, then restore from R3
            "ISETP.EQ.S32.AND P0, PT, RZ, RZ, PT ;\n"
            "ISETP.NE.S32.AND P1, PT, RZ, RZ, PT ;\n"
            "R2P R3, 0x7f ;",
            setup)
        for index in range(7):
            expected = bool(pattern & (1 << index))
            assert warp.preds[index, 0] == expected, f"P{index}"

    def test_r2p_respects_mask(self):
        def setup(warp):
            warp.preds[0, :] = True
            warp.preds[1, :] = True
            warp.regs[3, :] = 0  # would clear both without a mask

        warp = run_snippet("R2P R3, 0x2 ;", setup)
        assert warp.preds[0, 0]          # untouched (mask bit clear)
        assert not warp.preds[1, 0]      # cleared (mask bit set)

    def test_p2r_packs_per_lane(self):
        def setup(warp):
            warp.preds[2, :] = np.arange(32) % 2 == 0

        warp = run_snippet("P2R R5, 0x7f ;", setup)
        assert warp.regs[5, 0] & 0b100
        assert not warp.regs[5, 1] & 0b100
