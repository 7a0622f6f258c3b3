"""Case Study III (Figure 9): value profiling.

After every register-writing instruction the handler tracks, per
destination register:

* ``constantOnes`` / ``constantZeros`` — bits that were 1 (resp. 0) in
  *every* value written, maintained with atomic ANDs as in the paper;
* ``isScalar`` — whether all active lanes always agreed on the value
  (the ``__shfl``/``__all`` leader-compare idiom).

Host-side reports reproduce Table 2's four columns (dynamic/static % of
constant bits and scalar writes) and the per-instruction dumps of
Section 7.2 (``R13* <- [0000...0001]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.sassi import SassiRuntime, spec_from_flags
from repro.sassi.cupti import CuptiSubscription, DeviceHashTable
from repro.sassi.handlers import SASSIContext

#: hash-entry counter layout
WEIGHT = 0
NUM_DSTS = 1
_PER_DST = 4        # regNum, constantOnes, constantZeros, isScalar
MAX_DSTS = 4
NUM_COUNTERS = 2 + MAX_DSTS * _PER_DST


def _dst_slot(dst: int, field: int) -> int:
    return 2 + dst * _PER_DST + field


@dataclass
class InstructionValueProfile:
    """Host-side view of one instruction's value profile."""

    address: int
    weight: int
    dsts: List[Tuple[int, int, int, bool]]  # (reg, ones, zeros, scalar)

    def constant_bits(self, dst: int) -> int:
        """Number of bits constant across all dynamic values."""
        _, ones, zeros, _ = self.dsts[dst]
        return bin((ones | zeros) & 0xFFFFFFFF).count("1")

    def bit_pattern(self, dst: int) -> str:
        """The Section 7.2 dump format: 0/1 for constant bits, T for
        bits that toggled."""
        _, ones, zeros, _ = self.dsts[dst]
        chars = []
        for bit in range(31, -1, -1):
            mask = 1 << bit
            if ones & mask:
                chars.append("1")
            elif zeros & mask:
                chars.append("0")
            else:
                chars.append("T")
        return "".join(chars)


@dataclass
class ValueProfileSummary:
    """The Table 2 row: % constant bits and % scalar, dynamic & static."""

    dynamic_const_bits_pct: float
    dynamic_scalar_pct: float
    static_const_bits_pct: float
    static_scalar_pct: float


class ValueProfiler:
    """Attachable Case Study III profiler."""

    FLAGS = "-sassi-inst-after=reg-writes -sassi-after-args=reg-info"

    def __init__(self, device, capacity: int = 4096):
        self.device = device
        self.cupti = CuptiSubscription(device)
        self.table = DeviceHashTable(device, capacity=capacity,
                                     num_counters=NUM_COUNTERS)
        self.runtime = SassiRuntime(device)
        self.runtime.register_after_handler(self.handler)
        self.spec = spec_from_flags(self.FLAGS)

    def compile(self, kernel_ir, cache=None):
        return self.runtime.compile(kernel_ir, self.spec, cache=cache)

    def handler(self, ctx: SASSIContext) -> None:
        if ctx.rp is None:
            return
        num_dsts = ctx.rp.GetNumGPRDsts()
        if num_dsts == 0:
            return
        counters = self.table.find(ctx, ctx.bp.GetInsAddr())

        def ptr(index):
            return self.table.counter_ptr(counters, index)

        if ctx.read_device(ptr(WEIGHT), 8) == 0:
            # first touch: initialize the AND-accumulators
            ctx.write_device(ptr(NUM_DSTS), num_dsts, 8)
            for dst in range(num_dsts):
                ctx.write_device(ptr(_dst_slot(dst, 1)), 0xFFFFFFFF, 8)
                ctx.write_device(ptr(_dst_slot(dst, 2)), 0xFFFFFFFF, 8)
                ctx.write_device(ptr(_dst_slot(dst, 3)), 1, 8)
        # WEIGHT is the only additive counter here; the AND-accumulators
        # and the isScalar flag are idempotent and must not be scaled
        ctx.atomic_add(ptr(WEIGHT), ctx.sample_rate)

        # one AND and one OR reduction per destination: bits set in
        # every active value are the AND, bits clear in every one are
        # the complement of the OR, and the lanes agree exactly when
        # the two are equal
        idx = ctx.lanes_idx
        for dst in range(num_dsts):
            values = ctx.rp.GetRegValue(dst)
            ctx.write_device(ptr(_dst_slot(dst, 0)),
                             ctx.rp.GetRegNum(dst), 8)
            active = values[idx].astype(np.uint32, copy=False)
            if active.size:
                combined_ones = int(np.bitwise_and.reduce(active))
                combined_or = int(np.bitwise_or.reduce(active))
                combined_zeros = ~combined_or & 0xFFFFFFFF
                all_same = combined_ones == combined_or
            else:
                combined_ones = combined_zeros = 0xFFFFFFFF
                all_same = True
            ctx.atomic_and(ptr(_dst_slot(dst, 1)), combined_ones, width=8)
            ctx.atomic_and(ptr(_dst_slot(dst, 2)), combined_zeros, width=8)
            if not all_same:
                ctx.atomic_and(ptr(_dst_slot(dst, 3)), 0, width=8)

    # ----------------------------------------------------- host report

    def profiles(self) -> List[InstructionValueProfile]:
        result = []
        for address, counters in self.table.items():
            num_dsts = int(counters[NUM_DSTS])
            dsts = []
            for dst in range(num_dsts):
                dsts.append((
                    int(counters[_dst_slot(dst, 0)]),
                    int(counters[_dst_slot(dst, 1)]) & 0xFFFFFFFF,
                    int(counters[_dst_slot(dst, 2)]) & 0xFFFFFFFF,
                    bool(counters[_dst_slot(dst, 3)]),
                ))
            result.append(InstructionValueProfile(
                address=address, weight=int(counters[WEIGHT]), dsts=dsts))
        return sorted(result, key=lambda p: p.address)

    def summary(self) -> ValueProfileSummary:
        profiles = [p for p in self.profiles() if p.dsts]
        if not profiles:
            return ValueProfileSummary(0.0, 0.0, 0.0, 0.0)
        static_bits = static_scalar = 0.0
        dynamic_bits = dynamic_scalar = 0.0
        static_n = dynamic_n = 0
        for profile in profiles:
            for dst in range(len(profile.dsts)):
                const_fraction = profile.constant_bits(dst) / 32.0
                scalar = 1.0 if profile.dsts[dst][3] else 0.0
                static_bits += const_fraction
                static_scalar += scalar
                static_n += 1
                dynamic_bits += const_fraction * profile.weight
                dynamic_scalar += scalar * profile.weight
                dynamic_n += profile.weight
        return ValueProfileSummary(
            dynamic_const_bits_pct=100.0 * dynamic_bits / dynamic_n,
            dynamic_scalar_pct=100.0 * dynamic_scalar / dynamic_n,
            static_const_bits_pct=100.0 * static_bits / static_n,
            static_scalar_pct=100.0 * static_scalar / static_n,
        )

    def dump(self, profile: InstructionValueProfile) -> str:
        """The Section 7.2 per-instruction dump format."""
        lines = []
        for dst in range(len(profile.dsts)):
            reg, _, _, scalar = profile.dsts[dst]
            star = "*" if scalar else ""
            lines.append(f"R{reg}{star} <- [{profile.bit_pattern(dst)}]")
        return "\n".join(lines)
