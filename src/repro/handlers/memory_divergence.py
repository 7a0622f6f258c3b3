"""Case Study II (Figure 6): memory-address-divergence profiling.

The handler filters out predicated-off lanes and non-global addresses,
computes each lane's 32-byte cache-line address, counts the unique lines
across the warp, and tallies a 32×32 (active-threads × unique-lines)
matrix of counters in device memory — the data behind the paper's
Figure 7 PMFs and Figure 8 heat maps.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sassi import SassiRuntime, spec_from_flags
from repro.sassi.cupti import CounterBuffer, CuptiSubscription
from repro.sassi.handlers import SASSIContext
from repro.sim.coalescer import OFFSET_BITS
from repro.sim.memory import GLOBAL_BASE


class MemoryDivergenceProfiler:
    """Attachable Case Study II profiler."""

    FLAGS = "-sassi-inst-before=memory -sassi-before-args=mem-info"

    def __init__(self, device, per_kernel: bool = False):
        self.device = device
        self.cupti = CuptiSubscription(device)
        #: row = active threads - 1, column = unique lines - 1
        self.counters = CounterBuffer(self.cupti, 32 * 32,
                                      per_kernel=per_kernel)
        self.runtime = SassiRuntime(device)
        self.runtime.register_before_handler(self.handler)
        self.spec = spec_from_flags(self.FLAGS)

    def compile(self, kernel_ir, cache=None):
        return self.runtime.compile(kernel_ir, self.spec, cache=cache)

    def handler(self, ctx: SASSIContext) -> None:
        if ctx.mp is None:
            return
        # lane filter and unique-line count as array reductions over
        # the active rows
        idx = ctx.lanes_idx
        addresses = ctx.mp.GetAddress()[idx]
        keep = ctx.bp.GetInstrWillExecute()[idx].astype(bool, copy=False)
        heap_top = GLOBAL_BASE + self.device.heap_bytes
        keep &= (addresses >= GLOBAL_BASE) & (addresses < heap_top)
        num_active = int(np.count_nonzero(keep))
        if not num_active:
            return
        unique = int(np.unique(addresses[keep] >> OFFSET_BITS).size)
        index = (num_active - 1) * 32 + min(unique, 32) - 1
        ctx.atomic_add(self.counters.element_ptr(index), ctx.sample_rate)

    # ----------------------------------------------------- host report

    def matrix(self) -> np.ndarray:
        """The 32×32 occupancy × divergence matrix (Figure 8)."""
        return self.counters.final_totals().reshape(32, 32)

    def pmf(self) -> np.ndarray:
        """Fraction of *thread-level* accesses issued from warps
        requesting N unique lines, N = 1..32 (Figure 7).

        Each warp access is weighted by its active-thread count, matching
        the paper's "percentage of thread-level memory accesses"."""
        matrix = self.matrix().astype(np.float64)
        occupancy = np.arange(1, 33, dtype=np.float64)[:, None]
        weighted = matrix * occupancy
        total = weighted.sum()
        if total == 0:
            return np.zeros(32)
        return weighted.sum(axis=0) / total

    def diverged_fraction(self) -> float:
        """Fraction of warp memory accesses touching more than one line."""
        matrix = self.matrix()
        total = matrix.sum()
        return float(matrix[:, 1:].sum() / total) if total else 0.0

    def fully_diverged_fraction(self) -> float:
        pmf = self.pmf()
        return float(pmf[31])
