"""Figure 3: the pedagogical dynamic-instruction categorizer.

The paper's handler increments seven device counters per executing
thread: memory, extended memory (width > 4 bytes), control transfer,
synchronization, numeric, texture, and total.  Counters live in device
global memory and are marshalled by the CUPTI analog.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.sassi import SassiRuntime, spec_from_flags
from repro.sassi.cupti import CounterBuffer, CuptiSubscription
from repro.sassi.handlers import SASSIContext

CATEGORIES = (
    "memory",
    "extended_memory",
    "control_xfer",
    "sync",
    "numeric",
    "texture",
    "total_executed",
)


class OpcodeHistogram:
    """Attachable Figure 3 profiler.

    Usage::

        histogram = OpcodeHistogram(device)
        kernel = histogram.compile(kernel_ir)
        device.launch(kernel, grid, block, args)
        print(histogram.totals())
    """

    FLAGS = "-sassi-inst-before=all -sassi-before-args=mem-info"

    def __init__(self, device, per_kernel: bool = True):
        self.device = device
        self.cupti = CuptiSubscription(device)
        self.counters = CounterBuffer(self.cupti, len(CATEGORIES),
                                      per_kernel=per_kernel)
        self.runtime = SassiRuntime(device)
        self.runtime.register_before_handler(self.handler)
        self.spec = spec_from_flags(self.FLAGS)
        #: (fn_addr, ins_offset) -> tuple of counter slots to bump;
        #: the classification is static per site
        self._site_slots: Dict[tuple, tuple] = {}

    def compile(self, kernel_ir, cache=None):
        self._site_slots.clear()
        return self.runtime.compile(kernel_ir, self.spec, cache=cache)

    def handler(self, ctx: SASSIContext) -> None:
        bp = ctx.bp
        # sampled firings stand in for sample_rate firings: the scaled
        # increment keeps the counters unbiased estimators (×1 when exact)
        threads = ctx.num_active * ctx.sample_rate
        key = (bp.GetFnAddr(), bp.GetInsOffset())
        slots = self._site_slots.get(key)
        if slots is None:
            slots = self._classify(bp, ctx.mp)
            self._site_slots[key] = slots
        for slot in slots:
            ctx.atomic_add(self.counters.element_ptr(slot), threads)

    @staticmethod
    def _classify(bp, mp) -> tuple:
        slots = []
        if bp.IsMem():
            slots.append(0)
            if mp is not None and mp.GetWidth() > 4:
                slots.append(1)
        if bp.IsControlXfer():
            slots.append(2)
        if bp.IsSync():
            slots.append(3)
        if bp.IsNumeric():
            slots.append(4)
        if bp.IsTexture():
            slots.append(5)
        slots.append(6)
        return tuple(slots)

    def totals(self) -> Dict[str, int]:
        values = self.counters.final_totals()
        return {name: int(values[i]) for i, name in enumerate(CATEGORIES)}
