"""Case Study I (Figure 4): per-branch divergence statistics.

For every conditional control transfer the handler records, in a
device-memory hash table keyed by the instruction's address: total
executions, active threads, taken threads, fall-through threads, and
divergent executions (both sides non-empty).  The host-side report
reproduces Table 1's static/dynamic divergence percentages and the
per-branch distributions of Figure 5.

Both a warp-level handler (the default, used by the studies) and a
thread-level transliteration of the paper's Figure 4 CUDA code are
provided; tests check they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.sassi import SassiRuntime, spec_from_flags
from repro.sassi.cupti import CuptiSubscription, DeviceHashTable
from repro.sassi.handlers import SASSIContext
from repro.sassi.threadsimt import AtomicAdd, Ballot, ffs, popc

#: counter slots per branch
TOTAL, ACTIVE, TAKEN, NOT_TAKEN, DIVERGENT = range(5)


@dataclass
class BranchStats:
    """Host-side view of one branch's counters."""

    address: int
    total: int
    active_threads: int
    taken_threads: int
    not_taken_threads: int
    divergent: int


@dataclass
class DivergenceSummary:
    """The Table 1 row for one application run."""

    static_branches: int
    static_divergent: int
    dynamic_branches: int
    dynamic_divergent: int

    @property
    def static_pct(self) -> float:
        return 100.0 * self.static_divergent / self.static_branches \
            if self.static_branches else 0.0

    @property
    def dynamic_pct(self) -> float:
        return 100.0 * self.dynamic_divergent / self.dynamic_branches \
            if self.dynamic_branches else 0.0


class BranchProfiler:
    """Attachable Case Study I profiler."""

    FLAGS = ("-sassi-inst-before=branches "
             "-sassi-before-args=cond-branch-info")

    def __init__(self, device, capacity: int = 2048,
                 kind: str = "warp"):
        self.device = device
        self.cupti = CuptiSubscription(device)
        self.table = DeviceHashTable(device, capacity=capacity,
                                     num_counters=5)
        self.runtime = SassiRuntime(device)
        handler = self.handler if kind == "warp" else self.thread_handler
        self.runtime.register_before_handler(handler, kind=kind)
        self.spec = spec_from_flags(self.FLAGS)

    def compile(self, kernel_ir, cache=None):
        return self.runtime.compile(kernel_ir, self.spec, cache=cache)

    # ------------------------------------------------------ warp level

    def handler(self, ctx: SASSIContext) -> None:
        if ctx.brp is None:
            return
        # only the taken count needs a reduction — the fall-through
        # count is its complement over the active lanes
        direction = ctx.brp.GetDirection()
        num_active = ctx.num_active
        num_taken = int(np.count_nonzero(direction[ctx.lanes_idx]))
        num_not_taken = num_active - num_taken
        w = ctx.sample_rate
        counters = self.table.find(ctx, ctx.bp.GetInsAddr())
        ctx.atomic_add(self.table.counter_ptr(counters, TOTAL), w)
        ctx.atomic_add(self.table.counter_ptr(counters, ACTIVE),
                       num_active * w)
        ctx.atomic_add(self.table.counter_ptr(counters, TAKEN),
                       num_taken * w)
        ctx.atomic_add(self.table.counter_ptr(counters, NOT_TAKEN),
                       num_not_taken * w)
        if num_taken != num_active and num_not_taken != num_active:
            ctx.atomic_add(self.table.counter_ptr(counters, DIVERGENT), w)

    # ---------------------------------------------------- thread level

    def thread_handler(self, t):
        """The Figure 4 CUDA handler, transliterated per-thread."""
        direction = bool(t.brp.GetDirection())
        active = yield Ballot(1)
        taken = yield Ballot(direction)
        ntaken = yield Ballot(not direction)
        num_active = popc(active)
        num_taken, num_not_taken = popc(taken), popc(ntaken)
        if ffs(active) - 1 == t.lane_id:
            # we cannot call table.find() from a generator (it reads
            # device memory synchronously), so resolve via the warp ctx
            w = t.sample_rate
            counters = self.table.find(t._ctx, t.bp.GetInsAddr())
            yield AtomicAdd(self.table.counter_ptr(counters, TOTAL), w)
            yield AtomicAdd(self.table.counter_ptr(counters, ACTIVE),
                            num_active * w)
            yield AtomicAdd(self.table.counter_ptr(counters, TAKEN),
                            num_taken * w)
            yield AtomicAdd(self.table.counter_ptr(counters, NOT_TAKEN),
                            num_not_taken * w)
            if num_taken != num_active and num_not_taken != num_active:
                yield AtomicAdd(
                    self.table.counter_ptr(counters, DIVERGENT), w)

    # ----------------------------------------------------- host report

    def branches(self) -> List[BranchStats]:
        result = []
        for address, counters in self.table.items():
            result.append(BranchStats(
                address=address,
                total=int(counters[TOTAL]),
                active_threads=int(counters[ACTIVE]),
                taken_threads=int(counters[TAKEN]),
                not_taken_threads=int(counters[NOT_TAKEN]),
                divergent=int(counters[DIVERGENT]),
            ))
        return sorted(result, key=lambda b: -b.total)

    def summary(self) -> DivergenceSummary:
        branches = self.branches()
        return DivergenceSummary(
            static_branches=len(branches),
            static_divergent=sum(1 for b in branches if b.divergent),
            dynamic_branches=sum(b.total for b in branches),
            dynamic_divergent=sum(b.divergent for b in branches),
        )

    def clear(self) -> None:
        self.table.clear()
