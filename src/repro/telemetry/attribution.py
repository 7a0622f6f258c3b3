"""Overhead attribution: where instrumented wall-clock actually goes.

A live reproduction of the paper's Section 6 breakdown: instrumented
runtime decomposes into

* ``baseline`` — the application's own instructions;
* ``save_restore`` — the injected ABI traffic (frame management,
  register/predicate/carry spills and fills, the handler call);
* ``param_marshal`` — building the SASSI parameter objects;
* ``handler_body`` — the handler functions themselves (measured
  directly: the runtime times every handler invocation).

``handler_body`` is measured wall time; the remaining wall time is
attributed proportionally to the *dynamic* warp-instruction counts of
the other three buckets (the executor's dispatch counters, folded once
per launch from the dispatch units it visited).  The buckets therefore
sum to the instrumented wall-clock exactly, and the instruction counts
cross-check against :mod:`repro.studies.overhead`'s ``I`` ratios and
the executor's ``KernelStats`` ground truth.

When sites are sampled (:mod:`repro.sassi.runtime`), skipped firings
execute no injected instructions and consume no wall time — but they
must not vanish from the accounting, or the I-ratio cross-check would
silently under-report.  They appear as the ``sampled_skipped`` bucket:
zero wall seconds, and an instruction count equal to the injected
instructions that *would* have executed, so

    executed sassi.* instructions + sampled_skipped
        == the full-rate run's sassi.* instructions

holds exactly for deterministic sampling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.telemetry.classify import SAVE_RESTORE_KEYS
from repro.telemetry.collector import TELEMETRY, span

BUCKETS = ("baseline", "save_restore", "param_marshal", "handler_body",
           "sampled_skipped")


@dataclass
class AttributionReport:
    """One workload/case decomposition."""

    workload: str
    case: str
    baseline_wall: float
    instrumented_wall: float
    #: seconds per bucket; sums to ``instrumented_wall``
    wall_buckets: Dict[str, float] = field(default_factory=dict)
    #: dynamic warp-instruction counts per instruction-level bucket
    instruction_buckets: Dict[str, int] = field(default_factory=dict)

    @property
    def slowdown(self) -> float:
        return self.instrumented_wall / max(self.baseline_wall, 1e-9)

    @property
    def instruction_ratio(self) -> float:
        base = self.instruction_buckets.get("baseline", 0)
        total = sum(self.instruction_buckets.values())
        return total / max(base, 1)

    def render(self) -> str:
        lines = [f"overhead attribution: {self.workload} [{self.case}]",
                 f"  baseline wall      {self.baseline_wall:9.4f}s",
                 f"  instrumented wall  {self.instrumented_wall:9.4f}s "
                 f"({self.slowdown:.2f}x)"]
        for bucket in BUCKETS:
            wall = self.wall_buckets.get(bucket, 0.0)
            share = wall / max(self.instrumented_wall, 1e-9)
            instrs = self.instruction_buckets.get(bucket)
            suffix = f"  ({instrs:,} warp instrs)" if instrs else ""
            lines.append(f"    {bucket:<14} {wall:9.4f}s  "
                         f"{100 * share:5.1f}%{suffix}")
        return "\n".join(lines)


def split_wall(instrumented_wall: float,
               handler_body_seconds: float,
               counters: Dict[str, int],
               baseline_instructions: int) -> Dict[str, float]:
    """Decompose *instrumented_wall* into the four buckets.

    ``handler_body`` is taken as measured; the remainder is split in
    proportion to dynamic warp-instruction counts.
    """
    handler_body = min(max(handler_body_seconds, 0.0), instrumented_wall)
    remaining = instrumented_wall - handler_body
    save_restore = sum(counters.get(k, 0) for k in SAVE_RESTORE_KEYS)
    marshal = counters.get("sassi.param_marshal", 0)
    weights = {"baseline": max(baseline_instructions, 0),
               "save_restore": save_restore,
               "param_marshal": marshal}
    total = sum(weights.values())
    if total <= 0:
        weights = {"baseline": 1, "save_restore": 0, "param_marshal": 0}
        total = 1
    buckets = {name: remaining * weight / total
               for name, weight in weights.items()}
    buckets["handler_body"] = handler_body
    # skipped sampled firings executed nothing: zero wall by definition
    # (they exist so the instruction-level accounting still sums)
    buckets["sampled_skipped"] = 0.0
    return buckets


def attribute_workload(name: str, case: str = "memory",
                       use_cache: bool = False,
                       controller=None) -> AttributionReport:
    """Run *name* uninstrumented and instrumented (per the overhead
    study's *case* configuration) and attribute the difference.

    Pass an :class:`~repro.sassi.runtime.AdaptiveController` as
    *controller* to attribute a toggled/sampled run; skipped firings
    show up in the ``sampled_skipped`` bucket."""
    from repro.backend import ptxas
    from repro.sim import Device
    from repro.studies.overhead import _handler_for
    from repro.workloads import make

    telemetry = TELEMETRY
    was_enabled = telemetry.enabled

    workload = make(name)
    device = Device()
    kernel = ptxas(workload.build_ir())
    start = time.perf_counter()
    workload.execute(device, kernel)
    baseline_wall = time.perf_counter() - start

    telemetry.enable()
    try:
        mark = telemetry.mark()
        instrumented_device = Device()
        if controller is not None:
            controller.install(instrumented_device)
        profiler = _handler_for(case, instrumented_device)
        with span("attribution", workload=name, case=case):
            with span("compile"):
                instrumented = profiler.compile(workload.build_ir())
            with span("execute"):
                start = time.perf_counter()
                workload.execute(instrumented_device, instrumented)
                instrumented_wall = time.perf_counter() - start
        delta = telemetry.delta_since(mark)
    finally:
        if not was_enabled:
            telemetry.disable()

    trace = workload.last_trace
    baseline_instructions = sum(stats.baseline_warp_instructions
                                for stats in trace.launches)
    handler_body = delta.timers.get("handler_body_seconds", 0.0)
    wall_buckets = split_wall(instrumented_wall, handler_body,
                              delta.counters, baseline_instructions)
    save_restore = sum(delta.counters.get(k, 0) for k in SAVE_RESTORE_KEYS)
    report = AttributionReport(
        workload=name, case=case,
        baseline_wall=baseline_wall,
        instrumented_wall=instrumented_wall,
        wall_buckets=wall_buckets,
        instruction_buckets={
            "baseline": baseline_instructions,
            "save_restore": save_restore,
            "param_marshal": delta.counters.get("sassi.param_marshal", 0),
            "sampled_skipped": delta.counters.get("sassi.sampled_skipped",
                                                  0),
        },
    )
    return report


def cross_check_instruction_ratio(report: AttributionReport,
                                  observed_ratio: float) -> float:
    """Relative difference between the attribution's instruction ratio
    and an independently measured one (``studies.overhead``'s ``I``)."""
    predicted = report.instruction_ratio
    return abs(predicted - observed_ratio) / max(observed_ratio, 1e-9)
