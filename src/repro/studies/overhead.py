"""Table 3 driver: instrumentation overheads of the four case studies.

The paper reports wall-clock (``T``) and kernel-time (``K``) slowdowns on
real hardware.  On a simulated substrate absolute times are meaningless,
so this study reports the principled analogs:

* ``K`` — simulated-cycle ratio (instrumented / baseline kernel cycles),
  the direct analog of the paper's device-side column;
* ``I`` — dynamic warp-instruction ratio (what the injected code adds);
* ``T`` — host-process wall-clock ratio of the whole application run
  (includes the "CPU side": dataset preparation, launch loops, result
  readback — all of which are *not* instrumented, so launch-heavy apps
  show small ``T`` just as in the paper).

:func:`spill_cost_fraction` estimates the Section 9.1 finding that
ABI/spill bookkeeping dominates overhead from the injection report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.backend import ptxas
from repro.campaign.compile_cache import cached_ptxas, get_cache
from repro.campaign.engine import map_workloads
from repro.handlers.branch_profiler import BranchProfiler
from repro.handlers.memory_divergence import MemoryDivergenceProfiler
from repro.handlers.value_profiler import ValueProfiler
from repro.sassi import SassiRuntime, spec_from_flags
from repro.sim import Device
from repro.studies.report import table
from repro.telemetry import span as telemetry_span
from repro.workloads import TABLE3_BENCHMARKS, make

#: case-study configurations, in the paper's column order
CASE_STUDIES = ("branches", "memory", "value", "error")

_SPEC_FLAGS = {
    "branches": "-sassi-inst-before=branches "
                "-sassi-before-args=cond-branch-info",
    "memory": "-sassi-inst-before=memory -sassi-before-args=mem-info",
    "value": "-sassi-inst-after=reg-writes -sassi-after-args=reg-info",
    "error": "-sassi-inst-after=reg-writes,memory "
             "-sassi-after-args=reg-info,mem-info",
}


@dataclass
class OverheadCell:
    kernel_ratio: float      # K: simulated-cycle ratio
    instruction_ratio: float  # I: dynamic warp-instruction ratio
    wall_ratio: float        # T: host wall-clock ratio


@dataclass
class Table3Row:
    benchmark: str
    baseline_cycles: int
    baseline_wall: float
    launches: int
    cells: Dict[str, OverheadCell] = field(default_factory=dict)


def _timed_run(workload, device, kernel):
    start = time.perf_counter()
    output = workload.execute(device, kernel)
    wall = time.perf_counter() - start
    trace = workload.last_trace
    return output, wall, trace


def _handler_for(case: str, device):
    if case == "branches":
        return BranchProfiler(device)
    if case == "memory":
        return MemoryDivergenceProfiler(device)
    if case == "value":
        return ValueProfiler(device)
    # error-injection profile phase: empty counters, same where/what
    runtime = SassiRuntime(device, poison_caller_saved=False)
    runtime.register_after_handler(lambda ctx: None)

    class _Shim:
        def __init__(self, rt):
            self.runtime = rt
            self.spec = spec_from_flags(_SPEC_FLAGS["error"])

        def compile(self, ir, cache=None):
            return self.runtime.compile(ir, self.spec, cache=cache)

    return _Shim(runtime)


def measure_benchmark(name: str,
                      cases: Sequence[str] = CASE_STUDIES,
                      use_cache: bool = True) -> Table3Row:
    cache = get_cache() if use_cache else None
    with telemetry_span("overhead", study="table3", workload=name):
        workload = make(name)
        device = Device()
        ir = workload.build_ir()
        baseline_kernel = cached_ptxas(ir, cache=cache) \
            if use_cache else ptxas(ir)
        with telemetry_span("execute", workload=name, case="baseline"):
            _, base_wall, base_trace = _timed_run(workload, device,
                                                  baseline_kernel)
        row = Table3Row(benchmark=name,
                        baseline_cycles=base_trace.cycles,
                        baseline_wall=base_wall,
                        launches=base_trace.kernel_launches)
        for case in cases:
            instrumented_device = Device()
            profiler = _handler_for(case, instrumented_device)
            kernel = profiler.compile(workload.build_ir(), cache=cache)
            with telemetry_span("execute", workload=name, case=case):
                _, wall, trace = _timed_run(workload, instrumented_device,
                                            kernel)
            row.cells[case] = OverheadCell(
                kernel_ratio=trace.cycles / max(base_trace.cycles, 1),
                instruction_ratio=trace.warp_instructions
                / max(base_trace.warp_instructions, 1),
                wall_ratio=wall / max(base_wall, 1e-9),
            )
    return row


def run(benchmarks: Optional[Sequence[str]] = None,
        cases: Sequence[str] = CASE_STUDIES, jobs: int = 1,
        use_cache: bool = True) -> List[Table3Row]:
    names = list(benchmarks or TABLE3_BENCHMARKS)
    return map_workloads("repro.studies.overhead", "measure_benchmark",
                         names, jobs=jobs, cases=tuple(cases),
                         use_cache=use_cache)


def render_table3(rows: List[Table3Row],
                  cases: Sequence[str] = CASE_STUDIES) -> str:
    headers = ["Benchmark", "base cycles", "launches"]
    for case in cases:
        headers.extend([f"{case} K", f"{case} I"])
    body = []
    for row in rows:
        cells = [row.benchmark, row.baseline_cycles, row.launches]
        for case in cases:
            cell = row.cells.get(case)
            if cell is None:
                cells.extend(["-", "-"])
            else:
                cells.extend([f"{cell.kernel_ratio:.1f}x",
                              f"{cell.instruction_ratio:.1f}x"])
        body.append(cells)
    return table(headers, body,
                 title="Table 3: instrumentation overheads "
                       "(K = simulated kernel cycles, I = dynamic warp "
                       "instructions; ratios vs uninstrumented)")


def spill_cost_fraction(name: str, case: str = "value") -> float:
    """Section 9.1: fraction of instrumentation overhead that remains
    with empty handler bodies (paper: ~80%).

    In this reproduction the handler bodies execute natively (their cost
    is host-side), so the *simulated* overhead is entirely the injected
    ABI sequence; the interesting split is spill/ABI instructions versus
    parameter-marshaling instructions, measured from the injection
    report."""
    workload = make(name)
    device = Device()
    profiler = _handler_for(case, device)
    kernel = profiler.compile(workload.build_ir())
    report = profiler.runtime.reports[-1]
    sites = report.before_sites + report.after_sites
    if sites == 0:
        return 0.0
    # ABI bookkeeping: frame alloc/release (2), pred+CC spill/restore (8),
    # pointer setup (2..5), plus one spill+fill pair per live register.
    abi_instructions = sites * 12 + 2 * report.spills_emitted
    return min(1.0, abi_instructions / max(report.injected_instructions, 1))


def main(benchmarks: Optional[Sequence[str]] = None, jobs: int = 1,
         use_cache: bool = True) -> str:
    return render_table3(run(benchmarks, jobs=jobs, use_cache=use_cache))


if __name__ == "__main__":
    print(main())
