"""Reference replay, kept as a test oracle.

These are the event-at-a-time analysis bodies and the streaming driver
that the launch-columnar replay in :mod:`repro.trace.replay` replaced:
every event is dispatched to per-kind hooks (``on_launch``,
``on_kernel_end``, ``on_instr``, ``on_mem``, ``on_branch``) in stream
order, with no batching, no sidecar and no numpy reductions.  Each
oracle subclasses the production analysis only to inherit its
``result()``/``report()`` formatting; every number it reports is
accumulated here, one event at a time.  ``timing`` runs on
:class:`tests.timing_oracle.OracleTimingModel` and the heap scheduler.

The differential suites assert ``replay()`` equals :func:`oracle_replay`
in ``result()`` JSON and ``report()`` text.  Nothing here is imported
by ``src/``.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Tuple

from repro.isa.opcodes import OPCODE_CLASSES, Opcode, OpClass
from repro.sim.scheduler import SchedulerConfig
from repro.trace.format import (
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
)
from repro.trace.replay import (
    CacheSimAnalysis,
    DivergenceAnalysis,
    MemoryDivergenceAnalysis,
    OpcodeHistogramAnalysis,
)
from repro.trace.timing import LaunchTiming, TimingAnalysis, TimingReport
from tests.cache_oracle import access
from tests.timing_oracle import (
    OracleTimingModel,
    oracle_schedule_launch,
    oracle_spans,
)


class _Hooks:
    """No-op defaults for the per-event hooks."""

    def on_launch(self, event: LaunchEvent) -> None:
        pass

    def on_kernel_end(self, event: KernelEndEvent) -> None:
        pass

    def on_instr(self, event: InstrEvent) -> None:
        pass

    def on_mem(self, event: MemEvent) -> None:
        pass

    def on_branch(self, event: BranchEvent) -> None:
        pass


class OracleCacheSim(_Hooks, CacheSimAnalysis):
    def on_launch(self, event: LaunchEvent) -> None:
        self.l1.invalidate()

    def on_mem(self, event: MemEvent) -> None:
        for line in event.line_addresses:
            access(self.l1, line)


class OracleDivergence(_Hooks, DivergenceAnalysis):
    def on_branch(self, event: BranchEvent) -> None:
        row = self.table.get(event.ins_addr)
        if row is None:
            row = self.table[event.ins_addr] = [0, 0, 0, 0, 0]
        row[0] += 1
        row[1] += event.active
        row[2] += event.taken
        row[3] += event.not_taken
        if event.divergent:
            row[4] += 1


class OracleMemoryDivergence(_Hooks, MemoryDivergenceAnalysis):
    def on_mem(self, event: MemEvent) -> None:
        self._matrix[event.active_lanes - 1,
                     min(event.unique_lines, 32) - 1] += 1


class OracleOpcodeHistogram(_Hooks, OpcodeHistogramAnalysis):
    def on_instr(self, event: InstrEvent) -> None:
        totals = self._totals
        classes = OPCODE_CLASSES[Opcode(event.opcode)]
        threads = event.lanes
        if classes & OpClass.MEMORY:
            totals["memory"] += threads
            if event.width > 4:
                totals["extended_memory"] += threads
        if classes & OpClass.CONTROL:
            totals["control_xfer"] += threads
        if classes & OpClass.SYNC:
            totals["sync"] += threads
        if classes & OpClass.NUMERIC:
            totals["numeric"] += threads
        if classes & OpClass.TEXTURE:
            totals["texture"] += threads
        totals["total_executed"] += threads


class OracleTiming(_Hooks, TimingAnalysis):
    def __init__(self, policy: str = "gto"):
        self.policy = policy
        self.oracle = OracleTimingModel()

    def on_launch(self, event: LaunchEvent) -> None:
        self.oracle.feed(event)

    def on_kernel_end(self, event: KernelEndEvent) -> None:
        self.oracle.feed(event)

    def on_instr(self, event: InstrEvent) -> None:
        self.oracle.feed(event)

    def on_mem(self, event: MemEvent) -> None:
        self.oracle.feed(event)

    def _report(self) -> TimingReport:
        self.oracle.finish()
        config = SchedulerConfig(policy=self.policy)
        launches = []
        for builder in self.oracle.launches:
            ctas = len(builder.ctas)
            launches.append(LaunchTiming(
                kernel=builder.kernel, launch_index=builder.launch_index,
                grid=builder.grid, block=builder.block, ctas=ctas,
                warps=ctas * builder.warps_per_cta,
                instructions=builder.instr_count,
                schedule=oracle_schedule_launch(builder.ctas, config),
                spans=oracle_spans(builder)))
        return TimingReport(policy=self.policy, launches=launches)


#: analysis name -> its oracle
ORACLES = {
    "cachesim": OracleCacheSim,
    "divergence": OracleDivergence,
    "memdiv": OracleMemoryDivergence,
    "opcodes": OracleOpcodeHistogram,
    "timing": OracleTiming,
}


def make_oracle(name: str, **kwargs) -> _Hooks:
    return ORACLES[name](**kwargs)


def oracle_replay(events: Iterable[object], analyses: List[_Hooks]
                  ) -> List[_Hooks]:
    """The streaming pass: every event to every analysis, in order."""
    for event in events:
        for analysis in analyses:
            if isinstance(event, InstrEvent):
                analysis.on_instr(event)
            elif isinstance(event, MemEvent):
                analysis.on_mem(event)
            elif isinstance(event, BranchEvent):
                analysis.on_branch(event)
            elif isinstance(event, LaunchEvent):
                analysis.on_launch(event)
            elif isinstance(event, KernelEndEvent):
                analysis.on_kernel_end(event)
    return analyses


def canonical(analyses) -> List[Tuple[str, str]]:
    """The byte-identity surface: result JSON and report text per
    analysis (the serialization the service's canonical bytes use)."""
    return [(json.dumps(a.result(), sort_keys=True, separators=(",", ":")),
             a.report())
            for a in analyses]
