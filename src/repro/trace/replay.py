"""Replay engine: run pluggable offline analyses over a recorded trace.

Record once on the (slow) instrumented simulator; every question after
that is answered at replay speed from the trace file.  Each analysis
consumes the trace one launch at a time and produces both a structured
result (``result()``) and a human-readable ``report()``.

The built-in analyses mirror the live instrumentation they replace, and
tests hold them *exactly* equal to the live-instrumented results:

* ``cachesim``   — the ``examples/memtrace_cachesim.py`` hierarchy sweep
* ``divergence`` — Case Study I branch-divergence statistics
* ``memdiv``     — Case Study II memory-address-divergence matrix/PMF
* ``opcodes``    — the Figure 3 dynamic-instruction categorizer

One driver, :func:`replay`, feeds them all, and every analysis consumes
one input: :class:`~repro.trace.io.FrameColumns`, a launch's records as
ndarray columns, through ``feed_columns`` — vectorized batch kernels
(``np.bincount``-style reductions) instead of per-event Python
dispatch.  With a usable ``.rpti`` sidecar the driver reads every
indexed launch frame through :meth:`~repro.trace.io.TraceReader.frames`;
otherwise it groups the event stream into the same batches
(:func:`~repro.trace.io.event_frames`); both routes yield the same
batches, so results never depend on whether the sidecar was there.  A
record no analysis can interpret (an unknown opcode, an impossible lane
count) raises :class:`~repro.trace.format.TraceFormatError` naming its
launch.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Type

import numpy as np

from repro.isa.opcodes import OpClass, OPCODE_CLASS_BITS
from repro.sim.cache import Cache
from repro.sim.warp import WARP_SIZE
from repro.telemetry.collector import TELEMETRY, span as telemetry_span
from repro.trace import index as index_mod
from repro.trace.io import (
    FrameColumns,
    TraceReader,
    event_frames,
    record_error,
)


class TraceAnalysis:
    """Base class: consume launch batches, then report.

    ``feed_columns`` sees every :class:`FrameColumns` batch of a trace
    in stream order: one per launch (records after its kernel end
    included), plus a launch-less batch for any records ahead of the
    first launch.
    """

    #: registry key (used by ``repro replay --analysis=...``)
    name = "analysis"

    def feed_columns(self, frame: FrameColumns) -> None:
        raise NotImplementedError(f"{self.name} does not consume frames")

    def result(self) -> Dict:
        return {}

    def report(self) -> str:
        return f"{self.name}: {self.result()}"


#: kept records (timing) or line addresses (cachesim) at which an
#: analysis grades its batch without waiting for a read
BATCH_RECORDS = 1 << 16


class CacheSimAnalysis(TraceAnalysis):
    """The memory-hierarchy simulator of ``examples/memtrace_cachesim``:
    every coalesced line address through an L1/L2 model.

    Each launch's lines are kept and a whole batch is graded by one
    :meth:`Cache.access_lines` call that flushes the caches at every
    launch (each launch starts cold), at the first read of ``result()``,
    ``report()``, :attr:`l1` or :attr:`l2`, or once the kept lines reach
    :data:`BATCH_RECORDS`.  Grading runs under the telemetry span
    ``replay.feed_s.cachesim``.
    """

    name = "cachesim"

    def __init__(self, l1_kib: int = 16, l1_ways: int = 4,
                 l2_kib: int = 256, l2_ways: int = 16):
        self._l2 = Cache(l2_kib << 10, ways=l2_ways, name="L2")
        self._l1 = Cache(l1_kib << 10, ways=l1_ways, name="L1",
                         next_level=self._l2)
        self._kept: List[np.ndarray] = []
        self._kept_lines = 0

    @property
    def l1(self) -> Cache:
        self._grade()
        return self._l1

    @property
    def l2(self) -> Cache:
        self._grade()
        return self._l2

    def feed_columns(self, frame: FrameColumns) -> None:
        self._kept.append(frame.mem_lines)
        self._kept_lines += frame.mem_lines.size
        if self._kept_lines >= BATCH_RECORDS:
            self._grade()

    def _grade(self) -> None:
        if not self._kept:
            return
        frames, self._kept, self._kept_lines = self._kept, [], 0
        sizes = [lines.size for lines in frames]
        if not sum(sizes):
            self._l1.invalidate()
            return
        with telemetry_span("replay.feed_s.cachesim"):
            self._l1.access_lines(np.concatenate(frames),
                                  flushes=np.cumsum([0] + sizes[:-1]))

    def result(self) -> Dict:
        return {
            "l1": {"accesses": self.l1.stats.accesses,
                   "hits": self.l1.stats.hits,
                   "misses": self.l1.stats.misses,
                   "hit_rate": self.l1.stats.hit_rate},
            "l2": {"accesses": self.l2.stats.accesses,
                   "hits": self.l2.stats.hits,
                   "misses": self.l2.stats.misses,
                   "hit_rate": self.l2.stats.hit_rate},
        }

    def report(self) -> str:
        r = self.result()
        return (f"cachesim: L1 {100 * r['l1']['hit_rate']:5.1f}% hit "
                f"({r['l1']['hits']:,}/{r['l1']['accesses']:,}), "
                f"L2 {100 * r['l2']['hit_rate']:5.1f}% hit "
                f"({r['l2']['hits']:,}/{r['l2']['accesses']:,})")


class DivergenceAnalysis(TraceAnalysis):
    """Case Study I offline: per-branch divergence statistics, equal to
    a live :class:`~repro.handlers.branch_profiler.BranchProfiler` run."""

    name = "divergence"

    def __init__(self):
        #: address -> [total, active, taken, not_taken, divergent]
        self.table: Dict[int, List[int]] = {}

    def feed_columns(self, frame: FrameColumns) -> None:
        addr = frame.branch_addr
        if not addr.size:
            return
        active = frame.branch_active
        taken = frame.branch_taken
        not_taken = frame.branch_not_taken
        most = max(int(active.max()), int(taken.max()), int(not_taken.max()))
        if most > WARP_SIZE:
            raise record_error(frame.launch, "BRANCH",
                               f"counts {most} lanes")
        # one reduction per statistic: group branches by address with
        # np.unique, sum the lane counts per group with bincount.  The
        # float64 weights are exact (each count is at most 32, so lane
        # sums sit far below 2**53).
        uniq, first, inverse = np.unique(addr, return_index=True,
                                         return_inverse=True)
        totals = np.bincount(inverse)
        sum_active = np.bincount(inverse, weights=active)
        sum_taken = np.bincount(inverse, weights=taken)
        sum_not = np.bincount(inverse, weights=not_taken)
        divergent = ((taken != active) & (not_taken != active))
        sum_div = np.bincount(inverse, weights=divergent)
        table = self.table
        # visit groups in first-occurrence order: the dict's insertion
        # order is the stable-sort tie-break in branches()
        for g in np.argsort(first, kind="stable").tolist():
            key = int(uniq[g])
            row = table.get(key)
            if row is None:
                row = table[key] = [0, 0, 0, 0, 0]
            row[0] += int(totals[g])
            row[1] += int(sum_active[g])
            row[2] += int(sum_taken[g])
            row[3] += int(sum_not[g])
            row[4] += int(sum_div[g])

    def branches(self):
        from repro.handlers.branch_profiler import BranchStats

        rows = [BranchStats(address=addr, total=row[0],
                            active_threads=row[1], taken_threads=row[2],
                            not_taken_threads=row[3], divergent=row[4])
                for addr, row in self.table.items()]
        return sorted(rows, key=lambda b: -b.total)

    def summary(self):
        from repro.handlers.branch_profiler import DivergenceSummary

        branches = self.branches()
        return DivergenceSummary(
            static_branches=len(branches),
            static_divergent=sum(1 for b in branches if b.divergent),
            dynamic_branches=sum(b.total for b in branches),
            dynamic_divergent=sum(b.divergent for b in branches),
        )

    def result(self) -> Dict:
        summary = self.summary()
        return {
            "static_branches": summary.static_branches,
            "static_divergent": summary.static_divergent,
            "dynamic_branches": summary.dynamic_branches,
            "dynamic_divergent": summary.dynamic_divergent,
        }

    def report(self) -> str:
        s = self.summary()
        return (f"divergence: {s.dynamic_divergent:,} of "
                f"{s.dynamic_branches:,} dynamic branches diverged "
                f"({s.dynamic_pct:.1f}%); {s.static_divergent}/"
                f"{s.static_branches} static branches ever diverged")


class MemoryDivergenceAnalysis(TraceAnalysis):
    """Case Study II offline: the 32×32 occupancy × unique-lines matrix,
    equal to a live :class:`MemoryDivergenceProfiler` run."""

    name = "memdiv"

    def __init__(self):
        self._matrix = np.zeros((32, 32), dtype=np.int64)

    def feed_columns(self, frame: FrameColumns) -> None:
        active = frame.mem_active
        if not active.size:
            return
        nlines = frame.mem_nlines
        if (active.min() < 1 or active.max() > WARP_SIZE
                or nlines.min() < 1):
            bad = int(np.argmax((active < 1) | (active > WARP_SIZE)
                                | (nlines < 1)))
            raise record_error(frame.launch, "MEM", (
                f"has {active[bad]} active lanes"
                if not 1 <= active[bad] <= WARP_SIZE
                else "has no line addresses"))
        np.add.at(self._matrix,
                  (active - 1, np.minimum(nlines, 32) - 1), 1)

    def matrix(self) -> np.ndarray:
        return self._matrix.copy()

    def pmf(self) -> np.ndarray:
        matrix = self._matrix.astype(np.float64)
        occupancy = np.arange(1, 33, dtype=np.float64)[:, None]
        weighted = matrix * occupancy
        total = weighted.sum()
        if total == 0:
            return np.zeros(32)
        return weighted.sum(axis=0) / total

    def diverged_fraction(self) -> float:
        total = self._matrix.sum()
        return float(self._matrix[:, 1:].sum() / total) if total else 0.0

    def result(self) -> Dict:
        return {
            "warp_accesses": int(self._matrix.sum()),
            "diverged_fraction": self.diverged_fraction(),
            "pmf": [float(p) for p in self.pmf()],
        }

    def report(self) -> str:
        r = self.result()
        return (f"memdiv: {r['warp_accesses']:,} warp accesses, "
                f"{100 * r['diverged_fraction']:.1f}% touched more than "
                "one 32B line")


class OpcodeHistogramAnalysis(TraceAnalysis):
    """The Figure 3 categorizer offline, equal to a live
    :class:`~repro.handlers.opcode_histogram.OpcodeHistogram` run."""

    name = "opcodes"

    def __init__(self):
        from repro.handlers.opcode_histogram import CATEGORIES

        self.categories = CATEGORIES
        self._totals = {name: 0 for name in CATEGORIES}

    def feed_columns(self, frame: FrameColumns) -> None:
        opcodes = frame.opcodes()
        if not opcodes.size:
            return
        lanes = frame.instr_lanes
        # one mask gather + one masked reduction per category; the
        # lane sums are exact (far below any integer precision edge)
        masks = OPCODE_CLASS_BITS[opcodes]
        totals = self._totals
        memory = (masks & OpClass.MEMORY.value) != 0
        totals["memory"] += int(lanes[memory].sum())
        totals["extended_memory"] += int(
            lanes[memory & (frame.instr_widths > 4)].sum())
        totals["control_xfer"] += int(
            lanes[(masks & OpClass.CONTROL.value) != 0].sum())
        totals["sync"] += int(
            lanes[(masks & OpClass.SYNC.value) != 0].sum())
        totals["numeric"] += int(
            lanes[(masks & OpClass.NUMERIC.value) != 0].sum())
        totals["texture"] += int(
            lanes[(masks & OpClass.TEXTURE.value) != 0].sum())
        totals["total_executed"] += int(lanes.sum())

    def totals(self) -> Dict[str, int]:
        return dict(self._totals)

    def result(self) -> Dict:
        return self.totals()

    def report(self) -> str:
        totals = self._totals
        body = ", ".join(f"{name}={totals[name]:,}"
                         for name in self.categories)
        return f"opcodes: {body}"


#: registry for the CLI's ``--analysis`` flag
ANALYSES: Dict[str, Type[TraceAnalysis]] = {
    CacheSimAnalysis.name: CacheSimAnalysis,
    DivergenceAnalysis.name: DivergenceAnalysis,
    MemoryDivergenceAnalysis.name: MemoryDivergenceAnalysis,
    OpcodeHistogramAnalysis.name: OpcodeHistogramAnalysis,
}


def make_analysis(name: str, **kwargs) -> TraceAnalysis:
    try:
        cls = ANALYSES[name]
    except KeyError:
        raise KeyError(f"unknown analysis {name!r} "
                       f"(choose from {', '.join(sorted(ANALYSES))})")
    return cls(**kwargs)


def replay(trace, analyses: Sequence[TraceAnalysis]) -> List[TraceAnalysis]:
    """One serial pass over *trace*, feeding every analysis.

    *trace* is a path or a :class:`TraceReader`.  Returns the analyses
    (now holding their results) for convenience.  When a ``.rpti``
    sidecar bound to the trace covers every event, its launch frames
    are decoded straight into :class:`FrameColumns` by
    :meth:`TraceReader.frames`; otherwise the event stream is grouped
    into the same batches.  Telemetry splits the pass into decode and
    analyze time.
    """
    reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)
    analyses = list(analyses)
    path = reader.path
    index = index_mod.sidecar_index(path) if path is not None else None
    if index is not None and index.shardable:
        frames = reader.frames(index.entries)
    else:
        frames = event_frames(reader.events())
    events = 0
    decode_ns = 0
    analyze_ns = 0
    timed = TELEMETRY.enabled
    with telemetry_span("trace.replay", trace=str(path or "")):
        while True:
            t0 = time.perf_counter_ns() if timed else 0
            frame = next(frames, None)
            t1 = time.perf_counter_ns() if timed else 0
            decode_ns += t1 - t0
            if frame is None:
                break
            for analysis in analyses:
                analysis.feed_columns(frame)
            events += frame.events
            if timed:
                analyze_ns += time.perf_counter_ns() - t1
        if timed:
            TELEMETRY.incr("trace.replay.events", events)
            TELEMETRY.incr("trace.replay.decode_ns", decode_ns)
            TELEMETRY.incr("trace.replay.analyze_ns", analyze_ns)
    return analyses
