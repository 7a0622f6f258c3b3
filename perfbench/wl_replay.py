"""``replay``: record once, analyze many (paper Section 9).

Set-up captures the four ``profile`` kernels with their indexes.  Each
pass then replays every trace serially: the non-timing analyses
(``cachesim`` at a geometry smaller and one larger than every kernel's
footprint, ``divergence``, ``memdiv``, ``opcodes``) in one replay,
``timing`` under ``gto`` and under ``lrr``, and a fixed set of indexed
queries.  The executor does no work here; decode, the batch analyses
and the scheduler do nearly all of it.  nw's many ~107-event frames
beside hotspot's fat ones separate per-frame cost from per-event cost.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List

from harness import Context, run_checked, run_passes
from ledger import GEOMETRIES, POLICIES, ratio
from wl_profile import KERNELS, manifest_fields

#: (L1 KiB, L1 ways, L2 KiB, L2 ways); the kernels' footprints run
#: from 3 KiB (sgemm) to 42 KiB (spmv)
CACHE_GEOMETRIES = {
    "small": (1, 2, 2, 4),
    "large": (64, 4, 1024, 16),
}

#: name -> QueryFilter.parse arguments; "{last}" is the last launch
QUERIES = {
    "last-launch": {"launches": "{last}:"},
    "memory-class": {"classes": "memory"},
    "branches": {"kinds": "branch"},
}


@dataclass
class Trace:
    kernel: str
    path: str
    events: int
    launches: int


@dataclass
class OpRecord:
    kind: str           # "analyses", "timing" or "query"
    start: float        # host perf_counter interval of the operation
    end: float
    events: int
    detail: Dict = field(default_factory=dict)


@dataclass
class PassRecord:
    ops: List[OpRecord] = field(default_factory=list)


def replay_analyses(trace: Trace, problems, refs) -> OpRecord:
    from repro.trace.replay import CacheSimAnalysis, make_analysis, replay

    analyses = [CacheSimAnalysis(*CACHE_GEOMETRIES[g]) for g in GEOMETRIES]
    analyses += [make_analysis(name)
                 for name in ("divergence", "memdiv", "opcodes")]
    start = time.perf_counter()
    replay(trace.path, analyses)
    results = [analysis.result() for analysis in analyses]
    end = time.perf_counter()
    refs.expect(f"replay:{trace.kernel}:analyses", results, problems)
    caches = {g: results[i] for i, g in enumerate(GEOMETRIES)}
    return OpRecord("analyses", start, end, trace.events, caches)


def replay_timing(trace: Trace, policy: str, problems, refs) -> OpRecord:
    from repro.trace.replay import replay
    from repro.trace.timing import TimingAnalysis

    analysis = TimingAnalysis(policy=policy)
    start = time.perf_counter()
    replay(trace.path, [analysis])
    result = analysis.result()
    end = time.perf_counter()
    refs.expect(f"replay:{trace.kernel}:timing-{policy}", result, problems)
    return OpRecord("timing", start, end, trace.events, {
        "policy": policy,
        "cycles": result["total_cycles"],
        "bubbles": sum(launch["bubble_cycles"]
                       for launch in result["launches"])})


def run_trace_query(trace: Trace, name: str, problems, refs,
                    spans) -> OpRecord:
    from repro.trace.query import QueryFilter, run_query

    args = {key: value.format(last=trace.launches - 1)
            for key, value in QUERIES[name].items()}
    start = time.perf_counter()
    # run_query returns a lazy iterator: the span covers consuming it
    with spans.span("trace.query_s"):
        hits, stats = run_query(trace.path, QueryFilter.parse(**args))
        count = sum(1 for _ in hits)
    end = time.perf_counter()
    if not stats.used_index:
        problems.append("query did not use the index")
    refs.expect(f"replay:{trace.kernel}:query-{name}",
                [count, stats.launches_visited, stats.events_scanned],
                problems)
    return OpRecord("query", start, end, trace.events,
                    {"scanned": stats.events_scanned})


class ReplayWorkload:
    name = "replay"
    #: set-ups per run; setup_s is their median
    setups = 3

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.traces: List[Trace] = []

    def workload_classes(self):
        return ()

    def setup(self) -> None:
        """Capture the four kernels, with their indexes."""
        from repro.trace.capture import capture_workload

        directory = self._directory()
        os.makedirs(directory)
        traces = []
        for n, kernel in enumerate(KERNELS):
            path = os.path.join(directory, f"k{n}.rptrace")

            def capture(problems, kernel=kernel, path=path):
                manifest, verified, _ = capture_workload(kernel, path)
                if not verified:
                    problems.append("verify() failed")
                self.ctx.refs.expect(f"capture:{kernel}",
                                     manifest_fields(manifest), problems)
                return manifest

            manifest = run_checked(self.ctx, f"capture:{kernel}", capture)
            if manifest is not None:
                traces.append(self._describe(kernel, path, manifest))
        self.traces = traces

    @staticmethod
    def _describe(kernel, path, manifest) -> Trace:
        from repro.trace.index import sidecar_index

        index = sidecar_index(path)
        return Trace(kernel, path, manifest.total_events,
                     index.launches if index is not None else 0)

    def _ops(self):
        ops = []
        for trace in self.traces:
            ops.append((f"{trace.kernel}:analyses",
                        lambda p, t=trace: replay_analyses(t, p,
                                                           self.ctx.refs)))
            for policy in POLICIES:
                ops.append((f"{trace.kernel}:timing-{policy}",
                            lambda p, t=trace, pol=policy: replay_timing(
                                t, pol, p, self.ctx.refs)))
            for name in QUERIES:
                ops.append((f"{trace.kernel}:query-{name}",
                            lambda p, t=trace, q=name: run_trace_query(
                                t, q, p, self.ctx.refs, self.ctx.spans)))
        return ops

    def one_pass(self) -> PassRecord:
        ops = self._ops()
        self.ctx.rng.shuffle(ops)
        record = PassRecord()
        for name, op in ops:
            result = run_checked(self.ctx, name, op)
            if result is not None:
                record.ops.append(result)
        return record

    def measure(self, seconds: float, tracer=None):
        return run_passes(self.one_pass, seconds, tracer)

    def seconds(self, start: float, end: float) -> float:
        return self.ctx.speed.seconds(start, end)

    def _time(self, ops: List[OpRecord]) -> float:
        return sum(self.seconds(op.start, op.end) for op in ops)

    def record_reference(self) -> None:
        self.setup()
        self.one_pass()

    # ---------------------------------------------------------- metrics

    @staticmethod
    def _ops_of(passes, kind) -> List[OpRecord]:
        return [op for record in passes for op in record.ops
                if op.kind == kind]

    def end_to_end(self, passes) -> Dict[str, tuple]:
        def rate(kind):
            ops = self._ops_of(passes, kind)
            return ratio(sum(op.events for op in ops), self._time(ops))

        replay_rate = rate("analyses")
        return {
            "work_per_s": (replay_rate, "1/s"),
            "replay_events_per_s": (replay_rate, "1/s"),
            "timing_events_per_s": (rate("timing"), "1/s"),
        }

    def per_layer(self, passes, breakdown) -> Dict[str, float]:
        queries = self._ops_of(passes, "query")
        metrics = {
            "trace.query_ms": 1000 * ratio(self._time(queries),
                                           len(queries)),
            "trace.query_scanned_frac": ratio(
                sum(op.detail["scanned"] for op in queries),
                sum(op.events for op in queries)),
        }
        # simulated statistics: identical in every pass, so one will do
        first = passes[:1]
        for geometry in GEOMETRIES:
            for level in ("l1", "l2"):
                stats = [op.detail[geometry][level]
                         for op in self._ops_of(first, "analyses")]
                metrics[f"sim.{level}_hit_rate.{geometry}"] = ratio(
                    sum(s["hits"] for s in stats),
                    sum(s["accesses"] for s in stats))
        for policy in POLICIES:
            timings = [op.detail for op in self._ops_of(first, "timing")
                       if op.detail["policy"] == policy]
            cycles = sum(t["cycles"] for t in timings)
            metrics[f"timing.cycles.{policy}"] = cycles
            metrics[f"timing.bubble_frac.{policy}"] = ratio(
                sum(t["bubbles"] for t in timings), cycles)
        return metrics

    def warm(self) -> None:
        pass

    def extra_rss_mb(self) -> float:
        return 0.0

    def _directory(self) -> str:
        return os.path.join(self.ctx.workdir, "traces")

    def close(self) -> None:
        shutil.rmtree(self._directory(), ignore_errors=True)
        self.traces = []
