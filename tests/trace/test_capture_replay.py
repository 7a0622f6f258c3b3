"""Record/replay equality: offline analyses over a captured trace are
EXACTLY equal to the live-instrumented profilers they replace, across
multiple workloads — plus determinism of capture and replay."""

from __future__ import annotations

import filecmp

import pytest

from repro.handlers import (
    BranchProfiler,
    MemoryDivergenceProfiler,
    MemoryTracer,
    OpcodeHistogram,
)
from repro.sim import Device
from repro.sim.cache import Cache
from repro.trace import (
    CacheSimAnalysis,
    DivergenceAnalysis,
    MemoryDivergenceAnalysis,
    OpcodeHistogramAnalysis,
    TraceReader,
    capture_workload,
    replay,
)
from repro.workloads import make

WORKLOADS = ("vectoradd", "parboil/sgemm(small)", "rodinia/pathfinder")


@pytest.fixture(scope="module", params=WORKLOADS)
def captured(request, tmp_path_factory):
    """One capture + one full replay per workload, shared by the
    equality tests."""
    name = request.param
    path = str(tmp_path_factory.mktemp("traces") / "run.rptrace")
    manifest, verified, _ = capture_workload(name, path)
    assert verified, f"capture run of {name} produced a wrong result"
    analyses = replay(path, [CacheSimAnalysis(), DivergenceAnalysis(),
                             MemoryDivergenceAnalysis(),
                             OpcodeHistogramAnalysis()])
    return name, path, manifest, analyses


def _live_run(name, profiler_cls):
    workload = make(name)
    device = Device()
    profiler = profiler_cls(device)
    kernel = profiler.compile(workload.build_ir())
    workload.execute(device, kernel)
    return profiler


class TestReplayEqualsLive:
    def test_opcode_histogram(self, captured):
        name, _, _, analyses = captured
        live = _live_run(name, OpcodeHistogram)
        assert analyses[3].totals() == live.totals()

    def test_branch_divergence(self, captured):
        name, _, _, analyses = captured
        live = _live_run(name, BranchProfiler)
        assert analyses[1].summary() == live.summary()
        # per-branch counters match as a multiset; addresses are
        # layout-dependent (live reports post-injection addresses, the
        # trace the original ones)
        def counters(rows):
            return sorted((b.total, b.active_threads, b.taken_threads,
                           b.not_taken_threads, b.divergent)
                          for b in rows)
        assert counters(analyses[1].branches()) == \
            counters(live.branches())

    def test_memory_divergence_matrix(self, captured):
        name, _, _, analyses = captured
        live = _live_run(name, MemoryDivergenceProfiler)
        assert (analyses[2].matrix() == live.matrix()).all()
        assert analyses[2].diverged_fraction() == \
            live.diverged_fraction()

    def test_cache_simulation(self, captured):
        name, _, _, analyses = captured
        live = _live_run(name, MemoryTracer)
        l2 = Cache(256 << 10, ways=16, name="L2")
        l1 = Cache(16 << 10, ways=4, name="L1", next_level=l2)
        live.replay_through(l1)
        live.close()
        sim = analyses[0]
        assert (l1.stats.accesses, l1.stats.hits, l1.stats.misses) == \
            (sim.l1.stats.accesses, sim.l1.stats.hits,
             sim.l1.stats.misses)
        assert (l2.stats.accesses, l2.stats.hits, l2.stats.misses) == \
            (sim.l2.stats.accesses, sim.l2.stats.hits,
             sim.l2.stats.misses)

    def test_manifest_counts_cover_stream(self, captured):
        _, path, manifest, _ = captured
        events = list(TraceReader(path).events())
        assert manifest.total_events == len(events)
        assert sum(count for _, count in manifest.counts) == len(events)


class TestDeterminism:
    def test_capture_is_bit_deterministic(self, tmp_path):
        a = str(tmp_path / "a.rptrace")
        b = str(tmp_path / "b.rptrace")
        capture_workload("vectoradd", a)
        capture_workload("vectoradd", b)
        assert filecmp.cmp(a, b, shallow=False)

    def test_replay_is_deterministic(self, tmp_path):
        path = str(tmp_path / "run.rptrace")
        capture_workload("vectoradd", path)
        first = replay(path, [CacheSimAnalysis(),
                              OpcodeHistogramAnalysis()])
        second = replay(path, [CacheSimAnalysis(),
                               OpcodeHistogramAnalysis()])
        assert first[0].result() == second[0].result()
        assert first[1].result() == second[1].result()


class TestReplayEngine:
    def test_make_analysis_registry(self):
        from repro.trace import ANALYSES, make_analysis

        for name in ANALYSES:
            assert make_analysis(name).name == name
        with pytest.raises(KeyError):
            make_analysis("not-an-analysis")

    def test_reports_are_strings(self, captured):
        _, _, _, analyses = captured
        for analysis in analyses:
            assert isinstance(analysis.report(), str)
            assert analysis.report()

    def test_telemetry_counters(self, tmp_path):
        from repro.telemetry import TELEMETRY

        path = str(tmp_path / "run.rptrace")
        TELEMETRY.enable(reset=True)
        try:
            manifest, _, _ = capture_workload("vectoradd", path)
            replay(path, [OpcodeHistogramAnalysis()])
            counters = TELEMETRY.counters
            assert counters["trace.events"] == manifest.total_events
            assert counters["trace.replay.events"] == \
                manifest.total_events
            assert counters["trace.bytes_written"] > 0

            names = {node.name for root in TELEMETRY.roots
                     for node in root.walk()}
            assert "trace.capture" in names
            assert "trace.replay" in names
        finally:
            TELEMETRY.disable()

    def test_cachesim_grading_span(self, tmp_path):
        from repro.telemetry import TELEMETRY

        path = str(tmp_path / "run.rptrace")
        capture_workload("vectoradd", path)
        cachesim = CacheSimAnalysis()
        TELEMETRY.enable(reset=True)
        try:
            replay(path, [cachesim])
            accesses = cachesim.result()["l1"]["accesses"]
            names = [node.name for root in TELEMETRY.roots
                     for node in root.walk()]
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert accesses > 0
        assert names.count("replay.feed_s.cachesim") == 1
