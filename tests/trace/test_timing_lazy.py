"""Timing report objects are built only when read.

``TimingAnalysis.result()`` and ``report()`` read scalars only, so they
must construct no :class:`~repro.sim.scheduler.Bubble`,
:class:`~repro.sim.scheduler.Hotspot` or divergence span.  Reading
``.bubbles``, ``.hotspots`` and ``.spans`` afterwards must give exactly
the object-at-a-time oracle's rows, and the rendered summaries must stay
byte-identical to the golden timing snapshots.  A model that rebuilds
after every launch (the smallest batch bound) must report what the
default batching reports.
"""

from __future__ import annotations

import os

import pytest

from repro.sim import scheduler
from repro.sim.scheduler import SchedulerConfig
from repro.trace import timing
from repro.trace.capture import capture_workload
from repro.trace.io import TraceReader
from repro.trace.replay import replay
from repro.trace.timing import TimingAnalysis, render_iters, render_summary
from tests.integration.test_golden_timing import GOLDEN_DIR, _slug
from tests.timing_oracle import (
    OracleTimingModel,
    oracle_schedule_launch,
    oracle_spans,
)

pytestmark = pytest.mark.noskip

POLICIES = ("gto", "lrr")
WORKLOADS = ("rodinia/nn", "rodinia/pathfinder", "parboil/sgemm(small)")


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """One captured trace per golden workload."""
    directory = tmp_path_factory.mktemp("lazy")
    paths = {}
    for name in WORKLOADS:
        path = str(directory / f"{_slug(name)}.rptrace")
        _, verified, _ = capture_workload(name, path)
        assert verified, name
        paths[name] = path
    return paths


@pytest.fixture()
def built(monkeypatch):
    """Counts of the report objects constructed while the test runs."""
    counts = {"Bubble": 0, "Hotspot": 0, "column_spans": 0}

    def counting(module, name):
        real = getattr(module, name)

        def make(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, make)

    counting(scheduler, "Bubble")
    counting(scheduler, "Hotspot")
    counting(timing, "column_spans")
    return counts


@pytest.mark.parametrize("name", WORKLOADS)
def test_result_and_report_build_no_report_objects(traces, built, name):
    oracle = OracleTimingModel()
    oracle.feed_batch(TraceReader(traces[name]).events())
    oracle.finish()
    sections = []
    for policy in POLICIES:
        before = dict(built)
        (analysis,) = replay(traces[name], [TimingAnalysis(policy=policy)])
        result = analysis.result()
        analysis.report()
        assert built == before
        assert result["total_cycles"] > 0

        report = analysis.model.schedule(policy)
        config = SchedulerConfig(policy=policy)
        assert len(report.launches) == len(oracle.launches)
        for timing_row, builder in zip(report.launches, oracle.launches):
            want = oracle_schedule_launch(builder.ctas, config)
            assert timing_row.schedule.stall_cycles == want.stall_cycles
            assert timing_row.schedule.bubbles == want.bubbles
            assert timing_row.schedule.hotspots == want.hotspots
            assert timing_row.spans == oracle_spans(builder)
        assert built["Hotspot"] > before["Hotspot"]
        sections.append(render_summary(report))
        sections.append(render_iters(report))
    with open(os.path.join(GOLDEN_DIR,
                           f"timing_{_slug(name)}.txt")) as handle:
        assert "\n\n".join(sections) + "\n" == handle.read()


def test_batch_bound_does_not_change_reports(traces, monkeypatch):
    """Rebuilding after every launch reports exactly what one batch
    over the whole trace reports."""
    path = traces["rodinia/pathfinder"]
    (whole,) = replay(path, [TimingAnalysis()])
    monkeypatch.setattr(timing, "BATCH_RECORDS", 1)
    (split,) = replay(path, [TimingAnalysis()])
    assert len(whole.model.launches) == len(split.model.launches) > 1
    assert len(whole.model._batches) == 1
    assert len(split.model._batches) == len(split.model.launches)
    for policy in POLICIES:
        want = whole.model.schedule(policy)
        got = split.model.schedule(policy)
        assert render_summary(got) == render_summary(want)
        assert render_iters(got) == render_iters(want)
        for mine, theirs in zip(got.launches, want.launches):
            assert mine.schedule == theirs.schedule
            assert mine.schedule.bubbles == theirs.schedule.bubbles
            assert mine.schedule.hotspots == theirs.schedule.hotspots
            assert mine.spans == theirs.spans
