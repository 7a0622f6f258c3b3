"""Differential suite: columnar replay is bit-identical to streaming.

The contract the vectorized fast path ships on: for every stock
analysis (cachesim, divergence, memdiv, opcodes, timing), feeding
decoded :class:`FrameColumns` batches through ``feed_columns`` produces
byte-for-byte the ``result()`` JSON and ``report()`` text of the
event-at-a-time streaming replay — serially and across shard workers at
any job count.  For timing the identity goes deeper than the public
surface: cycle counts, per-reason stall cycles, bubble records, and
hotspot tables must match to the bit.  CI runs this file under a
no-skip gate.
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry import TELEMETRY
from repro.trace.capture import capture_workload
from repro.trace.index import ensure_index
from repro.trace.io import TraceReader, decode_frame_columns
from repro.trace.replay import make_analysis, replay, replay_sharded

pytestmark = pytest.mark.noskip

WORKLOADS = ("rodinia/pathfinder", "rodinia/lud")
ANALYSES = ("cachesim", "divergence", "memdiv", "opcodes", "timing")
JOB_COUNTS = (1, 2, 4)


def canonical(analyses):
    return [(json.dumps(a.result(), sort_keys=True,
                        separators=(",", ":")),
             a.report())
            for a in analyses]


@pytest.fixture(scope="module", params=WORKLOADS)
def captured(request, tmp_path_factory):
    safe = request.param.replace("/", "_")
    path = str(tmp_path_factory.mktemp("columnar") / f"{safe}.rptrace")
    _, verified, _ = capture_workload(request.param, path)
    assert verified
    return path


@pytest.fixture(scope="module")
def streaming_baseline(captured):
    """Event-at-a-time replay with the columnar fast path disabled —
    the scalar reference every other mode must match byte-for-byte."""
    return canonical(replay(captured,
                            [make_analysis(n) for n in ANALYSES],
                            columnar=False))


def test_every_stock_analysis_is_columnar():
    for name in ANALYSES:
        assert make_analysis(name).columnar, name


def test_every_frame_takes_the_vector_path(captured):
    """The fast path must actually engage on real captures: every frame
    of both workloads decodes to columns (no events-mode fallback)."""
    index = ensure_index(captured)
    assert index is not None and index.shardable
    reader = TraceReader(captured)
    frames = 0
    for entry, data in reader.frames(index):
        frame = decode_frame_columns(data)
        assert frame is not None
        assert frame.events == entry.events
        frames += 1
    assert frames == index.launches > 1


def test_columnar_serial_bit_identical(captured, streaming_baseline):
    columnar = canonical(replay(captured,
                                [make_analysis(n) for n in ANALYSES]))
    assert columnar == streaming_baseline


def test_columnar_replay_counts_every_event(captured, streaming_baseline):
    """Telemetry event accounting survives the batch path: the columnar
    replay reports exactly as many events as the trace manifest."""
    TELEMETRY.enable(reset=True)
    try:
        replay(captured, [make_analysis("opcodes")])
        counters = dict(TELEMETRY.counters)
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    manifest = TraceReader(captured).manifest()
    assert counters["trace.replay.events"] == manifest.total_events
    assert counters.get("trace.replay.decode_ns", 0) > 0
    assert counters.get("trace.replay.analyze_ns", 0) > 0


@pytest.mark.parametrize("jobs", JOB_COUNTS)
def test_sharded_columnar_bit_identical(captured, streaming_baseline,
                                        jobs):
    sharded = canonical(replay_sharded(captured, ANALYSES, jobs=jobs))
    assert sharded == streaming_baseline


def test_timing_schedule_internals_bit_identical(captured):
    """Beyond result()/report(): the full schedule state — cycles,
    busy/bubble split, per-reason stalls, every Bubble record, and the
    per-address hotspot table — matches the streaming scheduler."""
    (stream,) = replay(captured, [make_analysis("timing")],
                       columnar=False)
    (columnar,) = replay(captured, [make_analysis("timing")])
    ref = stream._report()
    got = columnar._report()
    assert got.policy == ref.policy
    assert got.total_cycles == ref.total_cycles
    assert len(got.launches) == len(ref.launches)
    for mine, theirs in zip(got.launches, ref.launches):
        assert mine.kernel == theirs.kernel
        assert mine.launch_index == theirs.launch_index
        assert mine.cycles == theirs.cycles
        sched, sref = mine.schedule, theirs.schedule
        assert sched.busy_cycles == sref.busy_cycles
        assert sched.bubble_cycles == sref.bubble_cycles
        assert sched.issued == sref.issued
        assert dict(sched.stall_cycles) == dict(sref.stall_cycles)
        assert sched.divergent_instrs == sref.divergent_instrs
        assert sched.bubbles == sref.bubbles
        assert sched.hotspots == sref.hotspots
