"""Differential suite: columnar replay of real captures == the oracle.

The contract the vectorized replay ships on: for every stock analysis
(cachesim, divergence, memdiv, opcodes, timing), feeding decoded
:class:`FrameColumns` batches through ``feed_columns`` produces
byte-for-byte the ``result()`` JSON and ``report()`` text of the
event-at-a-time oracle in :mod:`tests.replay_oracle`.  For timing the
identity goes deeper than the public surface: cycle counts, per-reason
stall cycles, bubble records, and hotspot tables must match to the bit.
CI runs this file under a no-skip gate.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.server.jobs import run_job_local
from repro.telemetry import TELEMETRY
from repro.trace.capture import capture_workload
from repro.trace.index import ensure_index, index_path_for
from repro.trace.io import TraceReader
from repro.trace.replay import TraceAnalysis, make_analysis, replay
from tests.replay_oracle import canonical, make_oracle, oracle_replay

pytestmark = pytest.mark.noskip

WORKLOADS = ("rodinia/pathfinder", "rodinia/lud")
ANALYSES = ("cachesim", "divergence", "memdiv", "opcodes", "timing")
JOB_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module", params=WORKLOADS)
def captured(request, tmp_path_factory):
    safe = request.param.replace("/", "_")
    path = str(tmp_path_factory.mktemp("columnar") / f"{safe}.rptrace")
    _, verified, _ = capture_workload(request.param, path)
    assert verified
    return path


@pytest.fixture(scope="module")
def streaming_baseline(captured):
    """The event-at-a-time oracle — the reference the columnar replay
    must match byte-for-byte."""
    return canonical(oracle_replay(TraceReader(captured).events(),
                                   [make_oracle(n) for n in ANALYSES]))


def test_every_stock_analysis_is_columnar():
    for name in ANALYSES:
        analysis = make_analysis(name)
        assert type(analysis).feed_columns is not \
            TraceAnalysis.feed_columns, name


def test_every_frame_takes_the_vector_path(captured, monkeypatch):
    """The fast path must actually engage on real captures: every
    decode batch of both workloads takes exactly one vector pass, which
    covers every frame of the batch and is accepted (no batch declines,
    so the per-frame fallback never runs)."""
    from repro.trace import io as trace_io

    batches = []     # frames per decode_frame_columns call
    passes = []      # frames per _columns_vector call
    vector = []
    real_decode = trace_io.decode_frame_columns
    real_vector = trace_io._columns_vector

    def decode(slices):
        batches.append(len(slices))
        return real_decode(slices)

    def counted(tok, *cuts):
        passes.append(len(cuts) + 1)
        vector.append(real_vector(tok, *cuts))
        return vector[-1]

    monkeypatch.setattr(trace_io, "decode_frame_columns", decode)
    monkeypatch.setattr(trace_io, "_columns_vector", counted)
    index = ensure_index(captured)
    assert index is not None and index.shardable
    frames = list(TraceReader(captured).frames(index.entries))
    assert len(frames) == index.launches > 1
    assert [frame.events for frame in frames] == \
        [entry.events for entry in index.entries]
    assert passes == batches and sum(batches) == len(frames)
    assert all(columns is not None for columns in vector)


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


def test_replay_without_sidecar_bit_identical(captured, streaming_baseline,
                                              tmp_path):
    # the same trace with no sidecar takes the event-grouping route
    bare = str(tmp_path / "bare.rptrace")
    shutil.copyfile(captured, bare)
    assert not os.path.exists(index_path_for(bare))
    assert canonical(replay(bare, [make_analysis(n) for n in ANALYSES])) \
        == streaming_baseline


def test_single_analysis_subsets_match(captured, streaming_baseline):
    # analyses sharing a pass do not disturb one another
    for position, name in enumerate(ANALYSES):
        (only,) = replay(captured, [make_analysis(name)])
        assert canonical([only]) == [streaming_baseline[position]]


@pytest.mark.parametrize("jobs", JOB_COUNTS)
def test_sharded_columnar_bit_identical(captured, streaming_baseline,
                                        jobs):
    """serial == server: a replay job run at any worker count reports
    exactly what ``replay()`` does, analysis by analysis, and counts
    every event once."""
    record = run_job_local({"kind": "replay",
                            "payload": {"trace": captured,
                                        "analyses": list(ANALYSES)}},
                           jobs=jobs)
    entries = record["result"]["analyses"]
    assert [entry["analysis"] for entry in entries] == list(ANALYSES)
    assert [(json.dumps(entry["data"], sort_keys=True,
                        separators=(",", ":")), entry["report"])
            for entry in entries] == streaming_baseline
    manifest = TraceReader(captured).manifest()
    assert record["result"]["counters"] == {
        "trace.replay.events": manifest.total_events}


def test_timing_schedule_internals_bit_identical(captured):
    """Beyond result()/report(): the full schedule state — cycles,
    busy/bubble split, per-reason stalls, every Bubble record, and the
    per-address hotspot table — matches the oracle scheduler."""
    (stream,) = oracle_replay(TraceReader(captured).events(),
                              [make_oracle("timing")])
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
