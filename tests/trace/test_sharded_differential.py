"""Differential suite: sharded replay is bit-identical to serial.

The contract ``repro replay --jobs N`` ships on: for every stock
analysis (cachesim, divergence, memdiv, opcodes, timing), replaying a
trace partitioned by kernel-launch frame across worker processes and
merging the shard pieces in launch order produces byte-for-byte the
``result()`` JSON and ``report()`` text of the one-pass streaming
replay — at any job count, with or without a ``.rpti`` sidecar on
disk.  CI runs this file under a no-skip gate.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.trace.capture import capture_workload
from repro.trace.format import MEM_FLAG_LOAD, MemEvent
from repro.trace.index import ensure_index, index_path_for
from repro.trace.io import TraceWriter
from repro.trace.replay import make_analysis, replay, replay_sharded

pytestmark = pytest.mark.noskip

WORKLOADS = ("rodinia/pathfinder", "rodinia/lud")
ANALYSES = ("cachesim", "divergence", "memdiv", "opcodes", "timing")
JOB_COUNTS = (2, 4)


def canonical(analyses):
    """The byte-identity surface: result JSON + report text per
    analysis (same serialization the service's canonical bytes use)."""
    return [(json.dumps(a.result(), sort_keys=True,
                        separators=(",", ":")),
             a.report())
            for a in analyses]


@pytest.fixture(scope="module", params=WORKLOADS)
def captured(request, tmp_path_factory):
    safe = request.param.replace("/", "_")
    path = str(tmp_path_factory.mktemp("sharded") / f"{safe}.rptrace")
    _, verified, _ = capture_workload(request.param, path)
    assert verified
    return path


@pytest.fixture(scope="module")
def serial_baseline(captured):
    return canonical(replay(captured,
                            [make_analysis(n) for n in ANALYSES]))


@pytest.mark.parametrize("jobs", JOB_COUNTS)
def test_sharded_replay_bit_identical(captured, serial_baseline, jobs):
    index = ensure_index(captured)
    assert index is not None and index.shardable
    assert index.launches > 1, "need a multi-launch trace to shard"
    sharded = canonical(replay_sharded(captured, ANALYSES, jobs=jobs))
    assert sharded == serial_baseline


def test_sharded_without_sidecar_bit_identical(captured, serial_baseline,
                                               tmp_path):
    # copy the trace without its sidecar: the index is rebuilt by a
    # one-off scan and the partition (hence the bytes) is unchanged
    bare = str(tmp_path / "bare.rptrace")
    with open(captured, "rb") as src, open(bare, "wb") as dst:
        dst.write(src.read())
    assert not os.path.exists(index_path_for(bare))
    sharded = canonical(replay_sharded(bare, ANALYSES, jobs=2))
    assert sharded == serial_baseline


def test_single_analysis_subsets_match(captured, serial_baseline):
    for position, name in enumerate(ANALYSES):
        (only,) = replay_sharded(captured, [name], jobs=2)
        assert canonical([only]) == [serial_baseline[position]]


def test_frameless_trace_falls_back_to_streaming(tmp_path):
    # a trace with no launch framing cannot shard; replay_sharded must
    # still answer — via the streaming pass — with identical results
    path = str(tmp_path / "frameless.rptrace")
    with TraceWriter(path) as writer:
        for k in range(40):
            writer.write(MemEvent(ins_addr=0x1000 + 8 * (k % 5),
                                  flags=MEM_FLAG_LOAD, width=4,
                                  active_lanes=32,
                                  line_addresses=(0x10000000 + 32 * k,)))
    writer.close()
    index = ensure_index(path)
    assert index is not None and not index.shardable
    serial = canonical(replay(path, [make_analysis("cachesim")]))
    sharded = canonical(replay_sharded(path, ["cachesim"], jobs=4))
    assert sharded == serial
