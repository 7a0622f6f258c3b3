"""Differential suite: the launch-column ``run_query`` == the per-event
oracle.

:mod:`tests.query_oracle` keeps the event-at-a-time walk that the
column filter replaced.  Random traces from
:func:`tests.trace.test_replay_oracle.traces` (stray records ahead of
the first launch, records after a kernel end, empty launches, code and
data past 2**63, cut-off traces) are written through the public
:class:`TraceWriter` and queried with random filters over launch
ranges, opcode classes, address ranges, warps and kinds.  Hits must
equal the oracle's with the ``.rpti`` sidecar present, missing and
stale; whenever the query runs as a full scan its
:class:`~repro.trace.query.QueryStats` must equal the oracle's too.
On traces the sidecar covers whole, the indexed route's stats must
equal the launches and events the filter can reach, counted from the
written frames.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import OpClass
from repro.trace.format import (
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
)
from repro.trace.index import index_path_for, sidecar_index
from repro.trace.query import QueryFilter, run_query
from tests.query_oracle import oracle_query
from tests.trace.test_replay_oracle import _write, traces

pytestmark = pytest.mark.noskip

FILTERS_PER_TRACE = 6


def _addresses(events):
    addrs = set()
    for event in events:
        if hasattr(event, "ins_addr"):
            addrs.add(event.ins_addr)
        if isinstance(event, MemEvent):
            addrs.update(event.line_addresses)
    return sorted(addrs)


def _random_filter(rng, addrs) -> QueryFilter:
    """A random filter over launch ranges, classes, address ranges
    (drawn around *addrs*), warps and kinds."""
    launches = None
    if rng.random() < 0.4:
        lo = rng.choice((None, 0, 1, 2))
        hi = rng.choice((None, 1, 2, 3))
        launches = (lo, hi)
    classes = None
    if rng.random() < 0.5:
        members = [m for m in OpClass if m is not OpClass.NONE]
        classes = OpClass.NONE
        for member in rng.sample(members, rng.randint(1, 3)):
            classes |= member
    addr = None
    if addrs and rng.random() < 0.4:
        lo, hi = sorted(rng.sample(addrs, 2) if len(addrs) > 1
                        else addrs * 2)
        addr = (rng.choice((None, lo)), rng.choice((None, hi + 1)))
    warp = rng.choice((None, None, 0, 1, 3, 7))
    kinds = ("instr", "mem", "branch")
    if rng.random() < 0.4:
        kinds = tuple(rng.sample(kinds, rng.randint(1, 3)))
    return QueryFilter(launches=launches, classes=classes, addr=addr,
                       warp=warp, kinds=kinds)


def _rows(hits):
    return [(hit.launch, hit.kernel, hit.warp, hit.event) for hit in hits]


@settings(max_examples=60, deadline=None)
@given(events=traces(), sidecar=st.sampled_from(("present", "missing",
                                                 "stale")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_query_equals_oracle(events, sidecar, seed):
    rng = random.Random(seed)
    addrs = _addresses(events)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.rptrace")
        _write(path, events)
        if sidecar == "missing":
            os.remove(index_path_for(path))
        elif sidecar == "stale":
            other = os.path.join(tmp, "other.rptrace")
            _write(other, events + [KernelEndEvent(warp_instructions=1)])
            shutil.copyfile(index_path_for(other), index_path_for(path))
            assert sidecar_index(path) is None
        for _ in range(FILTERS_PER_TRACE):
            filt = _random_filter(rng, addrs)
            want, want_stats = oracle_query(events, filt)
            hits, stats = run_query(path, filt)
            assert _rows(hits) == _rows(want), filt
            assert stats.hits == len(want)
            if sidecar != "present":
                assert not stats.used_index
            if not stats.used_index:
                assert stats == want_stats, filt


def _framed(events):
    """*events* with each run of records outside a ``LAUNCH .. KEND``
    frame wrapped in a launch of its own, which may hold no
    instruction, and a cut-off last frame closed: the sidecar then
    covers every event, so a query takes the indexed route."""
    framed = []
    in_frame = False
    for event in events:
        launch = isinstance(event, LaunchEvent)
        if in_frame and launch:
            framed.append(KernelEndEvent(warp_instructions=0))
        elif not in_frame and not launch:
            framed.append(LaunchEvent(kernel="wrapped", grid=(1, 1, 1),
                                      block=(32, 1, 1),
                                      launch_index=len(framed)))
        framed.append(event)
        in_frame = not isinstance(event, KernelEndEvent)
    if in_frame:
        framed.append(KernelEndEvent(warp_instructions=0))
    return framed


_KINDS = {InstrEvent: "instr", MemEvent: "mem", BranchEvent: "branch"}


def _indexed_stats(events, filt: QueryFilter):
    """``(launches_total, launches_visited, launches_skipped,
    events_scanned)`` of an indexed query: an in-range launch is
    visited when the filter's kinds occur in it (and, under a class
    filter, it also holds an instruction), and scanning it reads all of
    its events."""
    frames = []
    for event in events:
        if isinstance(event, LaunchEvent):
            frames.append([])
        frames[-1].append(event)
    lo, hi = filt.launches or (None, None)
    visited = scanned = 0
    for ordinal, frame in enumerate(frames):
        kinds = [_KINDS.get(type(event)) for event in frame]
        if ((lo is None or ordinal >= lo) and (hi is None or ordinal < hi)
                and any(kind in filt.kinds for kind in kinds)
                and (filt.classes is None or "instr" in kinds)):
            visited += 1
            scanned += len(frame)
    return len(frames), visited, len(frames) - visited, scanned


@settings(max_examples=40, deadline=None)
@given(events=traces(), seed=st.integers(0, 2 ** 32 - 1))
def test_indexed_query_stats(events, seed):
    events = _framed(events)
    rng = random.Random(seed)
    addrs = _addresses(events)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.rptrace")
        _write(path, events)
        assert sidecar_index(path).shardable
        for _ in range(FILTERS_PER_TRACE):
            filt = _random_filter(rng, addrs)
            want, _ = oracle_query(events, filt)
            hits, stats = run_query(path, filt)
            assert _rows(hits) == _rows(want), filt
            assert stats.used_index and stats.hits == len(want)
            assert (stats.launches_total, stats.launches_visited,
                    stats.launches_skipped, stats.events_scanned) == \
                _indexed_stats(events, filt), filt
