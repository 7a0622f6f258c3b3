"""Differential suite: launch-columnar ``replay()`` == the per-event oracle.

:mod:`tests.replay_oracle` keeps the event-at-a-time analysis bodies
and streaming driver that the columnar replay replaced.  Random traces
are written through the public :class:`TraceWriter` and replayed both
ways; every stock analysis (cachesim, divergence, memdiv, opcodes,
timing) must agree in ``result()`` JSON and ``report()`` text.  The
generator draws what the indexed frame path never sees on captures:

* stray records ahead of the first launch;
* records after a kernel end (before the next launch, or at the end);
* empty launches (a zero-CTA grid, or a launch and its kernel end with
  nothing between);
* code and data past 2**63 and past 2**64 (exact object columns);
* a trace cut off before its last kernel end;
* a ``.rpti`` sidecar that is present, missing or stale.
"""

from __future__ import annotations

import io
import os
import random
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import Opcode
from repro.trace.format import (
    MEM_FLAG_LOAD,
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
)
from repro.trace.index import ensure_index, index_path_for, sidecar_index
from repro.trace.io import TraceReader, TraceWriter
from repro.trace.replay import make_analysis, replay
from tests.replay_oracle import canonical, make_oracle, oracle_replay
from tests.trace.test_timing_oracle import _launch_events

pytestmark = pytest.mark.noskip

ANALYSES = ("cachesim", "divergence", "memdiv", "opcodes", "timing")


def _kwargs(name: str, policy: str) -> dict:
    return {"policy": policy} if name == "timing" else {}


def _replayed(trace, policy: str = "gto"):
    return canonical(replay(trace, [make_analysis(n, **_kwargs(n, policy))
                                    for n in ANALYSES]))


def _oracle(events, policy: str = "gto"):
    return canonical(oracle_replay(
        events, [make_oracle(n, **_kwargs(n, policy)) for n in ANALYSES]))


def _write(path: str, events) -> None:
    with TraceWriter(path) as writer:
        for event in events:
            writer.write(event)


# ------------------------------------------------------------ generator

def _well_formed(event):
    """Memory records the live profilers can produce: at least one
    active lane and one line (the generator's timing launches also draw
    empty ones, which ``memdiv`` rejects as malformed)."""
    if isinstance(event, MemEvent) and (not event.line_addresses
                                        or event.active_lanes < 1):
        return MemEvent(ins_addr=event.ins_addr, flags=event.flags,
                        width=event.width,
                        active_lanes=max(1, event.active_lanes),
                        line_addresses=event.line_addresses
                        or (event.ins_addr & ~31,))
    return event


def _stray(rng: random.Random, base: int):
    """A few records outside any launch."""
    records = []
    for _ in range(rng.randint(1, 4)):
        addr = base + 8 * rng.randint(0, 40)
        kind = rng.randrange(3)
        if kind == 0:
            records.append(InstrEvent(ins_addr=addr,
                                      opcode=Opcode.IADD.value,
                                      lanes=rng.randint(0, 32), width=4))
        elif kind == 1:
            records.append(MemEvent(
                ins_addr=addr, flags=MEM_FLAG_LOAD, width=4,
                active_lanes=rng.randint(1, 32),
                line_addresses=tuple(base + 32 * rng.randint(0, 99)
                                     for _ in range(rng.randint(1, 4)))))
        else:
            taken = rng.randint(0, 32)
            records.append(BranchEvent(ins_addr=addr, active=32,
                                       taken=taken, not_taken=32 - taken))
    return records


@st.composite
def traces(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    base = draw(st.sampled_from((0, 0, 2 ** 63 + 2 ** 40,
                                 2 ** 64 + 2 ** 40)))
    events = _stray(rng, base) if draw(st.booleans()) else []
    for index in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 5)) == 0:          # nothing in between
            events += [LaunchEvent(kernel="empty", grid=(2, 1, 1),
                                   block=(64, 1, 1), launch_index=index),
                       KernelEndEvent(warp_instructions=0)]
        else:
            events += _launch_events(
                rng, index, warps=draw(st.integers(1, 8)),
                ctas=draw(st.integers(1, 3)), base=base)
        if draw(st.integers(0, 3)) == 0:          # after the kernel end
            events += _stray(rng, base)
    if draw(st.integers(0, 7)) == 0 and isinstance(events[-1],
                                                   KernelEndEvent):
        events.pop()                              # cut off
    return [_well_formed(event) for event in events]


# --------------------------------------------------------------- tests

@settings(max_examples=100, deadline=None)
@given(events=traces(), sidecar=st.sampled_from(("present", "missing",
                                                 "stale")),
       policy=st.sampled_from(("gto", "lrr")))
def test_replay_equals_oracle(events, sidecar, policy):
    want = _oracle(events, policy)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "t.rptrace")
        _write(path, events)
        if sidecar == "missing":
            os.remove(index_path_for(path))
        elif sidecar == "stale":
            # the sidecar of a different trace is not bound to this one
            other = os.path.join(scratch, "other.rptrace")
            _write(other, events + [KernelEndEvent(warp_instructions=1)])
            shutil.copyfile(index_path_for(other), index_path_for(path))
            assert sidecar_index(path) is None
        assert _replayed(path, policy) == want
        with open(path, "rb") as handle:      # a nameless file object
            stream = io.BytesIO(handle.read())
        assert _replayed(TraceReader(stream), policy) == want


def test_frameless_trace_replays_like_the_oracle(tmp_path):
    # records with no launch framing form one launch-less batch
    path = str(tmp_path / "frameless.rptrace")
    events = [MemEvent(ins_addr=0x1000 + 8 * (k % 5), flags=MEM_FLAG_LOAD,
                       width=4, active_lanes=32,
                       line_addresses=(0x10000000 + 32 * k,))
              for k in range(40)]
    _write(path, events)
    index = ensure_index(path)
    assert index is not None and not index.shardable
    assert _replayed(path) == _oracle(events)
    (cachesim,) = replay(path, [make_analysis("cachesim")])
    assert cachesim.result()["l1"]["accesses"] == 40
