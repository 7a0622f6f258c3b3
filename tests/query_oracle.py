"""Reference ``trace query``, kept as a test oracle.

This is the event-at-a-time walk that the column filter in
:mod:`repro.trace.query` replaced: the trace's events are grouped at
each launch record into a buffered list, and every event of a visited
launch is tested one by one against the filter, carrying the class
verdict and the warp of the last instruction along the stream.  Warp
ordinals come from :func:`repro.trace.timing.segment_warps` over the
launch's instruction events.

Semantics it pins (and :func:`repro.trace.query.run_query` must match):

* a memory or branch event inherits the class verdict of the nearest
  preceding instruction of its launch; with none, it matches only when
  no class filter is set;
* under a warp filter it also inherits that instruction's warp, but a
  kernel-end record in between leaves it unanchored, and an unanchored
  event is excluded;
* records ahead of the first launch have no warp at all, so a warp
  filter excludes every one of them.

:func:`oracle_query` also reproduces the full scan's
:class:`~repro.trace.query.QueryStats`.  Nothing here is imported by
``src/``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.isa.opcodes import OPCODE_CLASSES, Opcode
from repro.trace.format import InstrEvent, KernelEndEvent, LaunchEvent, \
    MemEvent
from repro.trace.query import QueryFilter, QueryHit, QueryStats


def addr_matches(filt: QueryFilter, event) -> bool:
    """*event*'s instruction address, or one of a memory event's line
    addresses, lies in the filter's address range."""
    if filt.addr is None:
        return True
    lo, hi = filt.addr

    def contains(value: int) -> bool:
        return (lo is None or value >= lo) and (hi is None or value < hi)

    if contains(event.ins_addr):
        return True
    if isinstance(event, MemEvent):
        return any(contains(line) for line in event.line_addresses)
    return False


def warp_ordinals(launch: LaunchEvent, events: List[object]) -> List[int]:
    """Each instruction event's global warp ordinal; an instruction
    right before a kernel-end record sees no next instruction."""
    from repro.trace.timing import segment_warps

    addrs: List[int] = []
    opcodes: List[int] = []
    cuts = set()
    for event in events:
        if isinstance(event, InstrEvent):
            addrs.append(event.ins_addr)
            opcodes.append(event.opcode)
        elif isinstance(event, KernelEndEvent) and addrs:
            cuts.add(len(addrs) - 1)
    ordinals, _ = segment_warps(launch, addrs, np.asarray(opcodes), cuts)
    return ordinals.tolist()


def frame_hits(events: List[object], ordinal: int, kernel: str,
               filt: QueryFilter, stats: QueryStats,
               launch: Optional[LaunchEvent]) -> List[QueryHit]:
    """Filter one launch's events (its launch record excluded)."""
    tagged = filt.warp is not None
    if tagged and launch is not None:
        warps = iter(warp_ordinals(launch, events))
    want_instr = "instr" in filt.kinds
    want_mem = "mem" in filt.kinds
    want_branch = "branch" in filt.kinds
    hits: List[QueryHit] = []
    # warp of the anchoring instruction (None: no anchor, or untagged)
    warp: Optional[int] = None
    # class verdict of the current attachment group; events before the
    # first instruction have nothing to inherit from
    group_match = filt.classes is None
    for event in events:
        stats.events_scanned += 1
        if isinstance(event, InstrEvent):
            classes = OPCODE_CLASSES[Opcode(event.opcode)]
            group_match = (filt.classes is None
                           or bool(classes & filt.classes))
            passes = (group_match and want_instr
                      and addr_matches(filt, event))
            if tagged:
                warp = next(warps) if launch is not None else None
                passes = passes and warp == filt.warp
            if passes:
                hits.append(QueryHit(launch=ordinal, kernel=kernel,
                                     warp=warp, event=event))
        elif isinstance(event, KernelEndEvent):
            warp = None
        else:
            is_mem = isinstance(event, MemEvent)
            wanted = want_mem if is_mem else want_branch
            if not (wanted and group_match and addr_matches(filt, event)):
                continue
            if tagged and (warp is None or warp != filt.warp):
                continue
            hits.append(QueryHit(launch=ordinal, kernel=kernel, warp=warp,
                                 event=event))
    stats.hits += len(hits)
    return hits


def oracle_query(events: Iterable[object], filt: QueryFilter
                 ) -> Tuple[List[QueryHit], QueryStats]:
    """*filt* over an event stream, with the full scan's stats."""
    stats = QueryStats()
    hits: List[QueryHit] = []
    ordinal = -1
    launch: Optional[LaunchEvent] = None
    frame: List[object] = []

    def drain() -> None:
        if not frame:
            return
        if filt.launch_in_range(ordinal):
            stats.launches_visited += ordinal >= 0
            kernel = launch.kernel if launch is not None else ""
            hits.extend(frame_hits(frame, ordinal, kernel, filt, stats,
                                   launch))
        else:
            stats.launches_skipped += ordinal >= 0
            stats.events_scanned += len(frame)
        frame.clear()

    for event in events:
        if isinstance(event, LaunchEvent):
            drain()
            ordinal += 1
            launch = event
            stats.launches_total += 1
            stats.events_scanned += 1
        else:
            frame.append(event)
    drain()
    return hits, stats
