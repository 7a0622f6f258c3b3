"""``repro trace query``: filtered event extraction from a trace.

Treats a recorded trace as a queryable artifact instead of a linear
stream (the nsys-style ``search`` workflow): filter events by launch
range, opcode class, instruction/line address range, and warp, and let
the ``.rpti`` index skip entire launch frames — a query over one late
launch reads O(frame) bytes, not O(trace).

Filter semantics:

* ``launches`` — half-open ordinal range ``[lo, hi)`` over the trace's
  launch frames (ordinal = position in the trace, not ``launch_index``).
* ``classes`` — an :class:`~repro.isa.opcodes.OpClass` mask matched
  against each instruction's opcode classes.  Memory and branch events
  carry no opcode, so they inherit the verdict of the instruction event
  they are attached to (capture writes ``[instr, mem?, branch?]``
  batches per site — attachment is "after this instruction, before the
  next one").
* ``addr`` — half-open address range; an event matches on its
  instruction address, and a memory event also matches when any of its
  coalesced line addresses falls in the range.
* ``warp`` — global warp ordinal within each launch
  (``cta_index * warps_per_cta + warp_index``), recovered by the same
  deterministic warp segmentation the timing model uses.  Only
  meaningful for full captures (warp reconstruction needs every
  instruction); tagging runs only when the filter is set.
* ``kinds`` — restrict which event kinds are emitted at all
  (``instr`` / ``mem`` / ``branch``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.isa.opcodes import Opcode, OpClass, OPCODE_CLASSES
from repro.trace import index as index_mod
from repro.trace.format import (
    TAG_BRANCH,
    TAG_INSTR,
    TAG_KEND,
    TAG_MEM,
    BranchEvent,
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
    iter_slice_events,
)
from repro.trace.io import (
    FrameColumns,
    TraceReader,
    decode_frame_columns,
    record_error,
    unknown_opcode,
)

QUERY_KINDS = ("instr", "mem", "branch")

#: OpClass members addressable from the CLI (lowercase)
CLASS_NAMES = {name.lower(): member
               for name, member in OpClass.__members__.items()
               if member is not OpClass.NONE}


class QueryError(ValueError):
    """A malformed query filter (bad range/class/address syntax)."""


def _parse_range(text: str, what: str
                 ) -> Tuple[Optional[int], Optional[int]]:
    """``"a:b"`` / ``"a:"`` / ``":b"`` / ``"a"`` -> (lo, hi-exclusive)."""
    try:
        if ":" not in text:
            value = int(text, 0)
            return value, value + 1
        lo_text, hi_text = text.split(":", 1)
        lo = int(lo_text, 0) if lo_text else None
        hi = int(hi_text, 0) if hi_text else None
        return lo, hi
    except ValueError:
        raise QueryError(f"bad {what} range {text!r} (want N, N:M, N:, "
                         "or :M; addresses may be hex)")


@dataclass(frozen=True)
class QueryFilter:
    """One query's predicates (all optional, AND-ed together)."""

    launches: Optional[Tuple[Optional[int], Optional[int]]] = None
    classes: Optional[OpClass] = None
    addr: Optional[Tuple[Optional[int], Optional[int]]] = None
    warp: Optional[int] = None
    kinds: Tuple[str, ...] = QUERY_KINDS

    @classmethod
    def parse(cls, launches: Optional[str] = None,
              classes: Optional[str] = None,
              addr: Optional[str] = None,
              warp: Optional[int] = None,
              kinds: Optional[str] = None) -> "QueryFilter":
        """Build a filter from CLI strings."""
        launch_range = _parse_range(launches, "launch") if launches else None
        mask = None
        if classes:
            mask = OpClass.NONE
            for name in classes.split(","):
                name = name.strip().lower()
                if name not in CLASS_NAMES:
                    raise QueryError(
                        f"unknown opcode class {name!r} (choose from "
                        f"{', '.join(sorted(CLASS_NAMES))})")
                mask |= CLASS_NAMES[name]
        addr_range = _parse_range(addr, "address") if addr else None
        kind_tuple = QUERY_KINDS
        if kinds:
            requested = tuple(k.strip() for k in kinds.split(","))
            for kind in requested:
                if kind not in QUERY_KINDS:
                    raise QueryError(
                        f"unknown event kind {kind!r} (choose from "
                        f"{', '.join(QUERY_KINDS)})")
            kind_tuple = requested
        return cls(launches=launch_range, classes=mask, addr=addr_range,
                   warp=warp, kinds=kind_tuple)

    # ------------------------------------------------------ predicates

    def launch_in_range(self, ordinal: int) -> bool:
        if self.launches is None:
            return True
        lo, hi = self.launches
        return ((lo is None or ordinal >= lo)
                and (hi is None or ordinal < hi))

    def addr_matches(self, event) -> bool:
        if self.addr is None:
            return True
        lo, hi = self.addr

        def contains(value: int) -> bool:
            return ((lo is None or value >= lo)
                    and (hi is None or value < hi))

        if contains(event.ins_addr):
            return True
        if isinstance(event, MemEvent):
            return any(contains(line) for line in event.line_addresses)
        return False


@dataclass(frozen=True)
class QueryHit:
    """One matching event with its launch/warp context."""

    launch: int                  # launch ordinal (-1: before any launch)
    kernel: str                  # "" before any launch
    warp: Optional[int]          # tagged only when filtering by warp
    event: object


@dataclass
class QueryStats:
    """What the query engine did (shown by the CLI)."""

    launches_total: int = 0
    launches_visited: int = 0
    launches_skipped: int = 0
    events_scanned: int = 0
    hits: int = 0
    used_index: bool = False


def _warp_ordinals(launch: LaunchEvent, events: List[object]) -> List[int]:
    """Each instruction event's global warp ordinal, from the timing
    model's warp segmentation; an instruction right before a kernel-end
    or launch record sees no next instruction."""
    from repro.trace.timing import segment_warps

    addrs: List[int] = []
    opcodes: List[int] = []
    cuts = set()
    for event in events:
        if isinstance(event, InstrEvent):
            addrs.append(event.ins_addr)
            opcodes.append(event.opcode)
        elif isinstance(event, (LaunchEvent, KernelEndEvent)) and addrs:
            cuts.add(len(addrs) - 1)
    ordinals, _ = segment_warps(launch, addrs, np.asarray(opcodes), cuts)
    return ordinals.tolist()


def _column_warp_ordinals(frame: FrameColumns) -> List[int]:
    """:func:`_warp_ordinals` from a decoded frame's columns, so the
    frame's events can stream past the tagger unbuffered."""
    from repro.trace.timing import segment_warps

    tags = frame.record_tags
    before_end = np.cumsum(tags == TAG_INSTR)[tags == TAG_KEND]
    cuts = set((before_end[before_end > 0] - 1).tolist())
    ordinals, _ = segment_warps(frame.launch, frame.instr_addr.tolist(),
                                frame.instr_opcodes, cuts)
    return ordinals.tolist()


def _frame_hits(events, ordinal: int, kernel: str, filt: QueryFilter,
                stats: QueryStats, launch: Optional[LaunchEvent],
                warp_ordinals: Optional[List[int]] = None
                ) -> Iterator[QueryHit]:
    """Filter one frame's events (the leading launch record excluded).

    Under a warp filter each instruction is tagged with its warp
    ordinal: from *warp_ordinals* when the caller computed them from
    the frame's columns, else by segmenting the frame up front (warp
    handoffs need lookahead, so the frame's events are buffered).
    Memory and branch events take the warp of the instruction they are
    attached to.
    """
    tagged = filt.warp is not None and launch is not None
    if tagged:
        if warp_ordinals is None:
            events = list(events)
            warp_ordinals = _warp_ordinals(launch, events)
        warps = iter(warp_ordinals)
    want_instr = "instr" in filt.kinds
    want_mem = "mem" in filt.kinds
    want_branch = "branch" in filt.kinds
    # warp of the anchoring instruction (None: no anchor, or untagged)
    warp: Optional[int] = None
    # class verdict of the current attachment group; events before the
    # first instruction have nothing to inherit from
    group_match = filt.classes is None
    for event in events:
        stats.events_scanned += 1
        if isinstance(event, InstrEvent):
            classes = _opclasses(event, launch)
            group_match = (filt.classes is None
                           or bool(classes & filt.classes))
            passes = (group_match and want_instr
                      and filt.addr_matches(event))
            if tagged:
                warp = next(warps)
                passes = passes and warp == filt.warp
            if passes:
                stats.hits += 1
                yield QueryHit(launch=ordinal, kernel=kernel, warp=warp,
                               event=event)
        elif isinstance(event, (LaunchEvent, KernelEndEvent)):
            warp = None
        else:
            is_mem = isinstance(event, MemEvent)
            wanted = want_mem if is_mem else want_branch
            if not (wanted and group_match and filt.addr_matches(event)):
                continue
            # under a warp filter an unanchored event (frameless trace)
            # cannot be placed, so it is excluded
            if tagged and (warp is None or warp != filt.warp):
                continue
            stats.hits += 1
            yield QueryHit(launch=ordinal, kernel=kernel, warp=warp,
                           event=event)


def _opclasses(event: InstrEvent, launch: Optional[LaunchEvent]) -> OpClass:
    """*event*'s opcode classes; an unknown opcode id is a malformed
    record of *launch*."""
    try:
        return OPCODE_CLASSES[Opcode(event.opcode)]
    except ValueError:
        raise record_error(launch, "INSTR", unknown_opcode(event.opcode))


#: opcode id -> OPCODE_CLASSES flag value, for vectorized class tests
_class_values: Optional[np.ndarray] = None


def _opclass_values() -> np.ndarray:
    global _class_values
    if _class_values is None:
        table = np.zeros(max(op.value for op in Opcode) + 1,
                         dtype=np.int64)
        for op in Opcode:
            table[op.value] = OPCODE_CLASSES[op].value
        _class_values = table
    return _class_values


def _frame_hits_columns(frame: FrameColumns, ordinal: int, kernel: str,
                        filt: QueryFilter, stats: QueryStats
                        ) -> Iterator[QueryHit]:
    """Columnar twin of :func:`_frame_hits` for warp-less filters: the
    class/addr/kind predicates run as array masks over one decoded
    frame, and only the matching events are materialized as objects.
    Hit set and order are identical to the event-stream walk."""
    stats.events_scanned += frame.events
    tags = frame.record_tags
    instr_pos = np.flatnonzero(tags == TAG_INSTR)

    addr_range = filt.addr

    def in_range(values: np.ndarray) -> np.ndarray:
        if addr_range is None:
            return np.ones(values.size, dtype=bool)
        lo, hi = addr_range
        match = np.ones(values.size, dtype=bool)
        if lo is not None:
            match &= values >= lo
        if hi is not None:
            match &= values < hi
        return match

    if filt.classes is None:
        instr_class = np.ones(instr_pos.size, dtype=bool)
    else:
        instr_class = (_opclass_values()[frame.instr_opcodes]
                       & filt.classes.value) != 0

    def inherited(positions: np.ndarray) -> np.ndarray:
        """Class verdict a mem/branch record inherits from the nearest
        preceding instruction of the frame (none -> no match unless the
        class filter is off)."""
        if filt.classes is None:
            return np.ones(positions.size, dtype=bool)
        group = np.searchsorted(instr_pos, positions, side="right") - 1
        verdict = np.zeros(positions.size, dtype=bool)
        anchored = group >= 0
        verdict[anchored] = instr_class[group[anchored]]
        return verdict

    pos_parts: List[np.ndarray] = []
    kind_parts: List[np.ndarray] = []
    local_parts: List[np.ndarray] = []

    def add(kind: int, positions: np.ndarray, sel: np.ndarray) -> None:
        local = np.flatnonzero(sel)
        if local.size:
            pos_parts.append(positions[local])
            kind_parts.append(np.full(local.size, kind, dtype=np.int64))
            local_parts.append(local)

    if "instr" in filt.kinds and instr_pos.size:
        add(0, instr_pos, instr_class & in_range(frame.instr_addr))
    if "mem" in filt.kinds:
        mem_pos = np.flatnonzero(tags == TAG_MEM)
        if mem_pos.size:
            sel = inherited(mem_pos)
            if addr_range is not None:
                line_match = in_range(frame.mem_lines)
                seg = np.repeat(np.arange(mem_pos.size), frame.mem_nlines)
                any_line = np.bincount(
                    seg, weights=line_match,
                    minlength=mem_pos.size) > 0
                sel &= in_range(frame.mem_addr) | any_line
            add(1, mem_pos, sel)
    if "branch" in filt.kinds:
        branch_pos = np.flatnonzero(tags == TAG_BRANCH)
        if branch_pos.size:
            add(2, branch_pos,
                inherited(branch_pos) & in_range(frame.branch_addr))
    if not pos_parts:
        return
    order = np.argsort(np.concatenate(pos_parts))
    kinds = np.concatenate(kind_parts)[order].tolist()
    locals_ = np.concatenate(local_parts)[order].tolist()
    line_offsets = np.concatenate(
        ([0], np.cumsum(frame.mem_nlines))).tolist()
    for kind, i in zip(kinds, locals_):
        if kind == 0:
            event: object = InstrEvent(
                ins_addr=int(frame.instr_addr[i]),
                opcode=int(frame.instr_opcodes[i]),
                lanes=int(frame.instr_lanes[i]),
                width=int(frame.instr_widths[i]))
        elif kind == 1:
            lines = frame.mem_lines[line_offsets[i]:
                                    line_offsets[i + 1]]
            event = MemEvent(
                ins_addr=int(frame.mem_addr[i]),
                flags=int(frame.mem_flags[i]),
                width=int(frame.mem_width[i]),
                active_lanes=int(frame.mem_active[i]),
                line_addresses=tuple(lines.tolist()))
        else:
            event = BranchEvent(
                ins_addr=int(frame.branch_addr[i]),
                active=int(frame.branch_active[i]),
                taken=int(frame.branch_taken[i]),
                not_taken=int(frame.branch_not_taken[i]))
        stats.hits += 1
        yield QueryHit(launch=ordinal, kernel=kernel, warp=None,
                       event=event)


def _entry_can_match(entry: "index_mod.LaunchEntry",
                     filt: QueryFilter) -> bool:
    """Can anything in this frame match, judging by counts alone?"""
    wanted = 0
    if "instr" in filt.kinds:
        wanted += entry.instr
    if "mem" in filt.kinds:
        wanted += entry.mem
    if "branch" in filt.kinds:
        wanted += entry.branch
    if wanted == 0:
        return False
    if filt.classes is not None and entry.instr == 0:
        return False             # nothing for mem/branch to inherit from
    return True


def run_query(trace_path: str, filt: QueryFilter,
              index: Optional["index_mod.TraceIndex"] = None
              ) -> Tuple[Iterator[QueryHit], QueryStats]:
    """Run *filt* over *trace_path*.

    Returns ``(hits, stats)`` — a lazy hit iterator plus a stats object
    that fills in as the iterator is consumed (final once exhausted;
    a truncated consumer sees the stats of what was actually read).
    Uses the ``.rpti`` sidecar to skip launches when one is on disk and
    bound to this trace, else falls back to a full scan
    (``stats.used_index`` says which — a missing sidecar is reported as
    a full scan, never silently rebuilt by a hidden one).  Indexed
    queries without a warp filter run the columnar fast path
    (:func:`_frame_hits_columns`) per visited frame.
    """
    stats = QueryStats()
    if index is None:
        index = index_mod.sidecar_index(trace_path)
    if index is not None and index.shardable:
        stats.used_index = True
        stats.launches_total = index.launches

        def indexed_hits() -> Iterator[QueryHit]:
            reader = TraceReader(trace_path)
            for ordinal, entry in enumerate(index.entries):
                if (not filt.launch_in_range(ordinal)
                        or not _entry_can_match(entry, filt)):
                    stats.launches_skipped += 1
                    continue
                stats.launches_visited += 1
                data = reader.read_frame(entry)
                frame = decode_frame_columns(data)
                frame.opcodes()          # rejects an unknown opcode id
                if filt.warp is None:
                    yield from _frame_hits_columns(
                        frame, ordinal, entry.kernel, filt, stats)
                    continue
                events = iter(iter_slice_events(data))
                launch = next(events)
                stats.events_scanned += 1
                yield from _frame_hits(events, ordinal, entry.kernel,
                                       filt, stats, launch,
                                       _column_warp_ordinals(frame))

        return indexed_hits(), stats

    def scanned_hits() -> Iterator[QueryHit]:
        ordinal = -1
        launch: Optional[LaunchEvent] = None
        frame: List[object] = []

        def drain() -> Iterator[QueryHit]:
            if not frame:
                return
            if filt.launch_in_range(ordinal):
                stats.launches_visited += ordinal >= 0
                kernel = launch.kernel if launch is not None else ""
                yield from _frame_hits(frame, ordinal, kernel, filt,
                                       stats, launch)
            else:
                stats.launches_skipped += 1
                stats.events_scanned += len(frame)
            frame.clear()

        for event in TraceReader(trace_path).events():
            if isinstance(event, LaunchEvent):
                yield from drain()
                ordinal += 1
                launch = event
                stats.launches_total += 1
                stats.events_scanned += 1
            else:
                frame.append(event)
        yield from drain()

    return scanned_hits(), stats
