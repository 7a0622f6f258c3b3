"""Reference implementation of trace-driven timing, kept as a test oracle.

This is the object-at-a-time timing pipeline the columnar model in
:mod:`repro.trace.timing` and :mod:`repro.sim.scheduler` replaced:

* :class:`WarpStream` and :class:`WarpInstr` are the object form of a
  warp's instruction stream; :func:`stream_columns` converts it to the
  scheduler's :class:`~repro.sim.scheduler.StreamColumns`, and
  :func:`schedule_launch` and :func:`divergence_spans` run the columnar
  scheduler over object-built streams;
* :class:`OracleLaunchBuilder` segments one launch's event stream into
  per-CTA :class:`WarpStream` objects, one :class:`WarpInstr` per
  instruction event, with a one-event lookahead deciding every
  ``EXIT``/``RET`` handoff;
* :class:`OracleTimingModel` feeds events one at a time, grading each
  memory record's lines through the per-line LRU step of
  :mod:`tests.cache_oracle` as it arrives;
* :func:`oracle_schedule_launch` steps each CTA with a ready-heap of
  per-warp state objects and accounts every issue as it happens.

The differential suites assert the production model equals this one,
field for field.  Nothing here is imported by ``src/``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.opcodes import OPCODE_CLASSES, Opcode, OpClass
from repro.isa.program import INSTRUCTION_BYTES
from repro.sim.cache import Cache
from repro.sim.scheduler import (
    DRAM_LATENCY,
    L1_HIT_LATENCY,
    L2_HIT_LATENCY,
    LATENCY_TABLE,
    REASON_EXEC,
    REASON_MEM,
    REASON_SCOREBOARD,
    TRANSACTION_CYCLES,
    Bubble,
    Hotspot,
    LaunchSchedule,
    SchedulerConfig,
    StreamColumns,
    column_spans,
    int_column,
    schedule_columns,
)
from repro.sim.warp import WARP_SIZE
from repro.trace.format import (
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MemEvent,
)
from tests.cache_oracle import access


# ------------------------------------------------------ object streams

@dataclass(slots=True)
class WarpInstr:
    """One dynamic warp instruction of a rebuilt stream.

    ``transactions``/``l1_misses``/``l2_misses`` carry the coalescer
    and cache outcome of a recorded memory access (zero when the
    instruction made none); ``divergent`` marks instructions executed
    with fewer active lanes than the warp's reconverged width.
    """

    addr: int
    opcode: Opcode
    lanes: int
    transactions: int = 0
    l1_misses: int = 0
    l2_misses: int = 0
    divergent: bool = False


@dataclass
class WarpStream:
    """The in-order instruction stream of one warp within one CTA."""

    warp: int
    instrs: List[WarpInstr] = field(default_factory=list)


def stream_columns(ctas: Sequence[Sequence[WarpStream]]) -> StreamColumns:
    """Columns of one launch's object-built streams."""
    instrs = [instr for streams in ctas for stream in streams
              for instr in stream.instrs]
    return StreamColumns(
        addr=int_column([i.addr for i in instrs]),
        opcode=int_column([i.opcode.value for i in instrs]),
        lanes=int_column([i.lanes for i in instrs]),
        transactions=int_column([i.transactions for i in instrs]),
        l1_misses=int_column([i.l1_misses for i in instrs]),
        l2_misses=int_column([i.l2_misses for i in instrs]),
        divergent=np.array([bool(i.divergent) for i in instrs], dtype=bool),
        warp_lengths=[[len(stream.instrs) for stream in streams]
                      for streams in ctas],
        launch_ctas=[len(ctas)])


def schedule_launch(ctas: Sequence[Sequence[WarpStream]],
                    config: Optional[SchedulerConfig] = None
                    ) -> LaunchSchedule:
    """:func:`~repro.sim.scheduler.schedule_columns` over one launch's
    object-built streams."""
    (schedule,) = schedule_columns(stream_columns(ctas), config)
    return schedule


def divergence_spans(stream: WarpStream) -> List[Tuple[int, int, int]]:
    """:func:`~repro.sim.scheduler.column_spans` of one object-built
    warp stream."""
    return column_spans(stream_columns([[stream]]))


# ------------------------------------------------------- segmentation

class OracleLaunchBuilder:
    """Segments one launch's event stream into per-CTA warp streams."""

    def __init__(self, event: LaunchEvent):
        self.kernel = event.kernel
        self.launch_index = event.launch_index
        self.grid = event.grid
        self.block = event.block
        bx, by, bz = event.block
        gx, gy, gz = event.grid
        self.threads = max(1, bx * by * bz)
        self.warps_per_cta = -(-self.threads // WARP_SIZE)
        self.num_ctas = max(1, gx * gy * gz)
        self.entry_addr: Optional[int] = None
        self.instr_count = 0
        self.warp_instructions = 0
        self.desyncs = 0
        self.ctas: List[List[WarpStream]] = []
        self._start_cta()

    def _start_cta(self) -> None:
        n = self.warps_per_cta
        self.streams = [WarpStream(warp=i) for i in range(n)]
        self.alive = [True] * n
        self.parked = [False] * n
        self.started = [False] * n
        self.resume = [0] * n
        self.rebase = [False] * n
        self.committed = [
            min(WARP_SIZE, self.threads - i * WARP_SIZE) for i in range(n)]
        self.current = 0
        self.started[0] = True

    def _select_next(self, current_dead: bool):
        alive = self.alive
        skip = self.current if current_dead else -1
        for i in range(self.current + 1, self.warps_per_cta):
            if i != skip and alive[i] and not self.parked[i]:
                addr = self.resume[i] if self.started[i] else self.entry_addr
                return ("warp", i, addr, False)
        for i in range(self.warps_per_cta):
            if i != skip and alive[i]:
                return ("warp", i, self.resume[i], True)
        if len(self.ctas) + 1 < self.num_ctas:
            return ("cta", 0, self.entry_addr, False)
        return ("end", None, None, False)

    def _advance(self, current_dead: bool) -> None:
        if current_dead:
            self.alive[self.current] = False
        kind, index, _, release = self._select_next(current_dead=False)
        if kind == "warp":
            if release:
                for i in range(self.warps_per_cta):
                    self.parked[i] = False
            self.current = index
            self.started[index] = True
        elif kind == "cta":
            self.ctas.append(self.streams)
            self._start_cta()

    def warp_ordinal(self) -> int:
        """Global warp ordinal the next instruction will be assigned."""
        return len(self.ctas) * self.warps_per_cta + self.current

    def add(self, rec: WarpInstr, next_addr: Optional[int]) -> None:
        if self.entry_addr is None:
            self.entry_addr = rec.addr
        w = self.current
        if not self.alive[w]:
            self.desyncs += 1
        if self.rebase[w]:
            self.committed[w] = max(rec.lanes, 1)
            self.rebase[w] = False
        if rec.lanes > self.committed[w]:
            self.committed[w] = rec.lanes
        rec.divergent = 0 < rec.lanes < self.committed[w]
        self.streams[w].instrs.append(rec)
        self.instr_count += 1
        opcode = rec.opcode
        if opcode is Opcode.BAR:
            self.parked[w] = True
            self.resume[w] = rec.addr + INSTRUCTION_BYTES
            self._advance(current_dead=False)
        elif opcode is Opcode.EXIT or opcode is Opcode.RET:
            self.rebase[w] = True
            if next_addr is None:
                self._advance(current_dead=True)
            elif next_addr == rec.addr + INSTRUCTION_BYTES:
                pass
            else:
                kind, _, cand, _ = self._select_next(current_dead=True)
                if kind != "end" and next_addr == cand:
                    self._advance(current_dead=True)

    def finalize(self) -> None:
        if any(stream.instrs for stream in self.streams):
            self.ctas.append(self.streams)
        self.streams = []


class OracleTimingModel:
    """Event-at-a-time timing: the builder above plus per-line cache
    grading, scheduled by :func:`oracle_schedule_launch`."""

    def __init__(self):
        self.l2 = Cache(256 << 10, ways=16, name="L2")
        self.l1 = Cache(16 << 10, ways=4, name="L1", next_level=self.l2)
        self.launches: List[OracleLaunchBuilder] = []
        self._builder: Optional[OracleLaunchBuilder] = None
        self._pending: Optional[WarpInstr] = None

    def feed(self, event) -> None:
        if isinstance(event, InstrEvent):
            self._flush(next_addr=event.ins_addr)
            self._pending = WarpInstr(addr=event.ins_addr,
                                      opcode=Opcode(event.opcode),
                                      lanes=event.lanes)
        elif isinstance(event, MemEvent):
            pending = self._pending
            if pending is not None:
                before_l1 = self.l1.stats.misses
                before_l2 = self.l2.stats.misses
                for line in event.line_addresses:
                    access(self.l1, line)
                pending.transactions += len(event.line_addresses)
                pending.l1_misses += self.l1.stats.misses - before_l1
                pending.l2_misses += self.l2.stats.misses - before_l2
        elif isinstance(event, LaunchEvent):
            self.finish()
            self.l1.invalidate()
            self._builder = OracleLaunchBuilder(event)
            self.launches.append(self._builder)
        elif isinstance(event, KernelEndEvent):
            self._flush(next_addr=None)
            if self._builder is not None:
                self._builder.warp_instructions = event.warp_instructions
                self._builder.finalize()
            self._builder = None

    def feed_batch(self, events) -> None:
        for event in events:
            self.feed(event)

    def finish(self) -> None:
        self._flush(next_addr=None)
        if self._builder is not None:
            self._builder.finalize()
            self._builder = None

    def _flush(self, next_addr: Optional[int]) -> None:
        pending, self._pending = self._pending, None
        if pending is not None and self._builder is not None:
            self._builder.add(pending, next_addr)


def oracle_spans(builder: OracleLaunchBuilder
                 ) -> List[Tuple[int, int, int]]:
    """One launch's divergence spans, longest first (the order
    ``LaunchTiming.spans`` uses)."""
    spans = []
    for streams in builder.ctas:
        for stream in streams:
            spans.extend(oracle_divergence_spans(stream))
    spans.sort(key=lambda s: (-s[1], s[0], s[2]))
    return spans


def oracle_divergence_spans(stream: WarpStream
                            ) -> List[Tuple[int, int, int]]:
    spans = []
    start = length = 0
    min_lanes = 0
    for instr in stream.instrs:
        if instr.divergent:
            if length == 0:
                start, min_lanes = instr.addr, instr.lanes
            length += 1
            min_lanes = min(min_lanes, instr.lanes)
        elif length:
            spans.append((start, length, min_lanes))
            length = 0
    if length:
        spans.append((start, length, min_lanes))
    return spans


# --------------------------------------------------------- scheduling

def _memory_latency(instr: WarpInstr) -> int:
    entry = LATENCY_TABLE[instr.opcode]
    if not (OPCODE_CLASSES[instr.opcode] & OpClass.MEMORY):
        return entry.latency
    if instr.l2_misses > 0:
        latency = DRAM_LATENCY
    elif instr.l1_misses > 0:
        latency = L2_HIT_LATENCY
    elif instr.transactions > 0:
        latency = L1_HIT_LATENCY
    else:
        return entry.latency
    return max(latency, entry.latency)


def _occupancy(instr: WarpInstr) -> int:
    occupancy = LATENCY_TABLE[instr.opcode].issue
    if instr.transactions > 1:
        occupancy += TRANSACTION_CYCLES * (instr.transactions - 1)
    return occupancy


class _WarpState:
    def __init__(self, idx: int, stream: WarpStream):
        self.idx = idx
        self.instrs = stream.instrs
        self.pos = 0
        self.resume = 0
        self.parked = False
        self.done = not self.instrs
        #: outstanding scoreboard barriers: (pos, completion, reason,
        #: addr, opcode) in allocation order
        self.barriers: List[Tuple[int, int, str, int, Opcode]] = []
        self.last_addr = 0
        self.last_op = Opcode.NOP
        self.seq = 0

    def ready(self, config: SchedulerConfig
              ) -> Tuple[int, str, int, Opcode]:
        when = self.resume
        reason = REASON_EXEC
        addr, op = self.last_addr, self.last_op
        dep_limit = self.pos - config.dep_distance
        for bpos, completion, kind, baddr, bop in self.barriers:
            if bpos <= dep_limit and completion > when:
                when, reason, addr, op = completion, kind, baddr, bop
        if (LATENCY_TABLE[self.instrs[self.pos].opcode].barrier
                and len(self.barriers) >= config.scoreboard_slots):
            completions = sorted(b[1] for b in self.barriers)
            freed = completions[len(completions) - config.scoreboard_slots]
            oldest = min(self.barriers, key=lambda b: b[1])
            if freed > when:
                when, reason = freed, REASON_SCOREBOARD
                addr, op = oldest[3], oldest[4]
        return when, reason, addr, op

    def issue(self, cycle: int) -> Tuple[WarpInstr, int]:
        instr = self.instrs[self.pos]
        self.barriers = [b for b in self.barriers if b[1] > cycle]
        if LATENCY_TABLE[instr.opcode].barrier:
            kind = (REASON_MEM if OPCODE_CLASSES[instr.opcode]
                    & OpClass.MEMORY else REASON_EXEC)
            self.barriers.append((self.pos, cycle + _memory_latency(instr),
                                  kind, instr.addr, instr.opcode))
        occupancy = _occupancy(instr)
        self.resume = cycle + max(LATENCY_TABLE[instr.opcode].stall,
                                  occupancy)
        self.last_addr, self.last_op = instr.addr, instr.opcode
        self.pos += 1
        if self.pos >= len(self.instrs):
            self.done = True
        elif instr.opcode is Opcode.BAR:
            self.parked = True
        self.seq += 1
        return instr, occupancy


def _pick(candidates: List[_WarpState], last: int,
          policy: str) -> _WarpState:
    if policy == "gto":
        for warp in candidates:
            if warp.idx == last:
                return warp
        return min(candidates, key=lambda w: w.idx)
    by_idx = {w.idx: w for w in candidates}
    idxs = sorted(by_idx)
    return by_idx[idxs[bisect_right(idxs, last) % len(idxs)]]


def _hotspot(acc: LaunchSchedule, addr: int, opcode: Opcode) -> Hotspot:
    spot = acc.hotspots.get(addr)
    if spot is None:
        spot = acc.hotspots[addr] = Hotspot(addr=addr, opcode=opcode)
    return spot


def _account_issue(acc: LaunchSchedule, instr: WarpInstr,
                   occupancy: int) -> None:
    spot = _hotspot(acc, instr.addr, instr.opcode)
    spot.issues += 1
    spot.issue_cycles += occupancy
    acc.issued += 1
    acc.busy_cycles += occupancy
    if instr.divergent:
        acc.divergent_instrs += 1


def _schedule_cta(streams: Sequence[WarpStream], config: SchedulerConfig,
                  acc: LaunchSchedule, cta: int, base_cycle: int) -> int:
    """Ready-heap stepper: ``(when, idx, seq)`` entries; entries whose
    warp issued since the push self-identify by a stale ``seq``."""
    warps = [_WarpState(i, s) for i, s in enumerate(streams)]
    n_warps = len(warps)
    live = sum(1 for w in warps if not w.done)
    heap = [(w.ready(config)[0], w.idx, w.seq) for w in warps if not w.done]
    heapq.heapify(heap)
    greedy = config.policy == "gto"
    port_free = 0
    last = 0
    while live:
        while heap:
            _, idx, seq = heap[0]
            if warps[idx].seq == seq:
                break
            heapq.heappop(heap)
        if not heap:
            # every live warp is parked at the CTA barrier: release
            acc.barrier_releases += 1
            for warp in warps:
                if not warp.done:
                    warp.parked = False
                    heapq.heappush(heap, (warp.ready(config)[0],
                                          warp.idx, warp.seq))
            continue
        warp = warps[last]
        if (greedy and not warp.done and not warp.parked
                and warp.ready(config)[0] <= port_free):
            # greedy reissue of the last warp: no bubble possible
            instr, occupancy = warp.issue(port_free)
            _account_issue(acc, instr, occupancy)
            port_free += occupancy
            if warp.done:
                live -= 1
            elif not warp.parked:
                heapq.heappush(heap, (warp.ready(config)[0],
                                      warp.idx, warp.seq))
            if len(heap) > 4 * n_warps + 16:    # compact stale entries
                heap = [(t, i, s) for t, i, s in heap
                        if warps[i].seq == s]
                heapq.heapify(heap)
            continue
        when, idx, _ = heap[0]
        issue_at = max(when, port_free)
        if when > port_free:
            _, reason, baddr, bop = warps[idx].ready(config)
            cycles = when - port_free
            acc.bubbles.append(Bubble(cta=cta, start=base_cycle + port_free,
                                      cycles=cycles, reason=reason,
                                      addr=baddr, opcode=bop))
            acc.stall_cycles[reason] += cycles
            _hotspot(acc, baddr, bop).stall_cycles += cycles
        candidates = []
        while heap and heap[0][0] <= issue_at:
            when, idx, seq = heapq.heappop(heap)
            if warps[idx].seq == seq:
                candidates.append(warps[idx])
        warp = _pick(candidates, last, config.policy)
        instr, occupancy = warp.issue(issue_at)
        _account_issue(acc, instr, occupancy)
        port_free = issue_at + occupancy
        last = warp.idx
        for other in candidates:
            if other is not warp:
                heapq.heappush(heap, (other.ready(config)[0],
                                      other.idx, other.seq))
        if warp.done:
            live -= 1
        elif not warp.parked:
            heapq.heappush(heap, (warp.ready(config)[0], warp.idx,
                                  warp.seq))
    return port_free


def oracle_schedule_launch(ctas: Sequence[Sequence[WarpStream]],
                           config: Optional[SchedulerConfig] = None
                           ) -> LaunchSchedule:
    config = config or SchedulerConfig()
    acc = LaunchSchedule(policy=config.policy)
    base = 0
    for cta_index, streams in enumerate(ctas):
        base += _schedule_cta(streams, config, acc, cta_index, base)
    acc.cycles = base
    return acc



def warp_streams(launch) -> List[List[WarpStream]]:
    """The object view of a rebuilt :class:`~repro.trace.timing.
    LaunchStreams`: per CTA, one :class:`WarpStream` per warp."""
    cols = launch.streams
    rows = iter(range(len(cols)))
    ctas = []
    for lengths in cols.warp_lengths:
        streams = []
        for warp, length in enumerate(lengths):
            instrs = []
            for _ in range(length):
                k = next(rows)
                instrs.append(WarpInstr(
                    addr=int(cols.addr[k]),
                    opcode=Opcode(int(cols.opcode[k])),
                    lanes=int(cols.lanes[k]),
                    transactions=int(cols.transactions[k]),
                    l1_misses=int(cols.l1_misses[k]),
                    l2_misses=int(cols.l2_misses[k]),
                    divergent=bool(cols.divergent[k])))
            streams.append(WarpStream(warp=warp, instrs=instrs))
        ctas.append(streams)
    return ctas
