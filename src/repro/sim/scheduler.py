"""Cycle-stepped warp scheduler: the stall-accurate timing model.

The flat cycle count (``KernelStats.cycles``) answers *how many* issue
slots a kernel consumed: each warp instruction costs its opcode's
issue-port occupancy, and a global memory instruction pays extra slots
per coalesced transaction beyond the first — the address-divergence
cost the paper's Case Study II quantifies.  :func:`flat_cycles` folds
it from a completed launch's own statistics: its opcode histogram and
global transaction counts.

The scheduler answers *where the time went*.  It replays per-warp
instruction streams — a batch of launches at a time, as the
:class:`StreamColumns` :mod:`repro.trace.timing` rebuilds from a
recorded trace, each launch starting at cycle 0 — through a
single-issue scheduler in the fixed-latency stall-count +
scoreboard-barrier style of SASSI-era hardware models:

* every opcode has an explicit :class:`LatencyEntry` — issue-port
  occupancy (identical to the flat model's cost, so Table 3 ratios are
  unchanged), a stall count before the same warp may issue again, and a
  result latency;
* variable-latency producers (memory, MUFU, atomics) allocate one of
  ``scoreboard_slots`` wait barriers; the warp's instruction
  ``dep_distance`` slots later waits on it (the compiler-scheduled
  consumer-distance approximation), and running out of slots is a
  structural stall;
* memory latency is graded by the coalescer/cache accounting carried on
  each instruction — L1 hit, L2 hit, or DRAM — and extra
  coalesced transactions serialize through the issue port exactly as
  the flat model charges them;
* the issue policy is configurable: ``gto`` (greedy-then-oldest) or
  ``lrr`` (loose round-robin).

Whenever the issue port sits idle because no warp is ready, the gap is
recorded as a bubble classified by the binding constraint of the
earliest-ready warp (``mem_dep``, ``exec_dep``, or ``scoreboard``),
summed into that reason's stall cycles and attributed to the producing
instruction — the raw material for the ``repro trace summary`` hotspot
and idle-gap reports.  The :class:`Bubble` and :class:`Hotspot` objects
those reports print are built from the batch's columns only when first
read.

Everything is integer arithmetic over deterministic orderings, so a
schedule is bit-reproducible across runs and platforms, and
``cycles == busy_cycles + bubble cycles`` holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.opcodes import OpClass, OPCODE_CLASS_BITS, Opcode

#: issue-port cycles per coalesced memory transaction beyond the first
#: (charged by :func:`flat_cycles` and the scheduler alike)
TRANSACTION_CYCLES = 2

#: graded global-memory result latencies (cycles), selected by the
#: cache outcome recorded on the instruction
L1_HIT_LATENCY = 36
L2_HIT_LATENCY = 120
DRAM_LATENCY = 350

#: scheduler-wide defaults
SCOREBOARD_SLOTS = 6
DEP_DISTANCE = 2

#: issue policies understood by :class:`SchedulerConfig`
POLICIES = ("gto", "lrr")

#: bubble / stall classification
REASON_EXEC = "exec_dep"      # fixed-latency producer still in flight
REASON_MEM = "mem_dep"        # scoreboard barrier set by a memory op
REASON_SCOREBOARD = "scoreboard"  # all wait-barrier slots busy
REASONS = (REASON_EXEC, REASON_MEM, REASON_SCOREBOARD)


@dataclass(frozen=True)
class LatencyEntry:
    """Timing of one opcode.

    ``issue``   — issue-port occupancy (the flat model's cost).
    ``stall``   — min cycles before the same warp issues again (the
                  SASS control-word stall count).
    ``latency`` — result latency; only waited on (via a scoreboard
                  barrier) when ``barrier`` is set.
    """

    issue: int
    stall: int
    latency: int
    barrier: bool = False


_MOVE = LatencyEntry(1, 2, 2)
_IALU = LatencyEntry(1, 4, 4)
_ISLOW = LatencyEntry(1, 5, 5)
_FALU = LatencyEntry(1, 5, 5)
_CTRL = LatencyEntry(1, 2, 2)
_NOPL = LatencyEntry(1, 1, 1)
_GMEM = LatencyEntry(1, 2, L1_HIT_LATENCY, barrier=True)

#: Exhaustive per-opcode timing table.  Every :class:`Opcode` member
#: MUST have an entry (``missing_entries`` + a unit test enforce it).
#: The ``issue`` fields are the flat cycle count's per-opcode costs;
#: changing one moves every golden cycle count and Table 3 ratio.
LATENCY_TABLE: Dict[Opcode, LatencyEntry] = {
    # moves / selections / special registers
    Opcode.MOV: _MOVE,
    Opcode.MOV32I: _MOVE,
    Opcode.SEL: _MOVE,
    Opcode.S2R: _MOVE,
    Opcode.P2R: _MOVE,
    Opcode.R2P: _MOVE,
    Opcode.PSETP: _MOVE,
    # integer arithmetic and logic
    Opcode.IADD: _IALU,
    Opcode.IADD32I: _IALU,
    Opcode.IMUL: LatencyEntry(2, 5, 5),
    Opcode.IMAD: LatencyEntry(2, 5, 5),
    Opcode.ISCADD: _IALU,
    Opcode.ISETP: _IALU,
    Opcode.IMNMX: _IALU,
    Opcode.LOP: _IALU,
    Opcode.LOP32I: _IALU,
    Opcode.SHL: _IALU,
    Opcode.SHR: _IALU,
    Opcode.POPC: _ISLOW,
    Opcode.FLO: _ISLOW,
    Opcode.BFE: _IALU,
    Opcode.BFI: _IALU,
    Opcode.IABS: _IALU,
    # floating point
    Opcode.FADD: _FALU,
    Opcode.FMUL: _FALU,
    Opcode.FFMA: _FALU,
    Opcode.FSETP: _FALU,
    Opcode.FMNMX: _FALU,
    Opcode.MUFU: LatencyEntry(4, 4, 18, barrier=True),
    Opcode.F2I: _FALU,
    Opcode.I2F: _FALU,
    Opcode.F2F: _FALU,
    # memory (global latencies are graded by the cache outcome)
    Opcode.LD: _GMEM,
    Opcode.ST: _GMEM,
    Opcode.LDG: _GMEM,
    Opcode.STG: _GMEM,
    Opcode.LDS: LatencyEntry(1, 2, 28, barrier=True),
    Opcode.STS: LatencyEntry(1, 2, 28, barrier=True),
    Opcode.LDL: LatencyEntry(1, 2, L1_HIT_LATENCY, barrier=True),
    Opcode.STL: LatencyEntry(1, 2, L1_HIT_LATENCY, barrier=True),
    Opcode.LDC: LatencyEntry(1, 2, 20, barrier=True),
    Opcode.ATOM: LatencyEntry(5, 2, 330, barrier=True),
    Opcode.ATOMS: LatencyEntry(3, 2, 60, barrier=True),
    Opcode.RED: LatencyEntry(5, 2, 330, barrier=True),
    Opcode.TLD: LatencyEntry(1, 2, 60, barrier=True),
    Opcode.MEMBAR: LatencyEntry(1, 6, 6),
    # control flow
    Opcode.BRA: _CTRL,
    Opcode.JCAL: _CTRL,
    Opcode.CAL: _CTRL,
    Opcode.RET: _CTRL,
    Opcode.EXIT: _NOPL,
    Opcode.SSY: _NOPL,
    Opcode.SYNC: _CTRL,
    Opcode.BAR: LatencyEntry(3, 1, 1),
    Opcode.BPT: _NOPL,
    Opcode.NOP: _NOPL,
    Opcode.PBK: _NOPL,
    Opcode.BRK: _CTRL,
    # warp-wide
    Opcode.VOTE: _IALU,
    Opcode.SHFL: _IALU,
}


def flat_cycles(stats) -> int:
    """The flat cycle count of a completed launch, folded from its
    :class:`~repro.sim.executor.KernelStats`: every warp instruction
    occupies the issue port for its opcode's ``issue`` cycles, and every
    counted global access (each has at least one transaction) pays
    ``TRANSACTION_CYCLES`` per coalesced transaction beyond its first."""
    table = LATENCY_TABLE
    return (sum(table[opcode].issue * count
                for opcode, count in stats.opcode_counts.items())
            + TRANSACTION_CYCLES * (stats.global_transactions
                                    - stats.global_mem_instructions))


def missing_entries(table: Optional[Dict[Opcode, LatencyEntry]] = None
                    ) -> List[Opcode]:
    """Opcodes lacking a timing entry (must be empty; tested)."""
    if table is None:
        table = LATENCY_TABLE
    return [op for op in Opcode if op not in table]


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the cycle-stepped scheduler."""

    policy: str = "gto"
    scoreboard_slots: int = SCOREBOARD_SLOTS
    dep_distance: int = DEP_DISTANCE

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown issue policy {self.policy!r} "
                             f"(choose from {', '.join(POLICIES)})")


@dataclass(slots=True)
class Bubble:
    """An idle-gap region: the issue port had nothing to do."""

    cta: int
    start: int        # launch-relative cycle the port went idle
    cycles: int
    reason: str       # one of REASONS
    addr: int         # producing instruction the gap waited on
    opcode: Opcode


@dataclass(slots=True)
class Hotspot:
    """Per-static-instruction issue and blame accounting."""

    addr: int
    opcode: Opcode
    issues: int = 0
    issue_cycles: int = 0
    stall_cycles: int = 0

    @property
    def cost(self) -> int:
        return self.issue_cycles + self.stall_cycles


@dataclass
class LaunchSchedule:
    """The scheduled timing of one kernel launch (CTAs sequential).

    ``stall_cycles`` is summed while scheduling.  A schedule from
    :func:`schedule_columns` builds its ``bubbles`` and ``hotspots``
    from the batch's columns on first read; a default-constructed one
    starts with an empty list and table that the caller fills.
    """

    policy: str
    cycles: int = 0
    busy_cycles: int = 0
    issued: int = 0
    barrier_releases: int = 0
    divergent_instrs: int = 0
    stall_cycles: Dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in REASONS})
    _bubbles: List[Bubble] = field(default_factory=list, init=False,
                                   repr=False, compare=False)
    _hotspots: Dict[int, Hotspot] = field(default_factory=dict, init=False,
                                          repr=False, compare=False)
    #: (the batch's report rows, this launch's index in the batch),
    #: until ``bubbles``/``hotspots`` is read
    _rows: Optional[Tuple["_ReportRows", int]] = field(
        default=None, init=False, repr=False, compare=False)

    def _build(self) -> None:
        if self._rows is not None:
            rows, index = self._rows
            self._bubbles, self._hotspots = rows.launch(index)
            self._rows = None

    @property
    def bubbles(self) -> List[Bubble]:
        self._build()
        return self._bubbles

    @property
    def hotspots(self) -> Dict[int, Hotspot]:
        self._build()
        return self._hotspots

    @property
    def bubble_cycles(self) -> int:
        return self.cycles - self.busy_cycles

    def top_bubbles(self, n: int = 5) -> List[Bubble]:
        rows = sorted(self.bubbles,
                      key=lambda b: (-b.cycles, b.cta, b.start))
        return rows[:n]


#: opcode value -> Opcode member (bubble blame and hotspot rows)
_OPCODE_BY_VALUE = {op.value: op for op in Opcode}

#: per-opcode timing columns indexed by opcode *value* — one gather
#: replaces a LATENCY_TABLE dict probe per instruction
_op_columns: Optional[Tuple[np.ndarray, ...]] = None


def _opcode_columns() -> Tuple[np.ndarray, ...]:
    global _op_columns
    if _op_columns is None:
        n = max(op.value for op in Opcode) + 1
        issue = np.zeros(n, dtype=np.int64)
        stall = np.zeros(n, dtype=np.int64)
        latency = np.zeros(n, dtype=np.int64)
        barrier = np.zeros(n, dtype=bool)
        for op, entry in LATENCY_TABLE.items():
            issue[op.value] = entry.issue
            stall[op.value] = entry.stall
            latency[op.value] = entry.latency
            barrier[op.value] = entry.barrier
        ismem = (OPCODE_CLASS_BITS & OpClass.MEMORY.value) != 0
        _op_columns = (issue, stall, latency, barrier, ismem)
    return _op_columns


def int_column(values: Sequence[int]) -> np.ndarray:
    """*values* as an int64 column, or an object column when one of
    them (a u64 address past 2**63, say) does not fit int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass
class StreamColumns:
    """A batch of launches' warp streams as parallel per-instruction
    columns.

    Rows are in *stream order*: launch-major, then CTA, then warp index,
    then each warp's instructions in program order.
    ``launch_ctas[i]`` is launch *i*'s CTA count (0 for a launch that
    ran nothing), and ``warp_lengths`` lists every CTA of the batch in
    order: ``warp_lengths[c][w]`` is the row count of CTA ``c``'s warp
    ``w`` (0 for a warp that ran nothing).
    ``transactions``/``l1_misses``/``l2_misses`` carry the coalescer and
    cache outcome of the instruction's recorded memory access;
    ``divergent`` marks rows executed with fewer active lanes than the
    warp's reconverged width.
    """

    addr: np.ndarray
    opcode: np.ndarray           # Opcode values
    lanes: np.ndarray
    transactions: np.ndarray
    l1_misses: np.ndarray
    l2_misses: np.ndarray
    divergent: np.ndarray        # bool
    warp_lengths: List[List[int]]
    launch_ctas: List[int]

    def __len__(self) -> int:
        return len(self.addr)


def _timing_columns(cols: StreamColumns) -> Tuple[np.ndarray, ...]:
    """Per-row ``(occupancy, resume_delta, completion_latency,
    sets_barrier, is_memory)``: issue-port occupancy with the
    transaction surcharge, the ``max(stall, occupancy)`` distance to the
    warp's next issue, and the result latency graded by the recorded
    cache outcome (L1 hit, L2 hit, or DRAM) for memory opcodes."""
    op_issue, op_stall, op_lat, op_barrier, op_ismem = _opcode_columns()
    ops = cols.opcode
    tx = cols.transactions
    occupancy = op_issue[ops] + np.where(
        tx > 1, TRANSACTION_CYCLES * (tx - 1), 0)
    resume_delta = np.maximum(op_stall[ops], occupancy)
    base = op_lat[ops]
    graded = np.where(cols.l2_misses > 0, DRAM_LATENCY,
                      np.where(cols.l1_misses > 0, L2_HIT_LATENCY,
                               np.where(tx > 0, L1_HIT_LATENCY, base)))
    ismem = op_ismem[ops]
    latency = np.where(ismem, np.maximum(graded, base), base)
    return occupancy, resume_delta, latency, op_barrier[ops], ismem


#: the ready cycle of a warp that cannot issue (parked or done)
_NEVER = 1 << 62


def _bounded_sums(values: np.ndarray, bounds: List[int]) -> List[int]:
    """Sums of *values* between consecutive *bounds*."""
    sums = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return np.diff(sums[bounds]).tolist()


def schedule_columns(cols: StreamColumns,
                     config: Optional[SchedulerConfig] = None
                     ) -> List[LaunchSchedule]:
    """Schedule a batch of launches, one :class:`LaunchSchedule` per
    launch: each launch starts at cycle 0, its CTAs run back to back
    (the executor is sequential across CTAs), and warps within a CTA
    compete for the single issue port under ``config.policy``.

    What does not depend on issue order — the per-row timing columns,
    each launch's ``issued``, ``busy_cycles`` and ``divergent_instrs``
    — is computed over the whole batch at once.  The per-CTA loop keeps
    only ordered state in flat per-warp lists and scans the CTA's warps
    for the next issue: the earliest ready warp (lowest index on ties)
    sets the issue cycle and, if the port must idle first, takes the
    bubble's blame; GTO then reissues the last warp if it is ready by
    that cycle, else the lowest ready index, and LRR takes the next
    ready index after the last warp, wrapping.  When no live warp can
    issue, all are parked at the CTA barrier, which releases.  A bubble
    is kept as a row and summed into its reason's ``stall_cycles``;
    :class:`Bubble` and :class:`Hotspot` objects wait for a reader.
    """
    config = config or SchedulerConfig()
    occupancy, resume_delta, latency, sets_barrier, ismem = \
        _timing_columns(cols)
    occ = occupancy.tolist()
    rdelta = resume_delta.tolist()
    lat = latency.tolist()
    barrier = sets_barrier.tolist()
    kind = [REASON_MEM if m else REASON_EXEC for m in ismem.tolist()]
    parks = (cols.opcode == Opcode.BAR.value).tolist()
    slots = config.scoreboard_slots
    dep = config.dep_distance
    greedy = config.policy == "gto"
    #: (cta, start, cycles, reason, blamed row), launch-major
    bubbles: List[Tuple[int, int, int, str, int]] = []
    schedules: List[LaunchSchedule] = []
    row_bounds = [0]
    bubble_bounds = [0]
    warp_lengths = iter(cols.warp_lengths)
    row = 0
    for nctas in cols.launch_ctas:
        stalls = {reason: 0 for reason in REASONS}
        releases = 0
        base_cycle = 0
        for cta in range(nctas):
            lengths = next(warp_lengths)
            nw = len(lengths)
            pos = []
            end = []
            for length in lengths:
                pos.append(row)
                row += length
                end.append(row)
            # earliest issue cycle of each warp's next row; _NEVER while
            # the warp is parked at the CTA barrier or done
            ready = [0 if p < e else _NEVER for p, e in zip(pos, end)]
            live = nw - ready.count(_NEVER)
            parked: List[Tuple[int, int]] = []     # (warp, ready cycle)
            resume = [0] * nw
            #: outstanding scoreboard barriers per warp, allocation
            #: order: (row, completion, reason)
            bars: List[List[Tuple[int, int, str]]] = [[] for _ in range(nw)]
            port = 0
            last = 0
            while live:
                w = last
                if greedy and ready[w] <= port:
                    cycle = port
                else:
                    best_when = min(ready)
                    if best_when == _NEVER:
                        # every live warp is parked at the CTA barrier
                        releases += 1
                        for v, when in parked:
                            ready[v] = when
                        parked = []
                        continue
                    best = ready.index(best_when)
                    if best_when > port:
                        cycle = best_when
                        # blame the binding constraint of the earliest
                        # warp (a warp that has not issued yet is ready
                        # at cycle 0, so it has a last-issued row to
                        # blame)
                        reason, blamed = REASON_EXEC, pos[best] - 1
                        when = resume[best]
                        held = bars[best]
                        limit = pos[best] - dep
                        for b in held:
                            if b[0] <= limit and b[1] > when:
                                when, reason, blamed = b[1], b[2], b[0]
                        if barrier[pos[best]] and len(held) >= slots:
                            oldest = min(held, key=lambda b: b[1])
                            if oldest[1] > when:
                                reason, blamed = REASON_SCOREBOARD, oldest[0]
                        bubbles.append((cta, base_cycle + port, cycle - port,
                                        reason, blamed))
                        stalls[reason] += cycle - port
                        if greedy:
                            w = last if ready[last] == cycle else best
                    else:
                        cycle = port
                        if greedy:
                            w = 0
                            while ready[w] > cycle:
                                w += 1
                    if not greedy:
                        for w in range(last + 1, nw):
                            if ready[w] <= cycle:
                                break
                        else:
                            w = 0
                            while ready[w] > cycle:
                                w += 1
                    last = w
                # issue warp w's next row at `cycle`
                j = pos[w]
                held = bars[w]
                if held:
                    held = bars[w] = [b for b in held if b[1] > cycle]
                if barrier[j]:
                    held.append((j, cycle + lat[j], kind[j]))
                when = resume[w] = cycle + rdelta[j]
                port = cycle + occ[j]
                j += 1
                pos[w] = j
                if j == end[w]:
                    ready[w] = _NEVER
                    live -= 1
                    continue
                if held:
                    limit = j - dep
                    for b in held:
                        if b[0] <= limit and b[1] > when:
                            when = b[1]
                    # expire-before-allocate keeps at most `slots`
                    # barriers outstanding, so the slot frees at the
                    # oldest completion
                    if barrier[j] and len(held) >= slots:
                        freed = min(b[1] for b in held)
                        if freed > when:
                            when = freed
                if parks[j - 1]:
                    parked.append((w, when))
                    ready[w] = _NEVER
                else:
                    ready[w] = when
            base_cycle += port
        schedules.append(LaunchSchedule(
            policy=config.policy, cycles=base_cycle,
            barrier_releases=releases, stall_cycles=stalls))
        row_bounds.append(row)
        bubble_bounds.append(len(bubbles))
    rows = _ReportRows(cols, occupancy, bubbles, row_bounds, bubble_bounds)
    for index, (acc, lo, hi, busy, divergent) in enumerate(zip(
            schedules, row_bounds, row_bounds[1:],
            _bounded_sums(occupancy, row_bounds),
            _bounded_sums(cols.divergent, row_bounds))):
        acc.issued = hi - lo
        acc.busy_cycles = busy
        acc.divergent_instrs = divergent
        acc._rows = (rows, index)
    return schedules


class _ReportRows:
    """What one scheduled batch's :class:`Bubble` and :class:`Hotspot`
    objects are built from, for every launch at once, the first time one
    of its schedules is asked for them."""

    def __init__(self, cols: StreamColumns, occupancy: np.ndarray,
                 bubbles: List[Tuple[int, int, int, str, int]],
                 row_bounds: List[int], bubble_bounds: List[int]):
        self.cols = cols
        self.occupancy = occupancy
        self.bubbles = bubbles
        self.row_bounds = row_bounds
        self.bubble_bounds = bubble_bounds
        self._built: Optional[List[Tuple[List[Bubble],
                                         Dict[int, Hotspot]]]] = None

    def launch(self, index: int
               ) -> Tuple[List[Bubble], Dict[int, Hotspot]]:
        """Launch *index*'s bubble records and hotspot table."""
        if self._built is None:
            self._built = _account_hotspots(
                self.cols, self.occupancy, self.bubbles, self.row_bounds,
                self.bubble_bounds)
        return self._built[index]


def _account_hotspots(cols: StreamColumns, occupancy: np.ndarray,
                      bubbles: List[Tuple[int, int, int, str, int]],
                      row_bounds: List[int], bubble_bounds: List[int]
                      ) -> List[Tuple[List[Bubble], Dict[int, Hotspot]]]:
    """Per-(launch, address) issue counts and cycles (one grouped sum
    over the batch's columns), then each launch's bubble records with
    their stall blame; one ``(bubbles, hotspots)`` pair per launch."""
    launches = len(row_bounds) - 1
    tables: List[Dict[int, Hotspot]] = [{} for _ in range(launches)]
    records: List[List[Bubble]] = [[] for _ in range(launches)]
    addr = cols.addr
    n = len(addr)
    if n:
        row_launch = np.repeat(np.arange(launches), np.diff(row_bounds))
        order = np.argsort(addr, kind="stable")
        order = order[np.argsort(row_launch[order], kind="stable")]
        ranked = addr[order]
        ranked_launch = row_launch[order]
        firsts = np.flatnonzero(np.concatenate(
            ([True], (ranked[1:] != ranked[:-1])
             | (ranked_launch[1:] != ranked_launch[:-1]))))
        issues = np.diff(np.append(firsts, n)).tolist()
        cycles = np.add.reduceat(occupancy[order], firsts).tolist()
        rows = order[firsts]
        for launch, key, op, count, busy in zip(
                row_launch[rows].tolist(), addr[rows].tolist(),
                cols.opcode[rows].tolist(), issues, cycles):
            tables[launch][key] = Hotspot(key, _OPCODE_BY_VALUE[op], count,
                                          busy)
    if bubbles:
        blamed = np.array([bubble[4] for bubble in bubbles], dtype=np.int64)
        keys = addr[blamed].tolist()
        opcodes = cols.opcode[blamed].tolist()
        for out, hotspots, lo, hi in zip(records, tables, bubble_bounds,
                                         bubble_bounds[1:]):
            for (cta, start, length, reason, _), key, op in zip(
                    bubbles[lo:hi], keys[lo:hi], opcodes[lo:hi]):
                out.append(Bubble(cta, start, length, reason, key,
                                  _OPCODE_BY_VALUE[op]))
                hotspots[key].stall_cycles += length
    return list(zip(records, tables))


def column_spans(cols: StreamColumns) -> List[Tuple[int, int, int]]:
    """Maximal runs of divergence-serialized rows within each warp
    stream, as ``(start_addr, length, min_lanes)`` in stream order."""
    div = cols.divergent
    n = len(div)
    if n == 0 or not div.any():
        return []
    stream_start = np.zeros(n + 1, dtype=bool)
    stream_start[np.cumsum([0] + [length for lengths in cols.warp_lengths
                                  for length in lengths])] = True
    follows = np.zeros(n, dtype=bool)
    follows[1:] = div[:-1]
    follows &= ~stream_start[:n]
    leads = np.zeros(n, dtype=bool)
    leads[:-1] = div[1:]
    leads &= ~stream_start[1:]
    begins = np.flatnonzero(div & ~follows)
    ends = np.flatnonzero(div & ~leads) + 1
    bounds = np.empty(2 * len(begins), dtype=np.int64)
    bounds[0::2] = begins
    bounds[1::2] = ends
    lanes = np.append(cols.lanes, cols.lanes[:1])
    min_lanes = np.minimum.reduceat(lanes, bounds)[0::2]
    return list(zip(cols.addr[begins].tolist(), (ends - begins).tolist(),
                    min_lanes.tolist()))
