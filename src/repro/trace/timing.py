"""Trace-driven timing: warp-stream reconstruction + scheduled replay.

The ``timing`` analysis rebuilds per-warp instruction streams from a
recorded event stream and runs them through the cycle-stepped scheduler
in :mod:`repro.sim.scheduler`, entirely off the functional fast path:
the executor's inline accounting stays the flat model, and the
stall-accurate numbers come from replaying a trace (or from tee-ing a
live capture through :class:`TimingSink`, which by construction gives
bit-identical results — both paths hand each closed launch to the same
:meth:`TimingModel.feed_frame`).

**Launch-batch rebuild and schedule.**  Closed launches wait in a batch
of record columns (decoded :class:`FrameColumns` frames, or the columns
an event feed buffered).  :func:`rebuild_launches` rebuilds a batch in
one pass once it holds :data:`BATCH_RECORDS` records, and at
``schedule``/``finish``: every memory record belongs to the instruction
before it, the batch's lines are graded by one
:meth:`Cache.access_lines` call that flushes the caches at every launch
cut (each launch starts cold), per-instruction transactions and L1/L2
misses are bincounts over the owning instruction, and warp segmentation
and divergence flags run over the concatenated columns with per-launch
state restarting at each cut.  The batch becomes one launch-major
:class:`~repro.sim.scheduler.StreamColumns`, and each launch's
:class:`LaunchStreams` holds views into it.  A batch is scheduled by one
:func:`~repro.sim.scheduler.schedule_columns` call, one
:class:`~repro.sim.scheduler.LaunchSchedule` per launch.

**Report objects on first read.**  ``result()`` and ``report()`` read
scalars only — cycles, busy cycles, per-reason stall sums — which the
scheduler computes exactly.  A launch's ``Bubble`` records, ``Hotspot``
table and divergence ``spans`` are built from the columns the first
time something (``render_summary``, a test) reads them.

**Warp segmentation.**  Trace events carry no warp IDs (the format is
unchanged), so streams are rebuilt from the executor's deterministic
scheduling contract: CTAs run sequentially; within a CTA, warps run in
index order, each to its next barrier or exit; when every live warp is
parked the barrier releases and the pass restarts at the lowest live
index.  Under that contract each event extends the *current* warp, and
only three opcodes can hand off, so :func:`segment_warps` runs Python
code only at those and everything in between is one slice of the
current warp:

* ``BAR`` always parks (the executor parks unconditionally) and will
  resume at the next instruction;
* ``EXIT``/``RET`` are terminal only when the *next* instruction does
  not continue this warp — the lookahead address decides: ``addr + 8``
  means surviving lanes fell through; the computed start address of
  the next schedulable warp means this warp retired; anything else is
  a divergence-stack unwind within the same warp.

The two candidate addresses cannot collide (the entry address precedes
any exit fall-through, and a barrier-resume address equal to the exit
fall-through would need a BAR and an EXIT at the same address), so the
reconstruction is exact for programs the executor can produce.

**Divergence spans.**  An instruction is divergence-serialized when it
executes with fewer active lanes than the warp's reconverged width: a
running maximum of active lanes over the warp's stream, starting at the
warp's thread count and rebased after every ``EXIT``/``RET`` (survivors
re-base the width, which self-heals upward at reconvergence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.opcodes import Opcode
from repro.isa.program import INSTRUCTION_BYTES
from repro.sim.cache import Cache
from repro.sim.scheduler import (
    LaunchSchedule,
    SchedulerConfig,
    StreamColumns,
    column_spans,
    schedule_columns,
)
from repro.sim.warp import WARP_SIZE
from repro.trace.format import (
    TAG_INSTR,
    TAG_KEND,
    TAG_MEM,
    KernelEndEvent,
    LaunchEvent,
)
from repro.trace.io import FrameBuilder, FrameColumns
from repro.trace.replay import ANALYSES, BATCH_RECORDS, TraceAnalysis

_BAR = Opcode.BAR.value


def _opcode_mask(*opcodes: Opcode) -> np.ndarray:
    """Opcode value -> membership in *opcodes*."""
    mask = np.zeros(max(op.value for op in Opcode) + 1, dtype=bool)
    mask[[op.value for op in opcodes]] = True
    return mask


#: the only opcodes at which a warp can hand off the issue slot
_HANDOFF = _opcode_mask(Opcode.BAR, Opcode.EXIT, Opcode.RET)
#: the opcodes after which the surviving lanes re-base the warp width
_EXITS = _opcode_mask(Opcode.EXIT, Opcode.RET)


def _launch_shape(launch: LaunchEvent) -> Tuple[int, int, int]:
    """``(threads per CTA, warps per CTA, CTAs)`` of *launch*."""
    bx, by, bz = launch.block
    gx, gy, gz = launch.grid
    threads = max(1, bx * by * bz)
    return threads, -(-threads // WARP_SIZE), max(1, gx * gy * gz)


def segment_warps(launch: LaunchEvent, addr: Sequence[int],
                  opcodes: np.ndarray, cuts: Collection[int] = ()
                  ) -> Tuple[np.ndarray, int]:
    """Assign each of one launch's instructions (in record order) to a
    warp; returns ``(ordinals, desyncs)``: :func:`segment_batch` over a
    batch of one launch, whose ordinals are
    ``cta * warps_per_cta + warp``."""
    ordinals, _, desyncs = segment_batch([_launch_shape(launch)],
                                         [len(addr)], addr, opcodes, cuts)
    return ordinals, desyncs[0]


def segment_batch(shapes: Sequence[Tuple[int, int, int]],
                  ends: Sequence[int], addr: Sequence[int],
                  opcodes: np.ndarray, cuts: Collection[int] = ()
                  ) -> Tuple[np.ndarray, List[int], List[int]]:
    """Assign each instruction of a batch of launches (in record order)
    to a warp; returns ``(ordinals, ctas, desyncs)``.

    Launch *i* has the :func:`_launch_shape` ``shapes[i]`` and its rows
    end at ``ends[i]``; the segmentation state restarts at every launch.
    ``ordinals[k]`` is row *k*'s batch-wide warp ordinal: launch *i*'s
    rows get ``base + cta * warps_per_cta + warp``, where *base* counts
    the warps of the launches before it, so ordinals are launch-major.
    ``ctas[i]`` is the number of CTAs launch *i*'s rows reach.
    ``desyncs[i]`` counts launch *i*'s instructions that arrived after
    every warp of its last CTA retired — a trace the scheduling contract
    cannot explain; they stay with the last warp.  An ``EXIT``/``RET``
    at a row in *cuts* (or at the end of its launch) sees no next
    instruction, as if the launch's record stream ended there.
    """
    n = len(addr)
    ops = np.asarray(opcodes)
    known = (ops >= 0) & (ops < len(_HANDOFF))
    handoffs = np.flatnonzero(
        _HANDOFF[np.where(known, ops, 0).astype(np.int64)] & known)
    positions = handoffs.tolist()
    handoff_ops = ops[handoffs].tolist()
    splits = np.searchsorted(handoffs, ends).tolist()

    def select_next(skip: int):
        """What runs after warp *cur* hands off, ignoring warp *skip*:
        ``(kind, warp, start_addr, release)``."""
        for i in range(cur + 1, nwarps):
            if i != skip and alive[i] and not parked[i]:
                return "warp", i, resume[i] if started[i] else entry, False
        for i in range(nwarps):
            if i != skip and alive[i]:
                # end of pass; every survivor is parked at the barrier
                return "warp", i, resume[i], True
        if cta + 1 < nctas:
            return "cta", 0, entry, False
        return "end", 0, None, False

    run_starts: List[int] = []
    run_ordinals: List[int] = []
    ctas: List[int] = []
    desyncs: List[int] = []
    lo = first = base = 0
    for (_, nwarps, nctas), hi, last in zip(shapes, ends, splits):
        if lo == hi:
            ctas.append(0)
            desyncs.append(0)
            first = last
            continue
        entry = addr[lo]
        alive = [True] * nwarps
        parked = [False] * nwarps
        started = [True] + [False] * (nwarps - 1)
        resume = [0] * nwarps
        cur = cta = 0
        run_starts.append(lo)
        run_ordinals.append(base)
        desync = 0
        for k, op in zip(positions[first:last], handoff_ops[first:last]):
            here = addr[k]
            if op == _BAR:
                parked[cur] = True
                resume[cur] = here + INSTRUCTION_BYTES
            else:
                ahead = addr[k + 1] if k + 1 < hi and k not in cuts \
                    else None
                if ahead is not None:
                    if ahead == here + INSTRUCTION_BYTES:
                        continue         # surviving lanes fell through
                    kind, _, start, _ = select_next(skip=cur)
                    if kind == "end" or ahead != start:
                        continue         # divergence-stack unwind
                alive[cur] = False
            kind, index, _, release = select_next(skip=-1)
            if kind == "end":
                desync = hi - k - 1
                break
            if kind == "cta":
                cta += 1
                alive = [True] * nwarps
                parked = [False] * nwarps
                started = [True] + [False] * (nwarps - 1)
                resume = [0] * nwarps
                cur = 0
            else:
                if release:
                    parked = [False] * nwarps
                cur = index
                started[index] = True
            run_starts.append(k + 1)
            run_ordinals.append(base + cta * nwarps + cur)
        # a handoff at the launch's last row opens an empty run
        tail = run_ordinals[-1] if run_starts[-1] < hi else run_ordinals[-2]
        count = (tail - base) // nwarps + 1
        ctas.append(count)
        desyncs.append(desync)
        base += count * nwarps
        lo, first = hi, last
    run_starts.append(n)
    ordinals = np.repeat(np.array(run_ordinals, dtype=np.int64),
                         np.diff(run_starts))
    return ordinals, ctas, desyncs


def _divergent_flags(lanes: np.ndarray, ordinals: np.ndarray,
                     opcodes: np.ndarray, widths: np.ndarray
                     ) -> np.ndarray:
    """Stream-ordered divergence flags: ``0 < lanes < width`` where the
    width is the running maximum of the warp's lanes, starting at the
    warp's thread count (*widths*, per row) and restarting at
    ``max(lanes, 1)`` after every ``EXIT``/``RET``."""
    n = len(lanes)
    if n == 0:
        return np.zeros(0, dtype=bool)
    new_stream = np.ones(n, dtype=bool)
    new_stream[1:] = ordinals[1:] != ordinals[:-1]
    exits = _EXITS[opcodes]
    rebase = np.zeros(n, dtype=bool)
    rebase[1:] = exits[:-1] & ~new_stream[1:]
    floor = np.where(new_stream, widths, 1)
    starts = new_stream | rebase
    combined = np.concatenate((lanes, np.where(starts, np.maximum(lanes,
                                                                  floor),
                                               lanes)))
    if combined.dtype == object or combined.min() < 0 \
            or int(combined.max()) >= 1 << 31:
        # order-preserving ranks keep the comparisons exact and small
        _, combined = np.unique(combined, return_inverse=True)
        combined = combined.reshape(-1)
    # segmented running maximum: offset each segment above the last
    offset = (np.cumsum(starts) - 1) * (int(combined.max()) + 1)
    width = np.maximum.accumulate(combined[n:] + offset) - offset
    return (lanes > 0) & (combined[:n] < width)


@dataclass
class LaunchStreams:
    """One launch rebuilt for scheduling: its warp streams as columns
    (views into its batch's) plus the segmentation's bookkeeping."""

    kernel: str
    launch_index: int
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    warps_per_cta: int
    streams: StreamColumns
    #: instructions the scheduling contract could not place
    desyncs: int = 0
    #: from the KernelEndEvent (0 when the launch never ended)
    warp_instructions: int = 0

    @property
    def instr_count(self) -> int:
        return len(self.streams)


def _prefix_counts(mask: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``mask``'s true count before each of *bounds*."""
    return np.concatenate(([0], np.cumsum(mask)))[bounds]


def rebuild_launches(frames: Sequence[FrameColumns], l1: Cache
                     ) -> Tuple[StreamColumns, List[LaunchStreams]]:
    """Rebuild a batch of launch frames in one pass; returns the batch's
    columns and one :class:`LaunchStreams` per launch, whose columns are
    views into the batch's.

    A launch's records run up to (not including) its first kernel-end
    record, and every opcode names an :class:`Opcode`.  Each launch's
    lines are graded against caches that start cold (*l1* and the
    levels below it are invalidated first).
    """
    shapes = [_launch_shape(frame.launch) for frame in frames]
    tags = np.concatenate([frame.record_tags for frame in frames])
    record_bounds = np.cumsum([0] + [frame.record_tags.size
                                     for frame in frames])
    # a launch keeps the records ahead of its first kernel-end record
    ended = np.concatenate(([0], np.cumsum(tags == TAG_KEND)))
    kept = ended[:-1] == np.repeat(ended[record_bounds[:-1]],
                                   np.diff(record_bounds))
    is_instr = (tags == TAG_INSTR) & kept
    is_mem = (tags == TAG_MEM) & kept
    instr_bounds = _prefix_counts(is_instr, record_bounds)
    mem_bounds = _prefix_counts(is_mem, record_bounds)
    rows = np.diff(instr_bounds).tolist()
    mems = np.diff(mem_bounds).tolist()
    addr = np.concatenate([f.instr_addr[:k] for f, k in zip(frames, rows)])
    opcodes = np.concatenate([f.instr_opcodes[:k]
                              for f, k in zip(frames, rows)])
    lanes = np.concatenate([f.instr_lanes[:k] for f, k in zip(frames, rows)])
    nlines = np.concatenate([f.mem_nlines[:k] for f, k in zip(frames, mems)])
    n = len(addr)

    # memory records belong to the instruction before them; records
    # ahead of their launch's first instruction have none and are not
    # graded (they lead the launch's memory records)
    owner = np.cumsum(is_instr)[is_mem] - 1
    orphan = owner < np.repeat(instr_bounds[:-1], mems)
    line_bounds = np.concatenate(([0], np.cumsum(nlines)))
    firsts = line_bounds[mem_bounds[:-1] + np.diff(
        _prefix_counts(orphan, mem_bounds))] - line_bounds[mem_bounds[:-1]]
    lasts = line_bounds[mem_bounds[1:]] - line_bounds[mem_bounds[:-1]]
    graded_lines = [f.mem_lines[first:last] for f, first, last
                    in zip(frames, firsts.tolist(), lasts.tolist())]
    grades: List[int] = []
    l1.access_lines(np.concatenate(graded_lines), grades,
                    flushes=np.cumsum([0] + [lines.size for lines
                                             in graded_lines[:-1]]).tolist())
    graded = np.array(grades, dtype=np.int8)
    line_owner = np.repeat(owner[~orphan], nlines[~orphan])
    transactions = np.bincount(line_owner, minlength=n)
    l1_misses = np.bincount(line_owner[graded > 0], minlength=n)
    l2_misses = np.bincount(line_owner[graded == 2], minlength=n)

    ordinals, ctas, desyncs = segment_batch(
        shapes, instr_bounds[1:].tolist(), addr.tolist(), opcodes)
    order = np.argsort(ordinals, kind="stable")
    ordinals = ordinals[order]
    opcodes = opcodes[order]
    lanes = lanes[order]
    threads = [shape[0] for shape in shapes]
    nwarps = [shape[1] for shape in shapes]
    warps = [count * nw for count, nw in zip(ctas, nwarps)]
    bases = np.cumsum([0] + warps)
    # each row's warp index within its CTA, and that warp's thread count
    warp = (ordinals - np.repeat(bases[:-1], rows)) % np.repeat(nwarps, rows)
    widths = np.minimum(WARP_SIZE, np.repeat(threads, rows) - warp * WARP_SIZE)
    counts = np.bincount(ordinals, minlength=int(bases[-1])).tolist()
    warp_lengths = [counts[at:at + nw] for base, count, nw
                    in zip(bases.tolist(), ctas, nwarps)
                    for at in range(base, base + count * nw, nw)]
    batch = StreamColumns(
        addr=addr[order], opcode=opcodes, lanes=lanes,
        transactions=transactions[order], l1_misses=l1_misses[order],
        l2_misses=l2_misses[order],
        divergent=_divergent_flags(lanes, ordinals, opcodes, widths),
        warp_lengths=warp_lengths, launch_ctas=ctas)

    launches = []
    lo = cta = 0
    for frame, k, count, nw, desync in zip(frames, rows, ctas, nwarps,
                                           desyncs):
        hi = lo + k
        streams = StreamColumns(
            addr=batch.addr[lo:hi], opcode=batch.opcode[lo:hi],
            lanes=batch.lanes[lo:hi],
            transactions=batch.transactions[lo:hi],
            l1_misses=batch.l1_misses[lo:hi],
            l2_misses=batch.l2_misses[lo:hi],
            divergent=batch.divergent[lo:hi],
            warp_lengths=warp_lengths[cta:cta + count], launch_ctas=[count])
        launch = frame.launch
        launches.append(LaunchStreams(
            kernel=launch.kernel, launch_index=launch.launch_index,
            grid=launch.grid, block=launch.block, warps_per_cta=nw,
            streams=streams, desyncs=desync,
            warp_instructions=(int(frame.kend_counts[0])
                               if frame.kend_counts.size else 0)))
        lo, cta = hi, cta + count
    return batch, launches


class LaunchTiming:
    """One launch's scheduled timing plus its divergence geometry.

    ``spans`` — ``(start_addr, length, min_lanes)``, longest first — is
    built from the launch's *streams* on first read unless given.
    """

    def __init__(self, kernel: str, launch_index: int,
                 grid: Tuple[int, int, int], block: Tuple[int, int, int],
                 ctas: int, warps: int, instructions: int,
                 schedule: LaunchSchedule,
                 spans: Optional[List[Tuple[int, int, int]]] = None,
                 streams: Optional[StreamColumns] = None):
        self.kernel = kernel
        self.launch_index = launch_index
        self.grid = grid
        self.block = block
        self.ctas = ctas
        self.warps = warps
        self.instructions = instructions
        self.schedule = schedule
        self._spans = spans
        self._streams = streams

    @property
    def spans(self) -> List[Tuple[int, int, int]]:
        if self._spans is None:
            spans = column_spans(self._streams)
            spans.sort(key=lambda s: (-s[1], s[0], s[2]))
            self._spans, self._streams = spans, None
        return self._spans

    @property
    def cycles(self) -> int:
        return self.schedule.cycles

    @property
    def bubble_pct(self) -> float:
        cycles = self.schedule.cycles
        return 100.0 * self.schedule.bubble_cycles / cycles if cycles else 0.0


@dataclass
class TimingReport:
    """All launches of one trace under one issue policy."""

    policy: str
    launches: List[LaunchTiming]

    @property
    def total_cycles(self) -> int:
        return sum(launch.cycles for launch in self.launches)

    def kernels(self) -> Dict[str, List[LaunchTiming]]:
        """Launches grouped by kernel, in first-seen order."""
        grouped: Dict[str, List[LaunchTiming]] = {}
        for launch in self.launches:
            grouped.setdefault(launch.kernel, []).append(launch)
        return grouped


class TimingModel:
    """Feed a trace (events or launch frames) in order; schedule
    afterwards.

    :meth:`feed` collects each launch's events into a
    :class:`~repro.trace.io.FrameBuilder` and hands the closed launch to
    :meth:`feed_frame`, so a live capture tee'd through :meth:`feed` and
    an offline replay of the same trace produce bit-identical reports.
    Closed launches wait in a batch, rebuilt in one pass once it holds
    :data:`BATCH_RECORDS` records and at :meth:`schedule`,
    :meth:`finish` or a read of :attr:`launches`; each batch is then
    scheduled in one call.  The cache hierarchy that grades memory
    latencies is the ``cachesim`` default (16 KiB/4-way L1 over
    256 KiB/16-way L2).
    """

    def __init__(self, l1_kib: int = 16, l1_ways: int = 4,
                 l2_kib: int = 256, l2_ways: int = 16):
        self.l2 = Cache(l2_kib << 10, ways=l2_ways, name="L2")
        self.l1 = Cache(l1_kib << 10, ways=l1_ways, name="L1",
                        next_level=self.l2)
        self._launches: List[LaunchStreams] = []
        #: the columns of every rebuilt batch, in feed order
        self._batches: List[StreamColumns] = []
        #: closed launch frames waiting for the next rebuild
        self._closed: List[FrameColumns] = []
        self._closed_records = 0
        self._open: Optional[FrameBuilder] = None
        self._reports: Dict[str, TimingReport] = {}

    @property
    def launches(self) -> List[LaunchStreams]:
        """Every closed launch, rebuilt, in feed order."""
        self._rebuild()
        return self._launches

    # ------------------------------------------------------- feeding

    def feed(self, event) -> None:
        """Collect one event of the open launch.  Records outside a
        launch (before the first, or after a kernel end) are dropped."""
        if isinstance(event, LaunchEvent):
            self._close_open()
            self._open = FrameBuilder(event)
        elif self._open is not None:
            self._open.add(event)
            if isinstance(event, KernelEndEvent):
                self._close_open()

    def feed_batch(self, events) -> None:
        for event in events:
            self.feed(event)

    def feed_frame(self, frame: FrameColumns) -> None:
        """Add one launch batch to the rebuild batch.  Records after its
        first kernel-end record, and a batch with no launch, are outside
        any launch and add nothing."""
        self._close_open()
        if frame.launch is None:
            return
        frame.opcodes()     # an unknown opcode fails here, naming its launch
        self._closed.append(frame)
        self._closed_records += frame.record_tags.size
        self._reports.clear()
        if self._closed_records >= BATCH_RECORDS:
            self._rebuild()

    def finish(self) -> None:
        """Close a trailing launch that never saw its end event, and
        rebuild the batch."""
        self._close_open()
        self._rebuild()

    def _close_open(self) -> None:
        if self._open is not None:
            builder, self._open = self._open, None
            self.feed_frame(builder.frame())

    def _rebuild(self) -> None:
        if self._closed:
            closed, self._closed = self._closed, []
            self._closed_records = 0
            batch, launches = rebuild_launches(closed, self.l1)
            self._batches.append(batch)
            self._launches.extend(launches)

    # ---------------------------------------------------- scheduling

    def schedule(self, policy: str = "gto") -> TimingReport:
        self._rebuild()
        report = self._reports.get(policy)
        if report is not None:
            return report
        config = SchedulerConfig(policy=policy)
        schedules = [schedule for batch in self._batches
                     for schedule in schedule_columns(batch, config)]
        launches = []
        for launch, schedule in zip(self._launches, schedules):
            streams = launch.streams
            nctas = len(streams.warp_lengths)
            launches.append(LaunchTiming(
                kernel=launch.kernel, launch_index=launch.launch_index,
                grid=launch.grid, block=launch.block,
                ctas=nctas, warps=nctas * launch.warps_per_cta,
                instructions=launch.instr_count, schedule=schedule,
                streams=streams))
        report = TimingReport(policy=policy, launches=launches)
        self._reports[policy] = report
        return report


class TimingAnalysis(TraceAnalysis):
    """The replay-side entry point: ``repro replay --analysis=timing``
    and the ``repro trace summary``/``iters`` subcommands."""

    name = "timing"

    def __init__(self, policy: str = "gto"):
        self.policy = policy
        self.model = TimingModel()

    def feed_columns(self, frame: FrameColumns) -> None:
        self.model.feed_frame(frame)

    def _report(self) -> TimingReport:
        return self.model.schedule(self.policy)

    def result(self) -> Dict:
        report = self._report()
        return {
            "policy": report.policy,
            "total_cycles": report.total_cycles,
            "launches": [{
                "kernel": launch.kernel,
                "launch_index": launch.launch_index,
                "cycles": launch.cycles,
                "busy_cycles": launch.schedule.busy_cycles,
                "bubble_cycles": launch.schedule.bubble_cycles,
                "issued": launch.schedule.issued,
                "stall_cycles": dict(launch.schedule.stall_cycles),
                "divergent_instrs": launch.schedule.divergent_instrs,
            } for launch in report.launches],
        }

    def report(self) -> str:
        report = self._report()
        busy = sum(l.schedule.busy_cycles for l in report.launches)
        bubbles = sum(l.schedule.bubble_cycles for l in report.launches)
        total = report.total_cycles
        pct = 100.0 * bubbles / total if total else 0.0
        return (f"timing[{report.policy}]: {len(report.launches)} "
                f"launches, {total:,} cycles (busy {busy:,}, "
                f"{bubbles:,} bubble cycles = {pct:.1f}%)")


ANALYSES[TimingAnalysis.name] = TimingAnalysis


# ------------------------------------------------------------ live path

class TimingSink:
    """A ``TraceWriter``-shaped sink feeding a :class:`TimingModel`
    instead of disk — live timing with no trace file."""

    def __init__(self, model: TimingModel):
        self.model = model

    def write(self, event) -> None:
        self.model.feed(event)

    def write_batch(self, events) -> None:
        self.model.feed_batch(events)

    def close(self):
        self.model.finish()
        return None


class TeeWriter:
    """Forward every event to an inner :class:`TraceWriter` *and* a
    :class:`TimingModel` — capture a trace and time it in one run.
    The inner writer sees exactly the calls it would see alone, so the
    trace bytes are unchanged."""

    def __init__(self, inner, model: TimingModel):
        self.inner = inner
        self.model = model

    def write(self, event) -> None:
        self.inner.write(event)
        self.model.feed(event)

    def write_batch(self, events) -> None:
        self.inner.write_batch(events)
        self.model.feed_batch(events)

    def close(self):
        self.model.finish()
        return self.inner.close()


def live_timing(workload_name: str, global_only: bool = True,
                cache=None) -> Tuple[TimingModel, bool]:
    """Run *workload_name* instrumented, feeding a :class:`TimingModel`
    directly (no trace file); returns ``(model, verified)``."""
    from repro.sim import Device
    from repro.trace.capture import TraceRecorder
    from repro.workloads import make

    model = TimingModel()
    workload = make(workload_name)
    device = Device()
    recorder = TraceRecorder(device, TimingSink(model),
                             global_only=global_only)
    kernel = recorder.compile(workload.build_ir(), cache=cache)
    output = workload.execute(device, kernel)
    verified = workload.verify(output)
    model.finish()
    return model, verified


# ------------------------------------------------------------ rendering

def _pct(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


def render_summary(report: TimingReport, top: int = 5) -> str:
    """The ``repro trace summary`` text: per-kernel cycles, top-N
    hotspot instructions, idle-gap regions, divergence spans."""
    lines = [f"timing summary — policy {report.policy}"]
    for kernel, launches in report.kernels().items():
        cycles = sum(l.cycles for l in launches)
        busy = sum(l.schedule.busy_cycles for l in launches)
        bubbles = cycles - busy
        issued = sum(l.schedule.issued for l in launches)
        lines.append(
            f"kernel {kernel}: {len(launches)} launch"
            f"{'es' if len(launches) != 1 else ''}, {cycles:,} cycles "
            f"(busy {busy:,}, bubbles {bubbles:,} = "
            f"{_pct(bubbles, cycles):.1f}%), {issued:,} warp instrs")
        stalls = {reason: 0 for reason
                  in launches[0].schedule.stall_cycles}
        releases = 0
        for launch in launches:
            for reason, count in launch.schedule.stall_cycles.items():
                stalls[reason] += count
            releases += launch.schedule.barrier_releases
        stall_text = ", ".join(f"{reason} {count:,}"
                               for reason, count in sorted(stalls.items()))
        lines.append(f"  stalls: {stall_text}; "
                     f"barrier releases {releases:,}")
        merged: Dict[int, List] = {}
        for launch in launches:
            for spot in launch.schedule.hotspots.values():
                row = merged.setdefault(
                    spot.addr, [spot.opcode, 0, 0, 0])
                row[1] += spot.issues
                row[2] += spot.issue_cycles
                row[3] += spot.stall_cycles
        ranked = sorted(merged.items(),
                        key=lambda item: (-(item[1][2] + item[1][3]),
                                          item[0]))[:top]
        if ranked:
            lines.append("  hotspots:")
            for addr, (opcode, issues, issue_cycles, stall) in ranked:
                lines.append(f"    0x{addr:08x} {opcode.name:<6} "
                             f"issues {issues:>8,}  "
                             f"issue {issue_cycles:>8,}  "
                             f"stall {stall:>8,}")
        bubble_rows = []
        for launch in launches:
            for bubble in launch.schedule.bubbles:
                bubble_rows.append((bubble, launch.launch_index))
        bubble_rows.sort(key=lambda item: (-item[0].cycles, item[1],
                                           item[0].cta, item[0].start))
        if bubble_rows:
            lines.append("  bubbles:")
            for bubble, launch_index in bubble_rows[:top]:
                lines.append(
                    f"    launch {launch_index} cta {bubble.cta} "
                    f"@ {bubble.start:,}: {bubble.cycles:,} cycles "
                    f"({bubble.reason}) on 0x{bubble.addr:08x} "
                    f"{bubble.opcode.name}")
        span_count = sum(len(l.spans) for l in launches)
        divergent = sum(l.schedule.divergent_instrs for l in launches)
        lines.append(f"  divergence: {span_count:,} serialized spans, "
                     f"{divergent:,} warp instrs "
                     f"({_pct(divergent, issued):.1f}% of issued)")
        if span_count:
            spans = []
            for launch in launches:
                spans.extend(launch.spans)
            spans.sort(key=lambda s: (-s[1], s[0], s[2]))
            for start, length, min_lanes in spans[:top]:
                lines.append(f"    0x{start:08x} x{length:<6,} "
                             f"min lanes {min_lanes}")
    lines.append(f"total: {report.total_cycles:,} cycles across "
                 f"{len(report.launches)} launches")
    return "\n".join(lines)


def render_iters(report: TimingReport) -> str:
    """The ``repro trace iters`` text: per-launch cycles and the
    per-kernel iteration spread (launch-to-launch variance)."""
    lines = [f"timing iters — policy {report.policy}"]
    for launch in report.launches:
        lines.append(f"  #{launch.launch_index:<4} "
                     f"{launch.kernel:<24} {launch.cycles:>12,} cycles  "
                     f"{launch.schedule.issued:>10,} instrs  "
                     f"{launch.bubble_pct:5.1f}% bubble")
    for kernel, launches in report.kernels().items():
        cycles = [launch.cycles for launch in launches]
        low, high = min(cycles), max(cycles)
        mean = sum(cycles) / len(cycles)
        spread = high - low
        lines.append(
            f"kernel {kernel}: {len(cycles)} iters, cycles "
            f"min {low:,} mean {mean:,.1f} max {high:,}, "
            f"spread {spread:,} ({_pct(spread, round(mean)):.1f}% of mean)")
    return "\n".join(lines)
