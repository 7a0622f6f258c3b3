"""The telemetry collector: spans, counters, timers, cross-process merge.

One process-wide :class:`Telemetry` instance (``TELEMETRY``) holds

* ``counters`` — monotonically increasing integer metrics; the
  executor's ``instr.*`` and ``sassi.*`` counters are folded in once per
  launch from the dispatch units it visited;
* ``timers`` — float second accumulators (handler-body wall time);
* a stack of open :class:`Span` nodes and the list of finished root
  spans (``roots``).

Everything is disabled by default: with ``enabled`` False the executor
skips the counter fold and :func:`span` yields without allocating.
Campaign workers (see :mod:`repro.campaign.engine`) capture a
:func:`Telemetry.mark` before each task and ship the
:func:`Telemetry.delta_since` back to the parent, which merges it with
:func:`Telemetry.merge_snapshot` — counter totals are therefore
identical between serial and ``--jobs N`` runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class Span:
    """One finished (or open) region of the run.

    ``t0``/``t1`` are ``time.perf_counter`` readings — comparable within
    one process only; exporters normalize per root tree.  ``counters``
    and ``timers`` hold the *deltas* accrued while the span was open
    (children included).
    """

    name: str
    t0: float
    t1: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    timers: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return max(self.t1 - self.t0, 0.0)

    def self_wall(self) -> float:
        return max(self.wall - sum(c.wall for c in self.children), 0.0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wall": self.wall,
            "meta": dict(self.meta),
            "counters": dict(self.counters),
            "timers": dict(self.timers),
            "children": [c.to_dict() for c in self.children],
        }

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def _dict_delta(now: Dict, then: Dict) -> Dict:
    """Per-key difference ``now - then`` (keys with zero delta dropped)."""
    delta = {}
    for key, value in now.items():
        change = value - then.get(key, 0)
        if change:
            delta[key] = change
    return delta


@dataclass
class Mark:
    """A point-in-time bookmark used to compute per-task deltas."""

    counters: Dict[str, int]
    timers: Dict[str, float]
    root_count: int


@dataclass
class Snapshot:
    """A picklable telemetry delta (what a worker ships home)."""

    counters: Dict[str, int] = field(default_factory=dict)
    timers: Dict[str, float] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)


class Telemetry:
    """Process-wide telemetry state."""

    def __init__(self, clock=time.perf_counter):
        self.enabled: bool = False
        self.clock = clock
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -------------------------------------------------------- lifecycle

    def enable(self, reset: bool = False) -> None:
        if reset:
            self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.counters = {}
        self.timers = {}
        self.roots = []
        self._stack = []

    # --------------------------------------------------------- counters

    def incr(self, name: str, amount: int = 1) -> None:
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount

    def add_time(self, name: str, seconds: float) -> None:
        timers = self.timers
        timers[name] = timers.get(name, 0.0) + seconds

    # ------------------------------------------------------------ spans

    def push(self, name: str, meta: Optional[Dict[str, Any]] = None) -> Span:
        node = Span(name=name, t0=self.clock(), meta=meta or {})
        node.counters = dict(self.counters)   # mark; replaced on pop
        node.timers = dict(self.timers)
        self._stack.append(node)
        return node

    def pop(self, node: Span) -> Span:
        node.t1 = self.clock()
        node.counters = _dict_delta(self.counters, node.counters)
        node.timers = _dict_delta(self.timers, node.timers)
        while self._stack and self._stack[-1] is not node:
            self._stack.pop()          # tolerate mismatched exits
        if self._stack:
            self._stack.pop()
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        return node

    # ---------------------------------------------------- worker merges

    def mark(self) -> Mark:
        return Mark(counters=dict(self.counters), timers=dict(self.timers),
                    root_count=len(self.roots))

    def delta_since(self, mark: Mark) -> Snapshot:
        return Snapshot(
            counters=_dict_delta(self.counters, mark.counters),
            timers=_dict_delta(self.timers, mark.timers),
            spans=self.roots[mark.root_count:],
        )

    def merge_snapshot(self, snapshot: Snapshot) -> None:
        """Fold a worker's delta into this process (order-independent
        for counters/timers; spans append in call order)."""
        for key, value in snapshot.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, value in snapshot.timers.items():
            self.timers[key] = self.timers.get(key, 0.0) + value
        sink = self._stack[-1].children if self._stack else self.roots
        sink.extend(snapshot.spans)


#: The process-wide collector.
TELEMETRY = Telemetry()


@contextmanager
def span(name: str, **meta):
    """Open a telemetry span (no-op when telemetry is disabled)."""
    telem = TELEMETRY
    if not telem.enabled:
        yield None
        return
    node = telem.push(name, meta)
    try:
        yield node
    finally:
        telem.pop(node)


@contextmanager
def timed(name: str):
    """Accumulate the block's wall time into ``timers[name]``."""
    telem = TELEMETRY
    if not telem.enabled:
        yield
        return
    start = telem.clock()
    try:
        yield
    finally:
        telem.add_time(name, telem.clock() - start)
