"""The state of one benchmark run and the pass loop shared by the
workloads."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ledger import Checker, References, Speedometer, median
from tracing import PASS, NullTracer, Tracer


@dataclass
class Context:
    seed: int
    workdir: str
    refs: References
    checker: Checker = field(default_factory=Checker)
    speed: Speedometer = field(default_factory=Speedometer)
    #: where the benchmark's own spans go: the tracer of a traced pass
    spans: object = field(default_factory=NullTracer)
    rng: random.Random = field(init=False)

    def __post_init__(self):
        self.rng = random.Random(self.seed)


def run_passes(one_pass: Callable[[], object],
               seconds: float, tracer: Optional[Tracer] = None
               ) -> Tuple[List[object], List[tuple]]:
    """Run passes until one more would overrun *seconds* (judged by
    the median pass so far); always at least one.  Returns the pass
    results and their host (start, end) intervals."""
    spans = tracer or NullTracer()
    results: List[object] = []
    intervals: List[tuple] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        with spans.span(PASS):
            results.append(one_pass())
        now = time.perf_counter()
        intervals.append((began, now))
        if now - start + median([b - a for a, b in intervals]) > seconds:
            return results, intervals


def run_checked(ctx: Context, op: str, fn: Callable[[List[str]], object]):
    """Run one operation; *fn* appends what it finds wrong to the list
    it is given.  An exception fails the operation instead of the run.
    Returns *fn*'s result, or None when it raised.  The machine's speed
    is sampled before the operation when it is due."""
    ctx.speed.tick()
    problems: List[str] = []
    try:
        result = fn(problems)
    except Exception as exc:  # any failure of the program under test
        problems.append(f"{type(exc).__name__}: {exc}")
        result = None
    ctx.checker.record(op, problems)
    return result
