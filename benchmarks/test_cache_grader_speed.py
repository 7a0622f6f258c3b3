"""Perf smoke: the reuse-distance grader against the per-line LRU loop.

:meth:`repro.sim.cache.Cache.access_lines` grades a whole batch of line
addresses by reuse distance; ``tests/cache_oracle.py`` keeps the
one-line-at-a-time loop it replaced.  Both are timed (best of 5) on the
same lines, so the gates are ratios and do not depend on the machine:

* the four ledger kernels' captured lines, each graded at the timing
  model's geometry and at the replay ledger's small and large
  ``cachesim`` geometries — the grader's total must stay within 0.6x of
  the loop's;
* the adversarial family: one set cycling through phases of two tags,
  whose reuse windows run thousands of lines long yet hold fewer
  distinct tags than the ways — no case may exceed 2x the loop.

Run with ``python -m pytest benchmarks/test_cache_grader_speed.py -q -s``
(``-s`` prints the per-case table).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.sim.cache import Cache
from repro.trace.capture import capture_workload
from repro.trace.replay import TraceAnalysis, replay
from tests.cache_oracle import loop_access_lines

#: the ledger's ``profile``/``replay`` kernels
KERNELS = ("rodinia/hotspot", "parboil/spmv(small)", "rodinia/nw",
           "parboil/sgemm(small)")

#: (L1 KiB, L1 ways, L2 KiB, L2 ways)
GEOMETRIES = {
    "timing": (16, 4, 256, 16),
    "small": (1, 2, 2, 4),
    "large": (64, 4, 1024, 16),
}

#: (ways, accesses a phase) of the two-tag-phase family, 10 phases each
ADVERSARIAL = ((2, 500), (4, 500), (4, 5000), (16, 5000))

REPEATS = 5


class _Lines(TraceAnalysis):
    name = "lines"

    def __init__(self):
        self.frames = []

    def feed_columns(self, frame) -> None:
        self.frames.append(frame.mem_lines)


def _best(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _hierarchy(l1_kib, l1_ways, l2_kib, l2_ways) -> Cache:
    return Cache(l1_kib << 10, ways=l1_ways,
                 next_level=Cache(l2_kib << 10, ways=l2_ways))


def _race(build, lines, flushes):
    """(loop s, grader s) on the same lines, each from a cold cache."""
    loop = _best(lambda: loop_access_lines(build(), lines, [], flushes))
    grader = _best(lambda: build().access_lines(lines, [], flushes))
    return loop, grader


@pytest.fixture(scope="module")
def kernel_lines(tmp_path_factory):
    """Each ledger kernel's coalesced lines and launch cuts."""
    out = {}
    for n, kernel in enumerate(KERNELS):
        path = str(tmp_path_factory.mktemp("grader") / f"k{n}.rptrace")
        _, verified, _ = capture_workload(kernel, path)
        assert verified, kernel
        frames = replay(path, [_Lines()])[0].frames
        sizes = [lines.size for lines in frames]
        out[kernel] = (np.concatenate(frames),
                       np.cumsum([0] + sizes[:-1]).tolist())
    return out


def test_grader_beats_loop_on_ledger_traces(kernel_lines):
    loop_total = grader_total = 0.0
    for kernel, (lines, flushes) in kernel_lines.items():
        for name, geometry in GEOMETRIES.items():
            loop, grader = _race(lambda: _hierarchy(*geometry), lines,
                                 flushes)
            loop_total += loop
            grader_total += grader
            print(f"{kernel:22s} {name:6s} {lines.size:7d} lines "
                  f"loop {1e3 * loop:7.2f} ms  grader {1e3 * grader:7.2f}"
                  f" ms  {grader / loop:5.2f}x")
    ratio = grader_total / loop_total
    print(f"total: loop {1e3 * loop_total:.1f} ms, grader "
          f"{1e3 * grader_total:.1f} ms, {ratio:.2f}x")
    assert ratio <= 0.6


@pytest.mark.parametrize("ways,phase", ADVERSARIAL)
def test_grader_bounded_on_two_tag_phases(ways, phase):
    tags = [(2 * (p % 2) + k % 2) for p in range(10) for k in range(phase)]
    lines = 32 * np.array(tags, dtype=np.int64)
    loop, grader = _race(lambda: Cache(32 * ways, ways=ways), lines, [])
    print(f"two-tag phases, {ways} ways, {phase} a phase: loop "
          f"{1e3 * loop:.2f} ms, grader {1e3 * grader:.2f} ms, "
          f"{grader / loop:.2f}x")
    assert grader <= 2 * loop
