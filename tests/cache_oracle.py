"""Per-line LRU cache grading, kept as a test oracle.

:func:`access` is the one-line-at-a-time LRU step that
:meth:`repro.sim.cache.Cache.access_lines` replaced with its set-parallel
reuse-distance grader: each set is a dict of tags in recency order, a
hit re-inserts its tag at the end, and a fill past the associativity
evicts the first tag; a miss is forwarded to the next level.
:class:`OracleCache` is a :class:`~repro.sim.cache.Cache` with that step
as its ``access`` method (its ``access_lines`` is the production
grader).  :func:`loop_access_lines` is the inlined two-level loop the
grader replaced, kept as the baseline the perf smoke times it against.

Nothing here is imported by ``src/``.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import List, Optional, Sequence

import numpy as np

from repro.sim.cache import Cache


def access(cache: Cache, line_addr: int) -> bool:
    """Access one line address of *cache*; returns True on hit.  Misses
    are forwarded to the next level (if any)."""
    line = line_addr // cache.line_bytes
    index, tag = line % cache.num_sets, line // cache.num_sets
    cache.stats.accesses += 1
    ways = cache._sets.get(index)
    if ways is None:
        ways = cache._sets[index] = {}
    if tag in ways:
        del ways[tag]
        ways[tag] = True
        cache.stats.hits += 1
        return True
    cache.stats.misses += 1
    if cache.next_level is not None:
        access(cache.next_level, line_addr)
    ways[tag] = True
    if len(ways) > cache.ways:
        del ways[next(iter(ways))]
        cache.stats.evictions += 1
    return False


def access_graded(cache: Cache, line_addr: int) -> int:
    """:func:`access`, returning the line's ``access_lines`` grade: 0
    hit at *cache*, 1 hit at the next level, 2 missed both."""
    below = cache.next_level
    hits_below = None if below is None else below.stats.hits
    if access(cache, line_addr):
        return 0
    return 1 if below is not None and below.stats.hits > hits_below else 2


class OracleCache(Cache):
    """A :class:`Cache` that also grades one line at a time."""

    access = access


def kepler_hierarchy() -> OracleCache:
    """:func:`repro.sim.cache.kepler_hierarchy`, built of
    :class:`OracleCache` levels."""
    l2 = OracleCache(512 << 10, ways=16, name="L2")
    return OracleCache(16 << 10, ways=4, name="L1", next_level=l2)


def loop_access_lines(cache: Cache, line_addresses: Sequence[int],
                      outcomes: Optional[List[int]] = None,
                      flushes: Sequence[int] = ()) -> int:
    """The per-line ``access_lines`` loop: set indices and tags of two
    levels from one vectorized pass, then one inlined Python LRU step
    per line (a third level graded by :func:`access`)."""
    n = len(line_addresses)
    if n == 0:
        return 0
    nxt = cache.next_level
    below = None if nxt is None else nxt.next_level
    try:
        raw = np.asarray(line_addresses, dtype=np.int64)
    except OverflowError:        # u64 addresses past int64
        addrs = [int(a) for a in line_addresses]
        keys = [([a // c.line_bytes % c.num_sets for a in addrs],
                 [a // c.line_bytes // c.num_sets for a in addrs])
                for c in (cache, nxt) if c is not None]
    else:
        addrs = raw.tolist() if below is not None else None
        keys = [((raw // c.line_bytes % c.num_sets).tolist(),
                 (raw // c.line_bytes // c.num_sets).tolist())
                for c in (cache, nxt) if c is not None]
    if nxt is None:
        keys.append((repeat(None), repeat(None)))
    (indices, tags), (indices2, tags2) = keys
    rows = zip(indices, tags, indices2, tags2,
               repeat(None) if addrs is None else addrs)
    grade = ([] if outcomes is None else outcomes).append
    sets, assoc = cache._sets, cache.ways
    hits = evictions = 0
    if nxt is not None:
        sets2, assoc2 = nxt._sets, nxt.ways
        hits2 = misses2 = evictions2 = 0
    bounds = [0, *flushes, n]
    for segment, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if segment:
            cache.invalidate()
            sets = cache._sets
            if nxt is not None:
                sets2 = nxt._sets
        for index, tag, index2, tag2, addr in islice(rows, hi - lo):
            ways = sets.get(index)
            if ways is None:
                ways = sets[index] = {}
            if tag in ways:
                del ways[tag]
                ways[tag] = True
                hits += 1
                grade(0)
                continue
            ways[tag] = True
            if len(ways) > assoc:
                del ways[next(iter(ways))]
                evictions += 1
            if nxt is None:
                grade(2)
                continue
            ways2 = sets2.get(index2)
            if ways2 is None:
                ways2 = sets2[index2] = {}
            if tag2 in ways2:
                del ways2[tag2]
                ways2[tag2] = True
                hits2 += 1
                grade(1)
                continue
            misses2 += 1
            if below is not None:
                access(below, addr)
            ways2[tag2] = True
            if len(ways2) > assoc2:
                del ways2[next(iter(ways2))]
                evictions2 += 1
            grade(2)
    misses = n - hits
    stats = cache.stats
    stats.accesses += n
    stats.hits += hits
    stats.misses += misses
    stats.evictions += evictions
    if nxt is not None:
        stats = nxt.stats
        stats.accesses += misses
        stats.hits += hits2
        stats.misses += misses2
        stats.evictions += evictions2
    return misses
