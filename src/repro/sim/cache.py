"""Set-associative cache models (L1 per-SM, shared L2).

Purely for statistics (hit/miss counts feed the cycle cost model); data
always comes from the backing store, so the caches cannot cause
incoherence.  The memory-hierarchy extension point mentioned in the
paper's Section 9.4 ("a memory trace collected by SASSI can be used to
drive a memory hierarchy simulator") is exercised by
``examples/memtrace_cachesim.py``, which replays a SASSI-collected trace
through these same models.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = self.evictions = 0


class Cache:
    """An LRU set-associative cache of line addresses.

    Each set is a dict of its tags in recency order (dicts keep
    insertion order): a hit re-inserts its tag at the end, and a fill
    past the associativity evicts the first tag.
    """

    def __init__(self, size_bytes: int, line_bytes: int = 32,
                 ways: int = 4, name: str = "cache",
                 next_level: Optional["Cache"] = None):
        if size_bytes % (line_bytes * ways):
            raise ValueError("cache size must be a multiple of line*ways")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        self.name = name
        self.next_level = next_level
        self.stats = CacheStats()
        self._sets: Dict[int, Dict[int, bool]] = {}

    def access(self, line_addr: int) -> bool:
        """Access one line address; returns True on hit.  Misses are
        forwarded to the next level (if any)."""
        line = line_addr // self.line_bytes
        return self._access_line(line % self.num_sets,
                                 line // self.num_sets, line_addr)

    def _access_line(self, index: int, tag: int, line_addr: int) -> bool:
        self.stats.accesses += 1
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = {}
        if tag in ways:
            del ways[tag]
            ways[tag] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if self.next_level is not None:
            self.next_level.access(line_addr)
        ways[tag] = True
        if len(ways) > self.ways:
            del ways[next(iter(ways))]
            self.stats.evictions += 1
        return False

    def access_lines(self, line_addresses: Sequence[int],
                     outcomes: Optional[List[int]] = None,
                     flushes: Sequence[int] = ()) -> int:
        """Access a whole transaction vector (in order); returns the
        number of misses at this level.

        Equivalent to ``sum(not self.access(a) for a in line_addresses)``
        — stats, LRU state and next-level forwarding are identical to
        the one-at-a-time loop — but set indices and tags of this level
        and the next come from one vectorized pass, and the two levels
        run as one inlined loop.  When *outcomes* is given, each line's
        grade is appended to it: 0 hit at this level, 1 hit at the next
        level, 2 missed every level modelled here (a DRAM trip).  The
        hierarchy is invalidated ahead of the line at each (ascending)
        position in *flushes*, as at a kernel-launch boundary.
        """
        n = len(line_addresses)
        if n == 0:
            return 0
        nxt = self.next_level
        below = None if nxt is None else nxt.next_level
        try:
            raw = np.asarray(line_addresses, dtype=np.int64)
        except OverflowError:        # u64 addresses past int64
            addrs = [int(a) for a in line_addresses]
            keys = [([a // c.line_bytes % c.num_sets for a in addrs],
                     [a // c.line_bytes // c.num_sets for a in addrs])
                    for c in (self, nxt) if c is not None]
        else:
            addrs = raw.tolist() if below is not None else None
            keys = [((raw // c.line_bytes % c.num_sets).tolist(),
                     (raw // c.line_bytes // c.num_sets).tolist())
                    for c in (self, nxt) if c is not None]
        if nxt is None:
            keys.append((repeat(None), repeat(None)))
        (indices, tags), (indices2, tags2) = keys
        rows = zip(indices, tags, indices2, tags2,
                   repeat(None) if addrs is None else addrs)
        grade = ([] if outcomes is None else outcomes).append
        sets, assoc = self._sets, self.ways
        hits = evictions = 0
        if nxt is not None:
            sets2, assoc2 = nxt._sets, nxt.ways
            hits2 = misses2 = evictions2 = 0
        bounds = [0, *flushes, n]
        for segment, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if segment:
                self.invalidate()
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
                    below.access(addr)
                ways2[tag2] = True
                if len(ways2) > assoc2:
                    del ways2[next(iter(ways2))]
                    evictions2 += 1
                grade(2)
        misses = n - hits
        stats = self.stats
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

    def reset(self) -> None:
        self.stats.reset()
        self._sets.clear()

    def invalidate(self) -> None:
        """Drop cached lines (cumulative stats survive), recursively
        through the hierarchy — the kernel-launch-boundary flush: every
        launch starts cold, so launch-partitioned replays of one trace
        grade accesses identically to a single streaming pass."""
        self._sets.clear()
        if self.next_level is not None:
            self.next_level.invalidate()


def kepler_hierarchy() -> Cache:
    """A K10-flavoured hierarchy: 16 KiB 4-way L1 over 512 KiB 16-way L2
    (sized down with the scaled workloads)."""
    l2 = Cache(512 << 10, ways=16, name="L2")
    return Cache(16 << 10, ways=4, name="L1", next_level=l2)
