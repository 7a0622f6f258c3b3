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

from collections import OrderedDict
from dataclasses import dataclass, field
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
    """An LRU set-associative cache of line addresses."""

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
        self._sets: Dict[int, OrderedDict] = {}

    def access(self, line_addr: int) -> bool:
        """Access one line address; returns True on hit.  Misses are
        forwarded to the next level (if any)."""
        line = line_addr // self.line_bytes
        return self._access_line(line % self.num_sets,
                                 line // self.num_sets, line_addr)

    def _access_line(self, index: int, tag: int, line_addr: int) -> bool:
        self.stats.accesses += 1
        ways = self._sets.setdefault(index, OrderedDict())
        if tag in ways:
            ways.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if self.next_level is not None:
            self.next_level.access(line_addr)
        ways[tag] = True
        if len(ways) > self.ways:
            ways.popitem(last=False)
            self.stats.evictions += 1
        return False

    def access_lines(self, line_addresses: Sequence[int],
                     outcomes: Optional[List[int]] = None) -> int:
        """Access a whole transaction vector (in order); returns the
        number of misses at this level.

        Equivalent to ``sum(not self.access(a) for a in line_addresses)``
        — stats, LRU state and next-level forwarding are identical to
        the one-at-a-time loop — but set indices and tags come from one
        vectorized pass, and this level and the next run as one inlined
        loop.  When *outcomes* is given, each line's grade is appended
        to it: 0 hit at this level, 1 hit at the next level, 2 missed
        every level modelled here (a DRAM trip).
        """
        if len(line_addresses) == 0:
            return 0
        line_bytes, num_sets = self.line_bytes, self.num_sets
        try:
            raw = np.asarray(line_addresses, dtype=np.int64)
        except OverflowError:        # u64 addresses past int64
            addrs = [int(a) for a in line_addresses]
            indices = [a // line_bytes % num_sets for a in addrs]
            tags = [a // line_bytes // num_sets for a in addrs]
        else:
            lines = raw // line_bytes
            indices = (lines % num_sets).tolist()
            tags = (lines // num_sets).tolist()
            addrs = raw.tolist()
        grade = ([] if outcomes is None else outcomes).append
        sets, assoc = self._sets, self.ways
        hits = evictions = 0
        nxt = self.next_level
        if nxt is not None:
            sets2, assoc2 = nxt._sets, nxt.ways
            line_bytes2, num_sets2 = nxt.line_bytes, nxt.num_sets
            below = nxt.next_level
            hits2 = misses2 = evictions2 = 0
        for index, tag, addr in zip(indices, tags, addrs):
            ways = sets.get(index)
            if ways is None:
                ways = sets[index] = OrderedDict()
            if tag in ways:
                ways.move_to_end(tag)
                hits += 1
                grade(0)
                continue
            ways[tag] = True
            if len(ways) > assoc:
                ways.popitem(last=False)
                evictions += 1
            if nxt is None:
                grade(2)
                continue
            line2 = addr // line_bytes2
            index2, tag2 = line2 % num_sets2, line2 // num_sets2
            ways2 = sets2.get(index2)
            if ways2 is None:
                ways2 = sets2[index2] = OrderedDict()
            if tag2 in ways2:
                ways2.move_to_end(tag2)
                hits2 += 1
                grade(1)
                continue
            misses2 += 1
            if below is not None:
                below.access(addr)
            ways2[tag2] = True
            if len(ways2) > assoc2:
                ways2.popitem(last=False)
                evictions2 += 1
            grade(2)
        misses = len(addrs) - hits
        stats = self.stats
        stats.accesses += len(addrs)
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
