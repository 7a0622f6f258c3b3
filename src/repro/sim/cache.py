"""Set-associative cache models (L1 per-SM, shared L2).

Purely for statistics (hit/miss counts feed the cycle cost model); data
always comes from the backing store, so the caches cannot cause
incoherence.  The memory-hierarchy extension point mentioned in the
paper's Section 9.4 ("a memory trace collected by SASSI can be used to
drive a memory hierarchy simulator") is exercised by
``examples/memtrace_cachesim.py``, which replays a SASSI-collected trace
through these same models.

Grading is exact LRU by reuse distance, with no step per line.  A flush
(a kernel-launch boundary) starts every level cold, so each (segment,
set) pair of a level is an independent LRU stream, and a line hits
exactly when fewer than ``ways`` distinct tags of its stream were
touched since its previous use — the stack-distance property of Mattson
et al. (1970, "Evaluation techniques for storage hierarchies").  NumPy
decides that for a whole batch at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

#: a backward-walk block of at most this many positions, over at least
#: _COLUMN_ROWS reuses, is taken one position at a time (fewer, longer
#: steps than gathering every reuse's block whole)
_COLUMN_BLOCK = 16
_COLUMN_ROWS = 1024
#: cells (reuses x positions) of one longer block gathered at once;
#: bounds the walk's memory, not its result
_WALK_CELLS = 1 << 20

#: keys from which a packed sort beats a stable argsort
_PACKED_SORT = 1024

_NO_LINES = np.empty(0, dtype=np.int64)


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

    :meth:`access_lines` grades a batch of line addresses and leaves the
    cache holding what an LRU fed one line at a time would: ``_sets``
    maps each set to a dict of its tags in recency order, least recently
    used first (dicts keep insertion order), built from the grader's
    line array when first read.
    """

    def __init__(self, size_bytes: int, line_bytes: int = 32,
                 ways: int = 4, name: str = "cache",
                 next_level: Optional["Cache"] = None):
        for param, value in (("size_bytes", size_bytes),
                             ("line_bytes", line_bytes), ("ways", ways)):
            if value <= 0:
                raise ValueError(f"cache {param} must be positive, "
                                 f"got {value}")
        if size_bytes % (line_bytes * ways):
            raise ValueError("cache size must be a multiple of line*ways")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        self.name = name
        self.next_level = next_level
        self.stats = CacheStats()
        #: the cached lines (address // line_bytes), set by set in
        #: recency order, or the same as ``_sets`` dicts once read
        self._state: Union[np.ndarray, Dict[int, Dict[int, bool]]] = \
            _NO_LINES

    @property
    def _sets(self) -> Dict[int, Dict[int, bool]]:
        """Each set's tags in recency order, least recently used first."""
        state = self._state
        if isinstance(state, np.ndarray):
            num_sets = self.num_sets
            state = {}
            for line in self._state.tolist():
                tags = state.get(line % num_sets)
                if tags is None:
                    tags = state[line % num_sets] = {}
                tags[line // num_sets] = True
            self._state = state
        return state

    def access_lines(self, line_addresses: Sequence[int],
                     outcomes: Optional[List[int]] = None,
                     flushes: Sequence[int] = ()) -> int:
        """Access a whole transaction vector (in order); returns the
        number of misses at this level.

        Stats, evictions, each set's recency order and the forwarding
        of misses to the levels below are those of an LRU fed one line
        at a time.  Each level is graded by reuse distance in one vector
        pass over the previous level's miss stream.  When *outcomes* is
        given, each line's grade is appended to it: 0 hit at this
        level, 1 hit at the next level, 2 missed every level modelled
        here (a DRAM trip).  The hierarchy is invalidated ahead of the
        line at each (ascending) position in *flushes*, as at a
        kernel-launch boundary.  Addresses past int64 are graded
        exactly, by dense ids in their place.
        """
        n = len(line_addresses)
        if n == 0:
            return 0
        addrs = _address_array(line_addresses)
        last = len(flushes)
        if last:     # each line's segment: the flushes at or before it
            segments = np.cumsum(np.bincount(
                np.asarray(flushes, dtype=np.int64), minlength=n + 1)[:n])
        else:
            segments = np.zeros(n, dtype=np.int64)
        misses = self.stats.misses
        grades = np.full(n, 2, dtype=np.int8)
        rows = np.arange(n)
        level, depth = self, 0
        while True:
            hit = level._grade(addrs, segments, last)
            if depth < 2:
                grades[rows[hit]] = depth
            level, depth = level.next_level, depth + 1
            if level is None:
                break
            miss = ~hit
            addrs, segments, rows = addrs[miss], segments[miss], rows[miss]
        if outcomes is not None:
            outcomes.extend(grades.tolist())
        return self.stats.misses - misses

    def _grade(self, addrs: np.ndarray, segments: np.ndarray,
               last: int) -> np.ndarray:
        """Grade this level's input stream (*addrs*, each in its flush
        segment, *last* the final one); returns the hit mask and leaves
        stats and state as the one-line LRU would.

        The lines cached ahead of the call are prepended to segment 0 as
        uncounted accesses, least recently used first, so the streams
        start from the cache's state.
        """
        num_sets, ways = self.num_sets, self.ways
        n = addrs.size
        if not n:
            if last:
                self._state = _NO_LINES
            return np.zeros(0, dtype=bool)
        lines = addrs // self.line_bytes
        state = self._state
        if isinstance(state, dict):
            state = [tag * num_sets + index
                     for index, tags in state.items() for tag in tags]
        cached = len(state)
        if cached:
            lines = _join(state, lines)
            segments = np.concatenate(
                (np.zeros(cached, dtype=np.int64), segments))
        total = lines.size
        streams = segments * num_sets + (lines % num_sets).astype(np.int64)
        values = None
        if lines.dtype == object:    # lines past int64: grade dense ids
            values, lines = np.unique(lines, return_inverse=True)

        # previous use of each line: its predecessor in a stable sort by
        # line, when that one lies in the same segment
        by_line = _stable_order(lines)
        before, after = by_line[:-1], by_line[1:]
        ordered = lines[by_line]
        linked = ((ordered[1:] == ordered[:-1])
                  & (segments[after] == segments[before]))
        before, after = before[linked], after[linked]

        # positions in stream order, where each stream is contiguous and
        # a reuse window is the run between a line and its previous use
        order = _stable_order(streams)
        rank = np.empty(total, dtype=np.int64)
        rank[order] = np.arange(total)
        earlier = rank[before]
        following = np.full(total, total, dtype=np.int64)
        following[earlier] = rank[after]
        prior = np.full(total, -1, dtype=np.int64)
        prior[after] = earlier
        here, prior = rank[cached:], prior[cached:]
        reused = prior >= 0
        hit = reused & (here - prior <= ways)
        far = (reused ^ hit).nonzero()[0]
        if far.size:
            hit[far] = _walk(here[far], prior[far], following, ways)

        # each stream ends holding the last `ways` of its last uses (one
        # per distinct tag); every other fill was evicted
        last_uses = (following == total).nonzero()[0]
        last_streams = streams[order[last_uses]]
        younger = (last_streams.searchsorted(last_streams, "right")
                   - np.arange(1, last_uses.size + 1))
        held = last_uses[younger < ways]
        hits = int(np.count_nonzero(hit))
        evictions = total - hits - held.size

        # state: what the streams of the final segment (the tail of
        # stream order) hold, in recency order
        held = held[held.searchsorted(segments.searchsorted(last)):]
        state = lines[order[held]]
        self._state = state if values is None else values[state]

        stats = self.stats
        stats.accesses += n
        stats.hits += hits
        stats.misses += n - hits
        stats.evictions += evictions
        return hit

    def reset(self) -> None:
        self.stats.reset()
        self._state = _NO_LINES

    def invalidate(self) -> None:
        """Drop cached lines (cumulative stats survive), recursively
        through the hierarchy — the kernel-launch-boundary flush: every
        launch starts cold, so launch-partitioned replays of one trace
        grade accesses identically to a single streaming pass."""
        self._state = _NO_LINES
        if self.next_level is not None:
            self.next_level.invalidate()


def _address_array(line_addresses: Sequence[int]) -> np.ndarray:
    """*line_addresses* as int64, or as Python ints (an object array)
    when one is past int64."""
    if getattr(line_addresses, "dtype", None) == np.uint64:
        line_addresses = line_addresses.astype(object)
    try:
        return np.asarray(line_addresses, dtype=np.int64)
    except OverflowError:        # addresses past int64
        return np.array(line_addresses, dtype=object)


def _join(cached: Sequence[int], lines: np.ndarray) -> np.ndarray:
    """The *cached* lines ahead of *lines*: int64, or Python ints when
    either holds a line past int64."""
    cached = _address_array(cached)
    if cached.dtype != lines.dtype:
        cached, lines = cached.astype(object), lines.astype(object)
    return np.concatenate((cached, lines))


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, by one plain sort of the
    keys packed above their positions when that fits int64 (several
    times faster than a stable argsort)."""
    total = keys.size
    bits = total.bit_length()
    if total < _PACKED_SORT:
        return np.argsort(keys, kind="stable")
    low = int(keys.min())
    if int(keys.max()) - low >= 1 << (62 - bits):
        return np.argsort(keys, kind="stable")
    packed = (keys - low).astype(np.int64, copy=False) << bits
    packed |= np.arange(total)
    packed.sort()
    packed &= (1 << bits) - 1
    return packed


def _walk(here: np.ndarray, prior: np.ndarray, following: np.ndarray,
          ways: int) -> np.ndarray:
    """Hit flags of reuses at stream positions *here* whose previous use
    is at *prior*, each with at least *ways* positions between.

    A position between counts as a distinct tag when its line's next
    use lies past the reuse.  The walk goes backwards from every reuse
    at once, in blocks that double in size: a reuse misses once it has
    counted *ways* distinct tags and hits once its window runs out.  A
    short block over many undecided reuses is taken one position at a
    time across all of them; any other, such as the long blocks left to
    the few reuses with long windows of few tags, is gathered whole for
    each.  No position is walked for more than *ways* reuses (a
    reuse still walking has seen fewer than *ways* distinct tags, and
    the tag of every earlier reuse whose walk covers a position lies in
    the window of each later one), so the work stays within *ways*
    times the stream length.
    """
    rows = np.arange(here.size)
    hit = np.zeros(here.size, dtype=bool)
    seen = np.zeros(here.size, dtype=np.int64)
    gap = here - prior - 1
    walked, block = 0, ways
    while rows.size:
        if block <= _COLUMN_BLOCK and rows.size >= _COLUMN_ROWS:
            for offset in range(walked + 1, walked + block + 1):
                position = here - offset
                seen += ((following.take(position, mode="clip") > here)
                         & (position > prior))
        else:
            offsets = np.arange(walked + 1, walked + block + 1)
            step = max(1, _WALK_CELLS // block)
            for lo in range(0, rows.size, step):
                reuse = here[lo:lo + step, None]
                position = reuse - offsets
                seen[lo:lo + step] += (
                    (following.take(position, mode="clip") > reuse)
                    & (position > prior[lo:lo + step, None])).sum(axis=1)
        walked += block
        miss = seen >= ways
        done = miss | (gap <= walked)
        hit[rows[done & ~miss]] = True
        going = ~done
        rows, here, prior = rows[going], here[going], prior[going]
        seen, gap = seen[going], gap[going]
        block *= 2
    return hit


def kepler_hierarchy() -> Cache:
    """A K10-flavoured hierarchy: 16 KiB 4-way L1 over 512 KiB 16-way L2
    (sized down with the scaled workloads)."""
    l2 = Cache(512 << 10, ways=16, name="L2")
    return Cache(16 << 10, ways=4, name="L1", next_level=l2)
