"""Differential suite: the reuse-distance grader == the per-line LRU.

:meth:`repro.sim.cache.Cache.access_lines` grades each level of a
hierarchy in one vector pass; :mod:`tests.cache_oracle` keeps the
one-line-at-a-time LRU step it replaced.  Random hierarchies (1–3
levels, 1 to 64 sets, 1–16 ways) are fed the same calls both ways, and
after every call the return value, the grades, every level's stats and
every set's recency order must agree.  The streams draw:

* heavy reuse, and long phases cycling over fewer tags than the ways
  (reuse windows far longer than the associativity, yet hits);
* warm state carried from one call into the next;
* flushes at position 0, repeated flushes, and a flush at
  ``len(lines)`` (an empty last segment);
* addresses past 2**63 and past 2**64, as lists or ndarrays, with and
  without ``outcomes``;
* the grader's size constants set so that inputs this small also take
  its packed sort, its one-position walk and its row-by-row gathers.

The ``cachesim`` analysis keeps each launch's lines and grades them at
its first read; fed through ``replay()`` or through ``feed_columns``
(in batches of every size), its ``result()`` and its ``l1``/``l2``
stats and state, read in either order, equal the per-line oracle's.
"""

from __future__ import annotations

import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import cache as cache_mod
from repro.sim.cache import Cache
from repro.trace.capture import capture_workload
from repro.trace.io import TraceReader
from repro.trace.replay import CacheSimAnalysis, TraceAnalysis, replay
from tests.cache_oracle import access_graded
from tests.replay_oracle import OracleCacheSim, oracle_replay

pytestmark = pytest.mark.noskip

# the module, not the function that repro.trace re-exports under its name
replay_mod = importlib.import_module("repro.trace.replay")

#: where the drawn line addresses start: small, just below and past
#: 2**63, and past 2**64
BASES = (0, (1 << 63) - (1 << 12), 1 << 63, (1 << 64) + 96)


def _hierarchy(geometry):
    below = None
    for line_bytes, ways, sets in reversed(geometry):
        below = Cache(line_bytes * ways * sets, line_bytes=line_bytes,
                      ways=ways, next_level=below)
    return below


def _levels(cache):
    while cache is not None:
        yield cache
        cache = cache.next_level


def _recency(cache):
    return {index: list(tags) for index, tags in cache._sets.items()}


geometries = st.lists(
    st.tuples(st.sampled_from([1, 4, 32]), st.integers(1, 16),
              st.sampled_from([1, 2, 3, 8, 64])),
    min_size=1, max_size=3)


@st.composite
def calls(draw):
    """One ``access_lines`` call: (lines, flushes, as_array, graded)."""
    base = draw(st.sampled_from(BASES))
    pool = draw(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=40,
                         unique=True))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        # a phase cycling over a few of the pool's lines
        tags = draw(st.lists(st.sampled_from(pool), min_size=1,
                             max_size=4))
        length = draw(st.integers(1, 80))
        lines += [base + 4 * tags[k % len(tags)] for k in range(length)]
    n = len(lines)
    flushes = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    if draw(st.booleans()):
        flushes = [0] + flushes
    if draw(st.booleans()):
        flushes = flushes + [n]
    as_array = draw(st.booleans())
    graded = draw(st.booleans())
    return lines, flushes, as_array, graded


#: (_PACKED_SORT, _COLUMN_ROWS, _WALK_CELLS): the grader's own, then
#: settings that take the packed sort, the one-position walk and
#: row-by-row gathers on inputs this small
TUNINGS = ((cache_mod._PACKED_SORT, cache_mod._COLUMN_ROWS,
            cache_mod._WALK_CELLS), (0, 1, 1 << 20), (0, 1 << 30, 8),
           (1 << 30, 1, 1))


@given(geometry=geometries, feed=st.lists(calls(), min_size=1, max_size=4),
       tuning=st.sampled_from(TUNINGS))
@settings(max_examples=400, deadline=None)
def test_grader_equals_per_line_lru(geometry, feed, tuning):
    saved = cache_mod._PACKED_SORT, cache_mod._COLUMN_ROWS, \
        cache_mod._WALK_CELLS
    (cache_mod._PACKED_SORT, cache_mod._COLUMN_ROWS,
     cache_mod._WALK_CELLS) = tuning
    try:
        _check_calls(geometry, feed)
    finally:
        (cache_mod._PACKED_SORT, cache_mod._COLUMN_ROWS,
         cache_mod._WALK_CELLS) = saved


def _check_calls(geometry, feed):
    grader = _hierarchy(geometry)
    oracle = _hierarchy(geometry)
    for lines, flushes, as_array, graded in feed:
        if as_array:
            lines = np.array(lines, dtype=object if lines and max(lines)
                             >= 1 << 63 else np.int64)
        grades = [] if graded else None
        misses = grader.access_lines(lines, grades, flushes)

        want = []
        bounds = [0, *flushes, len(lines)]
        if len(lines):
            for segment, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                if segment:
                    oracle.invalidate()
                want += [access_graded(oracle, int(line))
                         for line in lines[lo:hi]]
        assert misses == sum(grade > 0 for grade in want)
        if graded:
            assert grades == want
        for mine, theirs in zip(_levels(grader), _levels(oracle)):
            assert mine.stats == theirs.stats
            assert _recency(mine) == _recency(theirs)


def test_long_windows_of_few_tags():
    """Phases of two tags, 5,000 accesses each, over four ways: every
    phase's first reuses sit behind a 5,000-line window of three
    distinct tags and still hit."""
    phases = [(2 * (p % 2), 2 * (p % 2) + 1) for p in range(8)]
    lines = [32 * tags[k % 2] for tags in phases for k in range(5000)]
    grader, oracle = Cache(4 * 32, ways=4), Cache(4 * 32, ways=4)
    grades = []
    grader.access_lines(lines, grades)
    assert grades == [access_graded(oracle, line) for line in lines]
    assert grader.stats == oracle.stats and grader.stats.misses == 4
    assert _recency(grader) == _recency(oracle)


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """rodinia/pathfinder's capture (several launches) and its events."""
    path = str(tmp_path_factory.mktemp("cachesim") / "p.rptrace")
    _, verified, _ = capture_workload("rodinia/pathfinder", path)
    assert verified
    return path, list(TraceReader(path).events())


class _Frames(TraceAnalysis):
    name = "frames"

    def __init__(self):
        self.frames = []

    def feed_columns(self, frame) -> None:
        self.frames.append(frame)


#: (L1 KiB, L1 ways, L2 KiB, L2 ways): below, near and past the
#: working set
GEOMETRIES = ((1, 2, 2, 4), (16, 4, 256, 16), (64, 4, 1024, 16))


def _expect(events, geometry):
    oracle = OracleCacheSim(*geometry)
    oracle_replay(events, [oracle])
    return oracle


def _same(analysis, oracle, result_first):
    if result_first:
        assert json.dumps(analysis.result()) == json.dumps(oracle.result())
    for mine, theirs in ((analysis.l1, oracle.l1), (analysis.l2, oracle.l2)):
        assert mine.stats == theirs.stats
        assert _recency(mine) == _recency(theirs)
    assert analysis.report() == oracle.report()
    assert json.dumps(analysis.result()) == json.dumps(oracle.result())


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("result_first", [True, False])
def test_cachesim_through_replay_equals_oracle(capture, geometry,
                                               result_first):
    path, events = capture
    analysis = CacheSimAnalysis(*geometry)
    replay(path, [analysis])
    _same(analysis, _expect(events, geometry), result_first)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("batch", [1, 500, 1 << 16])
@pytest.mark.parametrize("result_first", [True, False])
def test_cachesim_fed_directly_equals_oracle(capture, monkeypatch,
                                             geometry, batch, result_first):
    path, events = capture
    frames = replay(path, [_Frames()])[0].frames
    monkeypatch.setattr(replay_mod, "BATCH_RECORDS", batch)
    analysis = CacheSimAnalysis(*geometry)
    for frame in frames:
        analysis.feed_columns(frame)
    _same(analysis, _expect(events, geometry), result_first)
