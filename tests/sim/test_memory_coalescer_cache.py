"""Unit tests for memory spaces, the coalescer, caches, and the warp
divergence stack (plus hypothesis properties on coalescing invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import cache as cache_model
from repro.sim.cache import Cache
from repro.sim.coalescer import LINE_BYTES, coalesce
from repro.sim.errors import DeviceFault
from repro.sim.memory import (
    GLOBAL_BASE,
    LOCAL_BASE,
    Memory,
    is_global,
    is_local,
    is_shared,
    SHARED_BASE,
)
from repro.sim.warp import Warp, TokenKind
from tests.cache_oracle import kepler_hierarchy


class TestMemory:
    def test_roundtrip_widths(self):
        mem = Memory(256)
        for width in (1, 2, 4, 8, 16):
            value = (1 << (8 * width)) - 3
            mem.write(16, width, value)
            assert mem.read(16, width) == value

    def test_little_endian(self):
        mem = Memory(16)
        mem.write(0, 4, 0x11223344)
        assert mem.read(0, 1) == 0x44
        assert mem.read(3, 1) == 0x11

    def test_bounds_checked(self):
        mem = Memory(32)
        with pytest.raises(DeviceFault):
            mem.read(30, 4)
        with pytest.raises(DeviceFault):
            mem.write(-1, 4, 0)

    def test_bytes_roundtrip(self):
        mem = Memory(64)
        mem.write_bytes(8, b"hello")
        assert mem.read_bytes(8, 5) == b"hello"

    def test_window_predicates(self):
        assert is_global(GLOBAL_BASE)
        assert not is_global(GLOBAL_BASE - 1)
        assert is_shared(SHARED_BASE + 100)
        assert is_local(LOCAL_BASE + 100)
        assert not is_local(GLOBAL_BASE)


class TestCoalescer:
    def test_same_line_coalesces_to_one(self):
        result = coalesce([GLOBAL_BASE + i for i in range(0, 32, 4)], 4)
        assert result.unique_lines == 1
        assert not result.is_diverged

    def test_unit_stride_full_warp(self):
        result = coalesce([GLOBAL_BASE + 4 * i for i in range(32)], 4)
        assert result.unique_lines == 4

    def test_fully_diverged(self):
        result = coalesce([GLOBAL_BASE + 1024 * i for i in range(32)], 4)
        assert result.unique_lines == 32
        assert result.is_fully_diverged

    def test_straddling_access_touches_two_lines(self):
        result = coalesce([GLOBAL_BASE + LINE_BYTES - 2], 4)
        assert result.unique_lines == 2

    def test_line_addresses_are_aligned(self):
        result = coalesce([GLOBAL_BASE + 7, GLOBAL_BASE + 77], 4)
        for line in result.line_addresses:
            assert line % LINE_BYTES == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
    def test_unique_lines_bounded_by_lanes(self, addrs):
        result = coalesce(addrs, 4)
        assert 1 <= result.unique_lines <= 2 * len(addrs)
        assert result.active_lanes == len(addrs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
    def test_aligned_word_accesses_never_split(self, addrs):
        aligned = [a & ~3 for a in addrs]
        result = coalesce(aligned, 4)
        assert result.unique_lines <= len(set(a // LINE_BYTES
                                              for a in aligned))
        assert result.unique_lines == len(set(a // LINE_BYTES
                                              for a in aligned))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=32),
           st.sampled_from([1, 2, 4, 8, 16]))
    def test_coalescing_is_permutation_invariant(self, addrs, width):
        forward = coalesce(addrs, width)
        backward = coalesce(list(reversed(addrs)), width)
        assert forward.unique_lines == backward.unique_lines
        assert set(forward.line_addresses) == set(backward.line_addresses)


class TestCache:
    def test_repeat_access_hits(self):
        cache = Cache(1024, ways=2)
        assert cache.access_lines([0]) == 1
        assert cache.access_lines([0]) == 0
        assert cache.stats.hits == 1

    def test_lru_eviction(self):
        cache = Cache(2 * 32, ways=2)  # one set, two ways
        cache.access_lines([0])
        cache.access_lines([32 * 1])   # same set? with 1 set, every line maps there
        cache.access_lines([32 * 2])   # evicts line 0
        assert cache.access_lines([0]) == 1
        assert cache.stats.evictions >= 1

    def test_miss_forwards_to_next_level(self):
        l1 = cache_model.kepler_hierarchy()
        l1.access_lines([0])
        assert l1.next_level.stats.accesses == 1
        l1.access_lines([0])
        assert l1.next_level.stats.accesses == 1  # L1 hit absorbs

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache(100, ways=3)
        for kwargs in ({"size_bytes": 0}, {"size_bytes": -1024},
                       {"size_bytes": 1024, "ways": 0},
                       {"size_bytes": 1024, "line_bytes": 0}):
            param = [key for key, value in kwargs.items() if value <= 0][0]
            with pytest.raises(ValueError, match=param):
                Cache(**kwargs)

    def test_reset(self):
        cache = Cache(1024)
        cache.access_lines([0])
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.access_lines([0]) == 1


class TestWarpStack:
    def make_warp(self):
        return Warp(0, 8, 32, np.arange(32))

    def full(self):
        return np.ones(32, dtype=bool)

    def half(self):
        mask = np.zeros(32, dtype=bool)
        mask[:16] = True
        return mask

    def test_uniform_branch_no_push(self):
        warp = self.make_warp()
        warp.branch(self.full(), 10)
        assert warp.pc == 10 and warp.stack_depth == 0

    def test_divergent_branch_pushes_div(self):
        warp = self.make_warp()
        warp.branch(self.half(), 10)
        assert warp.pc == 10
        assert warp.stack_depth == 1
        assert warp.stack[0].kind is TokenKind.DIV
        assert (warp.active == self.half()).all()

    def test_sync_resumes_other_side_then_reconverges(self):
        warp = self.make_warp()
        warp.push_sync(20)
        warp.branch(self.half(), 10)
        warp.pc = 20
        warp.sync()                       # pops DIV: other half resumes
        assert warp.pc == 1               # fallthrough of the branch at pc 0
        assert (warp.active == ~self.half()).all()
        warp.pc = 20
        warp.sync()                       # pops SSY: full mask restored
        assert warp.active.all()
        assert warp.pc == 21

    def test_brk_parks_and_releases(self):
        warp = self.make_warp()
        warp.push_brk(50)
        warp.brk(self.half())
        assert (warp.active == ~self.half()).all()
        warp.brk(~self.half())
        assert warp.active.all()
        assert warp.pc == 50

    def test_brk_scrubs_tokens_above(self):
        warp = self.make_warp()
        warp.push_brk(50)
        warp.push_sync(30)               # an if inside the loop
        breaking = self.half()
        warp.brk(breaking)
        assert not (warp.stack[1].mask & breaking).any()
        assert (warp.stack[0].mask == breaking).all()

    def test_exit_retires_lanes_everywhere(self):
        warp = self.make_warp()
        warp.push_sync(30)
        exiting = self.half()
        warp.exit_lanes(exiting)
        assert not (warp.stack[0].mask & exiting).any()
        warp.exit_lanes(warp.active.copy())
        assert warp.done

    def test_brk_without_pbk_faults(self):
        warp = self.make_warp()
        with pytest.raises(DeviceFault):
            warp.brk(self.full())

    def test_sync_on_empty_stack_faults(self):
        warp = self.make_warp()
        with pytest.raises(DeviceFault):
            warp.sync()


class TestLaneIO:
    """The warp-vectorized ndarray view API (read_lanes/write_lanes)."""

    def test_read_lanes_matches_scalar_reads(self):
        mem = Memory(1024)
        rng = np.random.default_rng(3)
        mem.data[:] = rng.integers(0, 256, 1024, dtype=np.uint8)
        for width in (4, 8, 16):
            offsets = rng.integers(0, 1024 - width, 32).astype(np.int64)
            words = mem.read_lanes(offsets, width)
            assert words.shape == (32, width // 4)
            for lane, offset in enumerate(offsets):
                raw = mem.read(int(offset), width)
                for word in range(width // 4):
                    assert words[lane, word] == (raw >> (32 * word)) \
                        & 0xFFFFFFFF

    def test_write_lanes_roundtrip(self):
        mem = Memory(4096)
        rng = np.random.default_rng(4)
        for width in (4, 8, 16):
            offsets = (np.arange(32, dtype=np.int64) * width) + 64
            words = rng.integers(0, 1 << 32, (32, width // 4),
                                 dtype=np.uint64).astype(np.uint32)
            mem.write_lanes(offsets, width, words)
            assert np.array_equal(mem.read_lanes(offsets, width), words)
            for lane, offset in enumerate(offsets):   # scalar agreement
                raw = mem.read(int(offset), width)
                for word in range(width // 4):
                    assert (raw >> (32 * word)) & 0xFFFFFFFF \
                        == words[lane, word]

    def test_narrow_and_broadcast_lanes(self):
        mem = Memory(4096)
        offsets = np.arange(32, dtype=np.int64) * 3 + 64
        values = np.arange(32, dtype=np.uint32) * 0x01010101 + 0x80
        mem.write_lanes(offsets, 2, values.reshape(-1, 1))
        for dtype, width, signed in ((np.int8, 1, True), ("<u2", 2, False)):
            got = mem.read_lanes(offsets, width, dtype)[:, 0]
            for lane, offset in enumerate(offsets):
                raw = mem.read(int(offset), width)
                if signed and raw >> (8 * width - 1):
                    raw -= 1 << (8 * width)
                assert got[lane] == raw
        mem.write_lanes(offsets, 2, np.array([0xBEEF, 0], dtype=np.uint32))
        assert all(mem.read(int(offset), 2) == 0xBEEF for offset in offsets)

    def test_out_of_bounds_fault_text(self):
        mem = Memory(256, name="global")
        with pytest.raises(DeviceFault, match=r"^global: access of 4 bytes "
                           r"at 0xfe outside \[0, 0x100\)$"):
            mem.read(0xFE, 4)
        assert str(mem.out_of_bounds(-8, 2)) == \
            "global: access of 2 bytes at 0x-8 outside [0, 0x100)"


class TestCoalesceEquivalence:
    """The vectorized coalescer must agree with the scalar reference
    walk bit-exactly — including line ordering, which feeds the cache
    models and the binary trace bytes."""

    @given(addrs=st.lists(st.integers(0, 1 << 33), min_size=1,
                          max_size=32),
           width=st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_reference(self, addrs, width):
        from repro.sim.coalescer import _coalesce_scalar

        arr = np.asarray(addrs, dtype=np.uint64)
        assert coalesce(arr, width) == _coalesce_scalar(arr, width)

    def test_straddle_orders_both_lines(self):
        addrs = [LINE_BYTES - 2, 5 * LINE_BYTES]
        result = coalesce(addrs, 4)
        assert result.line_addresses == (0, LINE_BYTES, 5 * LINE_BYTES)

    def test_first_occurrence_order_preserved(self):
        addrs = [3 * LINE_BYTES, LINE_BYTES, 3 * LINE_BYTES + 4, 0]
        result = coalesce(addrs, 4)
        assert result.line_addresses == (3 * LINE_BYTES, LINE_BYTES, 0)


def _recency(cache):
    """Each set's tags, least recently used first."""
    return {index: list(ways) for index, ways in cache._sets.items()}


class TestAccessLinesEquivalence:
    """Batched Cache.access_lines == the one-at-a-time access loop:
    same miss count, same hit/miss/eviction stats, same LRU state, and
    identical next-level forwarding."""

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(9)
        batched = kepler_hierarchy()
        scalar = kepler_hierarchy()
        for _ in range(20):
            lines = (rng.integers(0, 3000, rng.integers(1, 40))
                     * LINE_BYTES).tolist()
            misses = batched.access_lines(lines)
            assert misses == sum(not scalar.access(a) for a in lines)
        for a, b in ((batched, scalar),
                     (batched.next_level, scalar.next_level)):
            assert a.stats == b.stats
            assert _recency(a) == _recency(b)

    def test_flushes_match_invalidating_between_calls(self):
        rng = np.random.default_rng(5)
        batched = kepler_hierarchy()
        split = kepler_hierarchy()
        segments = [(rng.integers(0, 3000, rng.integers(0, 40))
                     * LINE_BYTES).tolist() for _ in range(8)]
        grades: list = []
        misses = batched.access_lines(
            [line for segment in segments for line in segment], grades,
            flushes=np.cumsum([0] + [len(s) for s in segments[:-1]]
                              ).tolist())
        want: list = []
        want_misses = 0
        for segment in segments:
            split.invalidate()
            want_misses += split.access_lines(segment, want)
        assert (misses, grades) == (want_misses, want)
        for a, b in ((batched, split),
                     (batched.next_level, split.next_level)):
            assert a.stats == b.stats
            assert _recency(a) == _recency(b)

    def test_empty_and_ndarray_inputs(self):
        cache = Cache(1024, ways=2)
        assert cache.access_lines([]) == 0
        assert cache.access_lines(np.array([], dtype=np.int64)) == 0
        arr = np.array([0, 32, 0, 64], dtype=np.int64)
        assert cache.access_lines(arr) == 3
        assert cache.stats.hits == 1
