"""ShardedQueue admission, placement, and accounting."""

from __future__ import annotations

import pytest

from repro.server.queue import AdmissionError, ShardedQueue

pytestmark = pytest.mark.noskip


class TestAdmission:
    def test_bounded_rejects_at_depth(self):
        q = ShardedQueue(shards=1, depth=3)
        for i in range(3):
            q.try_submit(i)
        with pytest.raises(AdmissionError) as info:
            q.try_submit(99)
        assert info.value.retry_after > 0
        assert q.queued() == 3

    def test_rejection_counted(self):
        q = ShardedQueue(shards=1, depth=1)
        q.try_submit("a")
        for _ in range(4):
            with pytest.raises(AdmissionError):
                q.try_submit("b")
        assert q.stats()["rejected"] == 4
        assert q.stats()["submitted"] == 1

    def test_capacity_is_shards_times_depth(self):
        q = ShardedQueue(shards=3, depth=2)
        for i in range(6):
            q.try_submit(i)
        with pytest.raises(AdmissionError):
            q.try_submit(6)

    def test_pop_frees_capacity(self):
        q = ShardedQueue(shards=1, depth=1)
        q.try_submit("a")
        assert q.pop(0) == "a"
        q.try_submit("b")  # no raise

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ShardedQueue(shards=0)
        with pytest.raises(ValueError):
            ShardedQueue(depth=0)


class TestPlacement:
    def test_least_loaded_wins(self):
        q = ShardedQueue(shards=2, depth=8)
        s0 = q.try_submit("a")
        q.pop(s0)  # shard s0 now empty again
        q.try_submit("b")
        q.try_submit("c")
        # never two-deep on one shard while the other is empty
        assert q.queued(0) <= 1 and q.queued(1) <= 1

    def test_round_robin_on_ties(self):
        q = ShardedQueue(shards=4, depth=8)
        shards = [q.try_submit(i) for i in range(4)]
        assert sorted(shards) == [0, 1, 2, 3]

    def test_fifo_within_shard(self):
        q = ShardedQueue(shards=1, depth=8)
        for item in ("a", "b", "c"):
            q.try_submit(item)
        assert [q.pop(0) for _ in range(3)] == ["a", "b", "c"]

    def test_pop_empty_returns_none(self):
        q = ShardedQueue(shards=1, depth=8)
        assert q.pop(0) is None


class TestAccounting:
    def test_remove_withdraws_queued_item(self):
        q = ShardedQueue(shards=1, depth=8)
        shard = q.try_submit("a")
        assert q.remove(shard, "a") is True
        assert q.remove(shard, "a") is False
        assert q.queued() == 0

    def test_stats_shape(self):
        q = ShardedQueue(shards=2, depth=4)
        q.try_submit("a")
        q.note_completed(0)
        q.note_failed(1)
        q.note_cancelled(0)
        stats = q.stats()
        assert stats["shards"] == 2 and stats["depth"] == 4
        assert stats["completed"] == 1
        assert stats["failed"] == 1
        assert stats["cancelled"] == 1
        assert len(stats["per_shard"]) == 2
