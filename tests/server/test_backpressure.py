"""Admission control: a bounded queue of N takes N+1 jobs (one running,
N queued), rejects exactly k over-submissions with retry-after, and
loses or duplicates nothing."""

from __future__ import annotations

import time

import pytest

from repro.server.client import AdmissionRejected, ServerClient
from repro.server.service import ServerConfig, start_in_thread

pytestmark = pytest.mark.noskip

DEPTH = 3
OVERFLOW = 4  # the k in "N+k submissions -> exactly k rejections"


@pytest.fixture()
def tight_server():
    handle = start_in_thread(ServerConfig(
        shards=1, workers=1, queue_depth=DEPTH))
    yield handle
    handle.stop()


def _await_running(client, job_id, deadline=30.0):
    end = time.time() + deadline
    while client.status(job_id)["state"] == "queued":
        assert time.time() < end, f"{job_id} never started"
        time.sleep(0.01)


class TestBackpressure:
    def test_exactly_k_rejections_nothing_lost(self, tight_server):
        client = ServerClient(*tight_server.address)

        # occupy the single worker lane with a slow job...
        running = client.submit("bench", spin_ms=1500, tag="running")
        _await_running(client, running)

        # ...fill the queue to its bound...
        queued = [client.submit("bench", spin_ms=1, tag=f"q{i}")
                  for i in range(DEPTH)]

        # ...and the next k submissions all bounce with retry hints.
        rejections = 0
        for i in range(OVERFLOW):
            with pytest.raises(AdmissionRejected) as info:
                client.submit("bench", spin_ms=1, tag=f"over{i}")
            assert info.value.retry_after > 0
            rejections += 1
        assert rejections == OVERFLOW

        # every admitted job completes exactly once, none vanish
        tags = []
        for job_id in [running] + queued:
            record = client.wait(job_id)
            assert record["state"] == "done"
            tags.append(record["result"]["tag"])
        assert sorted(tags) == sorted(["running"]
                                      + [f"q{i}" for i in range(DEPTH)])

        stats = client.stats()["queue"]
        assert stats["rejected"] == OVERFLOW
        assert stats["submitted"] == 1 + DEPTH
        assert stats["completed"] == 1 + DEPTH

    def test_capacity_recovers_after_drain(self, tight_server):
        client = ServerClient(*tight_server.address)
        running = client.submit("bench", spin_ms=400, tag="slow")
        _await_running(client, running)
        queued = [client.submit("bench", spin_ms=1) for _ in range(DEPTH)]
        with pytest.raises(AdmissionRejected):
            client.submit("bench", spin_ms=1)
        for job_id in [running] + queued:
            client.wait(job_id)
        # the lane drained; admission opens again
        record = client.submit_and_wait("bench", spin_ms=0, tag="later")
        assert record["result"]["tag"] == "later"

    def test_submit_and_wait_retries_through_backpressure(
            self, tight_server):
        client = ServerClient(*tight_server.address)
        running = client.submit("bench", spin_ms=600, tag="slow")
        _await_running(client, running)
        for _ in range(DEPTH):
            client.submit("bench", spin_ms=1)
        # the queue is full NOW, but the retry loop lands it eventually
        record = client.submit_and_wait("bench", spin_ms=1, tag="patient")
        assert record["result"]["tag"] == "patient"
        assert client.stats()["queue"]["rejected"] >= 1
