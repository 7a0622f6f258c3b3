"""End-to-end service behaviour over the NDJSON wire.

One module-scoped server (2 shards x 2 workers) backs most tests; the
jobs used here are cheap (bench, small captures/replays) so the suite
stays fast.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.server.client import JobFailed, ServerClient, ServerError
from repro.server.service import ServerConfig, start_in_thread

pytestmark = pytest.mark.noskip


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    handle = start_in_thread(ServerConfig(
        shards=2, workers=2, queue_depth=8,
        artifact_dir=str(tmp_path_factory.mktemp("artifacts"))))
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    host, port = server.address
    return ServerClient(host, port)


class TestBasics:
    def test_ping(self, client):
        assert client.ping()["pong"] is True

    def test_bench_roundtrip(self, client):
        record = client.submit_and_wait("bench", spin_ms=1, tag="x")
        assert record["state"] == "done"
        assert record["result"]["tag"] == "x"

    def test_status_transitions_to_done(self, client):
        job_id = client.submit("bench", spin_ms=1)
        record = client.wait(job_id)
        assert record["job_id"] == job_id
        assert client.status(job_id)["state"] == "done"

    def test_event_stream_ordered_and_terminal_last(self, client):
        job_id = client.submit("bench", spin_ms=1)
        client.wait(job_id)
        events = client.collect(job_id)
        names = [e["event"] for e in events]
        assert names[0] == "running"
        assert names[-1] == "result"
        assert "progress" in names

    def test_per_task_progress_events(self, client):
        record = client.submit_and_wait(
            "campaign", workload="vectoradd", injections=3, seed=5)
        events = client.collect(record["job_id"])
        progress = [e for e in events if e["event"] == "progress"]
        assert [e["task"] for e in progress] == [0, 1, 2]
        assert all(e["of"] == 3 for e in progress)

    def test_unknown_job_errors(self, client):
        with pytest.raises(ServerError, match="unknown job"):
            client.status("j9999")

    def test_bad_job_rejected_with_400(self, client):
        with pytest.raises(ServerError, match="unknown workload"):
            client.submit("campaign", workload="nope")

    def test_stats_counts_completions(self, client):
        before = client.stats()["queue"]["completed"]
        client.submit_and_wait("bench", spin_ms=0)
        assert client.stats()["queue"]["completed"] == before + 1


class TestArtifacts:
    def test_capture_then_replay_via_artifact_id(self, client):
        captured = client.submit_and_wait("capture",
                                          workload="vectoradd")
        assert captured["result"]["verified"] is True
        replayed = client.submit_and_wait(
            "replay", artifact=captured["job_id"],
            analyses=["opcodes", "timing"])
        analyses = replayed["result"]["analyses"]
        assert [a["analysis"] for a in analyses] == ["opcodes",
                                                     "timing"]
        assert analyses[1]["data"]["total_cycles"] > 0

    def test_unknown_artifact_rejected(self, client):
        with pytest.raises(ServerError, match="unknown artifact"):
            client.submit("replay", artifact="j4242",
                          analyses=["opcodes"])


class TestCancellation:
    def test_cancel_running_job(self, client):
        # a many-task bench job gives the cancel a window mid-stream
        job_id = client.submit("campaign", workload="vectoradd",
                               injections=12, seed=9)
        deadline = time.time() + 30
        while client.status(job_id)["state"] == "queued":
            assert time.time() < deadline
            time.sleep(0.01)
        client.cancel(job_id)
        with pytest.raises(JobFailed, match="cancelled"):
            client.wait(job_id)
        deadline = time.time() + 30
        while client.status(job_id)["state"] != "cancelled":
            assert time.time() < deadline
            time.sleep(0.01)

    def test_cancel_finished_job_is_noop(self, client):
        record = client.submit_and_wait("bench", spin_ms=0)
        response = client.cancel(record["job_id"])
        assert response["ok"] is True
        assert response["state"] == "done"

    def test_cancel_unknown_job(self, client):
        with pytest.raises(ServerError, match="unknown job"):
            client.cancel("j8888")


class TestTenancy:
    def test_tenant_travels_to_record(self, server):
        host, port = server.address
        acme = ServerClient(host, port, tenant="acme")
        record = acme.submit_and_wait("bench", spin_ms=0)
        assert record["tenant"] == "acme"
        assert record["manifest"]["cache_namespace"] == "tenant:acme"

    def test_shared_cache_namespace(self, server):
        host, port = server.address
        sharer = ServerClient(host, port, tenant="acme",
                              share_cache=True)
        record = sharer.submit_and_wait("bench", spin_ms=0)
        assert record["manifest"]["cache_namespace"] == "shared"


class TestFailureDelivery:
    def test_worker_failure_reaches_client(self, client):
        # a replay against a nonexistent trace fails inside the worker
        with pytest.raises(JobFailed):
            client.submit_and_wait("replay", trace="/nonexistent.rptrace",
                                   analyses=["opcodes"])

    def test_malformed_record_fails_the_job_with_its_launch(self, client,
                                                            tmp_path):
        from repro.isa.opcodes import Opcode
        from repro.trace.format import (
            MEM_FLAG_LOAD, InstrEvent, KernelEndEvent, LaunchEvent,
            MemEvent)
        from repro.trace.io import TraceWriter

        path = str(tmp_path / "bad.rptrace")
        with TraceWriter(path) as writer:
            writer.write_batch([
                LaunchEvent(kernel="kern", grid=(1, 1, 1),
                            block=(32, 1, 1), launch_index=0),
                InstrEvent(ins_addr=0x10, opcode=Opcode.LDG.value,
                           lanes=32, width=4),
                MemEvent(ins_addr=0x10, flags=MEM_FLAG_LOAD, width=4,
                         active_lanes=33, line_addresses=(0x1000,)),
                KernelEndEvent(warp_instructions=1)])
        with pytest.raises(JobFailed) as exc:
            client.submit_and_wait("replay", trace=path,
                                   analyses=["opcodes", "memdiv"])
        assert str(exc.value).endswith(
            "TraceFormatError: launch 0 (kern): MEM record has 33 active "
            "lanes")
        # the shard keeps serving
        assert client.submit_and_wait("bench", spin_ms=0)["state"] == "done"

    def test_failed_job_counted(self, client):
        before = client.stats()["queue"]["failed"]
        with pytest.raises(JobFailed):
            client.submit_and_wait("replay", trace="/nonexistent.rptrace",
                                   analyses=["opcodes"])
        assert client.stats()["queue"]["failed"] == before + 1


class TestWorkerCrash:
    """A worker killed mid-job fails that job only: the shard's pool is
    respawned and the next job on the same shard completes."""

    def test_shard_recovers_after_sigkill(self, tmp_path):
        handle = start_in_thread(ServerConfig(
            shards=1, workers=1, queue_depth=4,
            artifact_dir=str(tmp_path)))
        try:
            client = ServerClient(*handle.address)
            job_id = client.submit("bench", spin_ms=20_000)
            pool = handle.server._pools[0]
            deadline = time.monotonic() + 30
            while not pool._processes or \
                    client.status(job_id)["state"] != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.05)
            for pid in list(pool._processes):
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(JobFailed, match="BrokenProcessPool"):
                client.wait(job_id)
            assert client.status(job_id)["state"] == "failed"

            record = client.submit_and_wait("bench", spin_ms=0, tag="after")
            assert record["state"] == "done"
            assert record["result"]["tag"] == "after"
            assert client.stats()["worker_crashes"] == 1
        finally:
            handle.stop()


class TestArtifactDirectory:
    """A server started without ``artifact_dir`` removes the directory it
    made for itself when it stops; a configured one is left alone."""

    def test_own_directory_removed_at_stop(self):
        handle = start_in_thread(ServerConfig(shards=1, workers=1))
        directory = handle.server.artifact_dir
        try:
            assert os.path.basename(directory).startswith("repro-server-")
            with open(os.path.join(directory, "k0.rptrace"), "wb") as out:
                out.write(b"left by a capture job")
        finally:
            handle.stop()
        assert not handle.thread.is_alive()
        assert not os.path.exists(directory)

    def test_configured_directory_kept(self, tmp_path):
        kept = tmp_path / "k0.rptrace"
        kept.write_bytes(b"a user's artifact")
        handle = start_in_thread(ServerConfig(
            shards=1, workers=1, artifact_dir=str(tmp_path)))
        handle.stop()
        assert not handle.thread.is_alive()
        assert kept.read_bytes() == b"a user's artifact"
