"""The headline determinism guarantee, as a differential test.

A campaign job and a multi-analysis replay job (two distinct job
kinds) are executed locally at 1 and 4 workers and through servers at
1, 4, and 8 workers; the merged result — KernelStats, telemetry
counter totals, and the full canonical result bytes — must be
byte-identical across all five executions.
"""

from __future__ import annotations

import pytest

from repro.server.client import ServerClient
from repro.server.jobs import canonical_result_bytes, run_job_local
from repro.server.service import ServerConfig, start_in_thread

pytestmark = pytest.mark.noskip

WORKER_COUNTS = (1, 4, 8)

CAMPAIGN_JOB = {"kind": "campaign",
                "payload": {"workload": "vectoradd", "injections": 6,
                            "seed": 2015}}


def _server_record(workers: int, kind: str, payload: dict) -> dict:
    handle = start_in_thread(ServerConfig(workers=workers,
                                          queue_depth=4))
    try:
        client = ServerClient(*handle.address)
        return client.submit_and_wait(kind, dict(payload))
    finally:
        handle.stop()


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    record = run_job_local({"kind": "capture",
                            "payload": {"workload": "vectoradd"}},
                           artifact_dir=str(
                               tmp_path_factory.mktemp("traces")),
                           job_id="jdiff")
    assert record["result"]["verified"] is True
    return record["artifact_path"]


class TestCampaignDifferential:
    def test_sharded_matches_local_bytes(self):
        executions = {
            "local-1": run_job_local(CAMPAIGN_JOB, jobs=1),
            "local-4": run_job_local(CAMPAIGN_JOB, jobs=4),
        }
        for workers in WORKER_COUNTS:
            executions[f"server-{workers}"] = _server_record(
                workers, "campaign", CAMPAIGN_JOB["payload"])

        reference = canonical_result_bytes(executions["local-1"])
        for name, record in executions.items():
            assert canonical_result_bytes(record) == reference, \
                f"{name} diverged from local-1"

        # the bytes cover what the issue demands: merged KernelStats,
        # per-trial records, and deterministic telemetry counter totals
        result = executions["local-1"]["result"]
        assert result["kernel_stats"]["warp_instructions"] > 0
        assert len(result["records"]) == 6
        assert result["counters"]


class TestReplayDifferential:
    def test_sharded_matches_local_bytes(self, trace_path):
        payload = {"trace": trace_path,
                   "analyses": ["cachesim", "opcodes", "timing"],
                   "policy": "gto"}
        job = {"kind": "replay", "payload": payload}
        executions = {
            "local-1": run_job_local(job, jobs=1),
            "local-4": run_job_local(job, jobs=4),
        }
        for workers in WORKER_COUNTS:
            executions[f"server-{workers}"] = _server_record(
                workers, "replay", payload)

        reference = canonical_result_bytes(executions["local-1"])
        for name, record in executions.items():
            assert canonical_result_bytes(record) == reference, \
                f"{name} diverged from local-1"
        timing = executions["local-1"]["result"]["analyses"][-1]
        assert timing["data"]["total_cycles"] > 0
