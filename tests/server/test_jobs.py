"""Job validation, task expansion, and local-run determinism."""

from __future__ import annotations

import pytest

from repro.server.jobs import (
    JOB_KINDS,
    JobError,
    JobSpec,
    canonical_result_bytes,
    deterministic_counters,
    job_tasks,
    run_job_local,
    validate_job,
)

pytestmark = pytest.mark.noskip


def spec(kind, **payload):
    return JobSpec(kind=kind, payload=payload)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="unknown job kind"):
            validate_job(spec("mine-bitcoin"))

    def test_campaign_defaults_filled(self):
        out = validate_job(spec("campaign", workload="vectoradd"))
        assert out.payload["injections"] == 8
        assert out.payload["seed"] == 2015
        assert out.payload["use_cache"] is True

    def test_campaign_unknown_workload(self):
        with pytest.raises(JobError, match="unknown workload"):
            validate_job(spec("campaign", workload="nope"))

    def test_campaign_bad_injections(self):
        with pytest.raises(JobError, match="injections"):
            validate_job(spec("campaign", workload="vectoradd",
                              injections=0))

    def test_replay_needs_trace_or_artifact(self):
        with pytest.raises(JobError, match="exactly one"):
            validate_job(spec("replay"))
        with pytest.raises(JobError, match="exactly one"):
            validate_job(spec("replay", trace="a", artifact="b"))

    def test_replay_unknown_analysis(self):
        with pytest.raises(JobError, match="unknown analysis"):
            validate_job(spec("replay", trace="x.rptrace",
                              analyses=["astrology"]))

    def test_replay_timing_is_registered(self):
        out = validate_job(spec("replay", trace="x.rptrace",
                                analyses="timing,opcodes"))
        assert out.payload["analyses"] == ["timing", "opcodes"]

    def test_replay_bad_policy(self):
        with pytest.raises(JobError, match="policy"):
            validate_job(spec("replay", trace="x.rptrace", policy="fifo"))

    def test_study_unknown(self):
        with pytest.raises(JobError, match="unknown study"):
            validate_job(spec("study", which="figure99"))

    def test_tenant_must_be_nonempty(self):
        with pytest.raises(JobError, match="tenant"):
            JobSpec.from_dict({"kind": "bench", "tenant": ""})

    def test_from_dict_roundtrip(self):
        raw = {"kind": "bench", "payload": {"spin_ms": 1},
               "tenant": "acme", "share_cache": True}
        out = JobSpec.from_dict(raw)
        assert out.tenant == "acme"
        assert out.share_cache is True
        assert out.to_dict()["payload"] == {"spin_ms": 1}

    def test_all_kinds_validate_something(self):
        # every advertised kind is wired into the validator
        for kind in JOB_KINDS:
            with pytest.raises(JobError):
                validate_job(spec(kind, workload="nope", which="nope",
                                  spin_ms=-1))


class TestTaskExpansion:
    def test_campaign_one_task_per_trial(self):
        out = validate_job(spec("campaign", workload="vectoradd",
                                injections=5, seed=7))
        tasks = job_tasks(out)
        assert len(tasks) == 5
        assert tasks[2] == ("campaign-trial", "vectoradd", 7, 2,
                            "tenant:default", True)

    def test_campaign_namespace_follows_tenant(self):
        out = validate_job(JobSpec("campaign",
                                   {"workload": "vectoradd"},
                                   tenant="acme"))
        assert job_tasks(out)[0][4] == "tenant:acme"

    def test_replay_one_task_for_all_analyses(self):
        out = validate_job(spec("replay", trace="t.rptrace",
                                analyses=["opcodes", "timing"],
                                policy="lrr"))
        tasks = job_tasks(out)
        assert tasks == [("replay", "t.rptrace", ("opcodes", "timing"),
                          "lrr")]

    def test_capture_path_under_artifact_dir(self, tmp_path):
        out = validate_job(spec("capture", workload="vectoradd"))
        (task,) = job_tasks(out, artifact_dir=str(tmp_path),
                            job_id="j0042")
        assert task[2].startswith(str(tmp_path))
        assert "j0042" in task[2]
        assert task[2].endswith(".rptrace")


class TestDeterministicCounters:
    def test_cache_counters_filtered(self):
        counters = {"exec.warp_instructions": 10,
                    "compile_cache.hits": 3,
                    "compile_cache.misses": 1}
        assert deterministic_counters(counters) == {
            "exec.warp_instructions": 10}

    def test_replay_wall_time_counters_filtered(self):
        counters = {"trace.replay.events": 7,
                    "trace.replay.decode_ns": 1234,
                    "trace.replay.analyze_ns": 5678}
        assert deterministic_counters(counters) == {
            "trace.replay.events": 7}


class TestRunJobLocal:
    def test_bench_job(self):
        record = run_job_local({"kind": "bench",
                                "payload": {"spin_ms": 0, "tag": "t"}})
        assert record["state"] == "done"
        assert record["result"]["tag"] == "t"
        assert canonical_result_bytes(record).startswith(b"{")

    def test_campaign_serial_vs_parallel_bytes(self):
        job = {"kind": "campaign",
               "payload": {"workload": "vectoradd", "injections": 4,
                           "seed": 11}}
        serial = run_job_local(job, jobs=1)
        parallel = run_job_local(job, jobs=2)
        assert canonical_result_bytes(serial) \
            == canonical_result_bytes(parallel)
        assert serial["result"]["outcomes"]
        assert len(serial["result"]["records"]) == 4
        assert serial["result"]["kernel_stats"]["warp_instructions"] > 0
        # canonical counters must carry real work but no cache noise
        counters = serial["result"]["counters"]
        assert counters and not any(k.startswith("compile_cache.")
                                    for k in counters)

    def test_capture_then_replay(self, tmp_path):
        captured = run_job_local({"kind": "capture",
                                  "payload": {"workload": "vectoradd"}},
                                 artifact_dir=str(tmp_path),
                                 job_id="jcap")
        assert captured["result"]["verified"] is True
        assert captured["result"]["total_events"] > 0
        path = captured["artifact_path"]
        replayed = run_job_local({"kind": "replay",
                                  "payload": {"trace": path,
                                              "analyses": ["opcodes",
                                                           "timing"]}})
        analyses = replayed["result"]["analyses"]
        assert [a["analysis"] for a in analyses] == ["opcodes", "timing"]
        assert analyses[1]["data"]["total_cycles"] > 0

    def test_replay_parallel_bytes_match(self, tmp_path):
        captured = run_job_local({"kind": "capture",
                                  "payload": {"workload": "vectoradd"}},
                                 artifact_dir=str(tmp_path),
                                 job_id="jcap2")
        job = {"kind": "replay",
               "payload": {"trace": captured["artifact_path"],
                           "analyses": ["cachesim", "opcodes",
                                        "timing"]}}
        assert canonical_result_bytes(run_job_local(job, jobs=1)) \
            == canonical_result_bytes(run_job_local(job, jobs=3))

    def test_telemetry_travels_outside_result(self):
        record = run_job_local({"kind": "campaign",
                                "payload": {"workload": "vectoradd",
                                            "injections": 2}})
        assert "wall_seconds" in record
        assert "manifest" in record
        assert record["telemetry"]["counters"]
        # volatile fields stay out of the canonical bytes
        blob = canonical_result_bytes(record)
        assert b"wall_seconds" not in blob
