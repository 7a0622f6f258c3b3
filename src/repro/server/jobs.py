"""Job kinds for the profiling service — and their determinism contract.

Every downstream capability is a *job kind* on one queue: campaign runs
(``campaign``), trace capture (``capture``), replay analyses including
``timing`` (``replay``), paper studies (``study``), and a tiny
``bench`` kind used to load-test the serving layer itself.

A job expands into engine-style picklable task tuples
(:func:`job_tasks`), a module-level runner executes one task in a
worker process (:func:`run_job_task`), and :func:`merge_pieces` folds
the pieces **in task order** with order-independent operations — the
same design rules that make ``repro.campaign`` campaigns bit-identical
between serial and ``--jobs N`` runs.  Consequently a job's *canonical
result bytes* (:func:`canonical_result_bytes`) are identical whether it
ran locally (:func:`run_job_local`), on a 1-worker server shard, or
fanned across many workers; the differential suite pins that down.

Two deliberate exclusions keep the bytes stable:

* per-worker warm-up (a campaign worker's golden run + event-count
  profile) happens *before* the task's telemetry mark, so counter
  totals do not depend on how many workers the pool happened to touch;
* ``compile_cache.*`` counters are filtered out of the canonical
  result (:func:`deterministic_counters`) — cache locality is a
  scheduling detail, not a result.  The full, unfiltered counters are
  still shipped in the record's ``telemetry`` block for observability.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.engine import merge_kernel_stats, run_tasks
from repro.server.tenancy import DEFAULT_TENANT, namespaced_cache, \
    tenant_namespace
from repro.sim.executor import KernelStats
from repro.telemetry.collector import TELEMETRY

#: every job kind the queue accepts
JOB_KINDS = ("campaign", "capture", "replay", "study", "bench")

#: counter prefixes excluded from canonical result bytes (worker-local
#: cache warmth varies with pool size, and replay's decode/analyze
#: nanoseconds are wall time; everything else must not vary)
VOLATILE_COUNTER_PREFIXES = ("compile_cache.", "trace.replay.decode_ns",
                             "trace.replay.analyze_ns")


class JobError(ValueError):
    """A request the service rejects up front (bad kind, unknown
    workload, malformed payload) — the 400, not the 429."""


@dataclass(frozen=True)
class JobSpec:
    """One validated job: what to run, for whom, against which cache."""

    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    tenant: str = DEFAULT_TENANT
    share_cache: bool = False

    @property
    def cache_namespace(self) -> str:
        return tenant_namespace(self.tenant, self.share_cache)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "payload": dict(self.payload),
                "tenant": self.tenant, "share_cache": self.share_cache}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "JobSpec":
        if not isinstance(raw, dict):
            raise JobError("job must be an object")
        payload = raw.get("payload", {})
        if not isinstance(payload, dict):
            raise JobError("job payload must be an object")
        tenant = raw.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant:
            raise JobError("tenant must be a non-empty string")
        return cls(kind=str(raw.get("kind", "")), payload=dict(payload),
                   tenant=tenant,
                   share_cache=bool(raw.get("share_cache", False)))


# ------------------------------------------------------------ validation

def _known_workload(name: Any) -> str:
    from repro.workloads import all_names

    if not isinstance(name, str) or not name:
        raise JobError("payload needs a 'workload' name")
    if name not in all_names():
        raise JobError(f"unknown workload {name!r}")
    return name


def _registered_analyses() -> Dict[str, Any]:
    # importing the timing module registers the "timing" analysis
    import repro.trace.timing  # noqa: F401
    from repro.trace.replay import ANALYSES

    return ANALYSES


def _study_registry() -> Dict[str, Tuple[str, str]]:
    from repro.cli import _STUDIES

    return _STUDIES


def validate_job(spec: JobSpec) -> JobSpec:
    """Check *spec* and return a copy with payload defaults filled in.

    Raises :class:`JobError` with a user-facing message on anything the
    queue should refuse before admission.
    """
    if spec.kind not in JOB_KINDS:
        raise JobError(f"unknown job kind {spec.kind!r} "
                       f"(choose from {', '.join(JOB_KINDS)})")
    payload = dict(spec.payload)
    if spec.kind == "campaign":
        payload["workload"] = _known_workload(payload.get("workload"))
        injections = payload.get("injections", 8)
        if not isinstance(injections, int) or injections < 1:
            raise JobError("injections must be an integer >= 1")
        payload["injections"] = injections
        payload["seed"] = int(payload.get("seed", 2015))
        payload["use_cache"] = bool(payload.get("use_cache", True))
    elif spec.kind == "capture":
        payload["workload"] = _known_workload(payload.get("workload"))
        payload["all_spaces"] = bool(payload.get("all_spaces", False))
    elif spec.kind == "replay":
        trace = payload.get("trace")
        artifact = payload.get("artifact")
        if bool(trace) == bool(artifact):
            raise JobError("replay needs exactly one of 'trace' (a "
                           "server-side path) or 'artifact' (a capture "
                           "job's id)")
        analyses = payload.get("analyses") or ["cachesim", "divergence",
                                               "memdiv", "opcodes"]
        if isinstance(analyses, str):
            analyses = [a.strip() for a in analyses.split(",") if a.strip()]
        registry = _registered_analyses()
        for name in analyses:
            if name not in registry:
                raise JobError(f"unknown analysis {name!r} (choose from "
                               f"{', '.join(sorted(registry))})")
        payload["analyses"] = list(analyses)
        policy = payload.get("policy", "gto")
        if policy not in ("gto", "lrr"):
            raise JobError("policy must be 'gto' or 'lrr'")
        payload["policy"] = policy
    elif spec.kind == "study":
        which = payload.get("which")
        registry = _study_registry()
        if which not in registry:
            raise JobError(f"unknown study {which!r} (choose from "
                           f"{', '.join(sorted(registry))})")
    elif spec.kind == "bench":
        spin_ms = payload.get("spin_ms", 10)
        if not isinstance(spin_ms, (int, float)) or spin_ms < 0:
            raise JobError("spin_ms must be a number >= 0")
        payload["spin_ms"] = float(spin_ms)
        payload["tag"] = str(payload.get("tag", ""))
    return replace(spec, payload=payload)


# ------------------------------------------------------- task expansion

def job_tasks(spec: JobSpec, artifact_dir: Optional[str] = None,
              job_id: str = "local") -> List[tuple]:
    """Expand a validated *spec* into picklable task tuples.

    Campaign jobs shard one task per trial.  Replay, capture, study and
    bench jobs are one task each: a replay runs all of its analyses in
    one serial pass over the trace.
    """
    payload = spec.payload
    ns = spec.cache_namespace
    if spec.kind == "campaign":
        return [("campaign-trial", payload["workload"], payload["seed"],
                 k, ns, payload["use_cache"])
                for k in range(payload["injections"])]
    if spec.kind == "capture":
        directory = artifact_dir or tempfile.gettempdir()
        safe = "".join(c if c.isalnum() or c in "-_." else "_"
                       for c in payload["workload"])
        path = os.path.join(directory, f"{job_id}-{safe}.rptrace")
        return [("capture", payload["workload"], path,
                 payload["all_spaces"], ns)]
    if spec.kind == "replay":
        path = payload.get("trace")
        if not path:
            raise JobError(f"replay artifact {payload.get('artifact')!r} "
                           "was not resolved to a trace path")
        return [("replay", path, tuple(payload["analyses"]),
                 payload["policy"])]
    if spec.kind == "study":
        return [("study", payload["which"])]
    if spec.kind == "bench":
        return [("bench", payload["spin_ms"], payload["tag"])]
    raise JobError(f"unknown job kind {spec.kind!r}")


# ------------------------------------------------------------- runners
#
# Each runner handles one task tuple inside a worker process.  The
# campaign runner keeps a per-process memo (golden run + event-count
# profile per workload/namespace) exactly like the error-injection
# worker trampoline; the warm-up runs in the PREPARER, before the
# telemetry mark, so job counter totals are pool-size-invariant.

class _StatsCollector:
    """Collects each trial's per-launch KernelStats via the device's
    kernel-exit callback."""

    def __init__(self):
        self.parts: List[KernelStats] = []

    def attach(self, device) -> None:
        device.on_kernel_exit(self._on_exit)

    def _on_exit(self, device, kernel, stats) -> None:
        self.parts.append(stats)


_WORKER_CAMPAIGNS: Dict[tuple, tuple] = {}


def _worker_campaign(workload_name: str, ns: str, use_cache: bool):
    from repro.handlers.error_injection import ErrorInjectionCampaign
    from repro.workloads import make

    key = (workload_name, ns, use_cache)
    entry = _WORKER_CAMPAIGNS.get(key)
    if entry is None:
        collector = _StatsCollector()
        campaign = ErrorInjectionCampaign(
            make(workload_name), workload_name=workload_name,
            use_cache=use_cache,
            cache=namespaced_cache(ns) if use_cache else None,
            on_device=collector.attach)
        campaign.golden_run()
        campaign.profile()
        entry = _WORKER_CAMPAIGNS[key] = (campaign, collector)
    return entry


def _prepare_campaign_trial(task) -> None:
    _, workload_name, _seed, _index, ns, use_cache = task
    _worker_campaign(workload_name, ns, use_cache)


def _run_campaign_trial(task) -> Dict[str, Any]:
    _, workload_name, seed, index, ns, use_cache = task
    campaign, collector = _worker_campaign(workload_name, ns, use_cache)
    campaign.seed = seed
    collector.parts.clear()
    record = campaign.trial(index)
    stats = merge_kernel_stats(collector.parts, kernel=workload_name)
    return {
        "record": {
            "trial": index,
            "target_event": record.target_event,
            "outcome": record.outcome.value,
            "flipped_bit": record.flipped_bit,
            "description": record.description,
        },
        "stats": stats,
    }


def _run_capture(task) -> Dict[str, Any]:
    from repro.trace.capture import capture_workload

    _, workload_name, path, all_spaces, ns = task
    manifest, verified, wall = capture_workload(
        workload_name, path, cache=namespaced_cache(ns),
        global_only=not all_spaces)
    return {
        "path": path,
        "wall": wall,
        "verified": bool(verified),
        "total_events": manifest.total_events,
        "kind_counts": {str(k): int(v)
                        for k, v in manifest.kind_counts().items()},
        "checksum": manifest.checksum,
        "version": manifest.version,
    }


def _run_replay(task) -> Dict[str, Any]:
    from repro.trace.replay import make_analysis, replay

    _registered_analyses()
    _, path, names, policy = task
    analyses = replay(path, [
        make_analysis(name, **({"policy": policy} if name == "timing"
                               else {}))
        for name in names])
    return {"analyses": [{"analysis": name, "report": analysis.report(),
                          "data": analysis.result()}
                         for name, analysis in zip(names, analyses)]}


def _run_study(task) -> Dict[str, Any]:
    import importlib

    _, which = task
    module_name, fn_name = _study_registry()[which]
    module = importlib.import_module(module_name)
    text = getattr(module, fn_name)(jobs=1, use_cache=True)
    return {"which": which, "text": str(text)}


def _run_bench(task) -> Dict[str, Any]:
    _, spin_ms, tag = task
    if spin_ms:
        time.sleep(spin_ms / 1000.0)
    return {"tag": tag, "spin_ms": spin_ms}


_PREPARERS = {"campaign-trial": _prepare_campaign_trial}
_RUNNERS = {
    "campaign-trial": _run_campaign_trial,
    "capture": _run_capture,
    "replay": _run_replay,
    "study": _run_study,
    "bench": _run_bench,
}


def run_job_task(task: tuple) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Execute one task; returns ``(piece, telemetry_delta)``.

    Per-job telemetry scoping: the task's counter/timer deltas are
    captured between a mark and the task's end, per-worker warm-up runs
    before the mark, and spans the task created at root level are
    dropped again (a long-lived pool must not accumulate them).
    """
    prepare = _PREPARERS.get(task[0])
    if prepare is not None:
        prepare(task)
    telem = TELEMETRY
    was_enabled = telem.enabled
    telem.enable()
    mark = telem.mark()
    try:
        piece = _RUNNERS[task[0]](task)
    finally:
        snapshot = telem.delta_since(mark)
        del telem.roots[mark.root_count:]
        if not was_enabled:
            telem.disable()
    return piece, {"counters": dict(snapshot.counters),
                   "timers": dict(snapshot.timers)}


# -------------------------------------------------------------- merging

def _stats_dict(stats: KernelStats) -> Dict[str, Any]:
    return {
        "kernel": stats.kernel,
        "warp_instructions": stats.warp_instructions,
        "thread_instructions": stats.thread_instructions,
        "sassi_warp_instructions": stats.sassi_warp_instructions,
        "sassi_thread_instructions": stats.sassi_thread_instructions,
        "opcode_counts": {getattr(k, "name", str(k)): int(v)
                          for k, v in sorted(
                              stats.opcode_counts.items(),
                              key=lambda kv: getattr(kv[0], "name",
                                                     str(kv[0])))},
        "global_mem_instructions": stats.global_mem_instructions,
        "global_transactions": stats.global_transactions,
        "handler_calls": stats.handler_calls,
        "barriers": stats.barriers,
        "cycles": stats.cycles,
        "max_stack_depth": stats.max_stack_depth,
    }


def merge_task_telemetry(parts) -> Tuple[Dict[str, int], Dict[str, float]]:
    """Order-independent sum of per-task counter/timer deltas."""
    counters: Dict[str, int] = {}
    timers: Dict[str, float] = {}
    for part in parts:
        for key, value in part["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in part["timers"].items():
            timers[key] = timers.get(key, 0.0) + value
    return counters, timers


def deterministic_counters(counters: Dict[str, int]) -> Dict[str, int]:
    """Counters that belong in canonical result bytes (see module doc)."""
    return {key: value for key, value in counters.items()
            if not key.startswith(VOLATILE_COUNTER_PREFIXES)}


def merge_pieces(spec: JobSpec, pieces: List[Dict[str, Any]]
                 ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Fold task pieces (in task order) into ``(result, extra)``.

    ``result`` is the deterministic payload covered by
    :func:`canonical_result_bytes`; ``extra`` carries volatile
    companions (artifact paths, wall times) that live beside it in the
    final record.
    """
    payload = spec.payload
    if spec.kind == "campaign":
        from collections import Counter

        records = [p["record"] for p in pieces]
        stats = merge_kernel_stats([p["stats"] for p in pieces],
                                   kernel=payload["workload"])
        outcomes = Counter(r["outcome"] for r in records)
        result = {
            "workload": payload["workload"],
            "injections": payload["injections"],
            "seed": payload["seed"],
            "outcomes": {k: outcomes[k] for k in sorted(outcomes)},
            "records": records,
            "kernel_stats": _stats_dict(stats),
        }
        return result, {}
    if spec.kind == "capture":
        piece = pieces[0]
        result = {
            "workload": payload["workload"],
            "verified": piece["verified"],
            "total_events": piece["total_events"],
            "kind_counts": piece["kind_counts"],
            "checksum": piece["checksum"],
            "version": piece["version"],
        }
        return result, {"artifact_path": piece["path"],
                        "capture_wall_seconds": round(piece["wall"], 6)}
    if spec.kind == "replay":
        result = {
            "policy": payload["policy"],
            "analyses": pieces[0]["analyses"],
        }
        return result, {}
    if spec.kind == "study":
        return dict(pieces[0]), {}
    if spec.kind == "bench":
        return dict(pieces[0]), {}
    raise JobError(f"unknown job kind {spec.kind!r}")


def finish_record(spec: JobSpec, job_id: str, pieces, telemetry_parts,
                  wall: float) -> Dict[str, Any]:
    """Assemble the final (JSON-serializable) result record."""
    from repro.telemetry.manifest import run_manifest

    result, extra = merge_pieces(spec, pieces)
    counters, timers = merge_task_telemetry(telemetry_parts)
    result["counters"] = deterministic_counters(counters)
    record = {
        "event": "result",
        "job_id": job_id,
        "kind": spec.kind,
        "tenant": spec.tenant,
        "state": "done",
        "result": result,
        "telemetry": {"counters": counters,
                      "timers": {k: round(v, 6)
                                 for k, v in timers.items()}},
        "wall_seconds": round(wall, 6),
        "manifest": run_manifest(
            seed=spec.payload.get("seed"),
            extra={"job_kind": spec.kind, "tenant": spec.tenant,
                   "cache_namespace": spec.cache_namespace}),
    }
    record.update(extra)
    return record


def canonical_result_bytes(record: Dict[str, Any]) -> bytes:
    """The byte-identity surface of a finished job.

    Covers ``record["result"]`` only — job ids, manifests, wall times,
    and artifact paths are provenance, not results.
    """
    import json

    return json.dumps(record["result"], sort_keys=True,
                      separators=(",", ":")).encode()


def run_job_local(job, jobs: int = 1, artifact_dir: Optional[str] = None,
                  job_id: str = "local") -> Dict[str, Any]:
    """Run one job in this process's campaign engine (no server).

    This is the reference the sharded server is held byte-identical to:
    ``canonical_result_bytes(run_job_local(job))`` equals the server's,
    at any worker count.
    """
    spec = validate_job(job if isinstance(job, JobSpec)
                        else JobSpec.from_dict(job))
    tasks = job_tasks(spec, artifact_dir=artifact_dir, job_id=job_id)
    start = time.perf_counter()
    out = run_tasks(run_job_task, tasks, jobs=jobs)
    wall = time.perf_counter() - start
    pieces = [piece for piece, _ in out]
    telemetry_parts = [part for _, part in out]
    return finish_record(spec, job_id, pieces, telemetry_parts, wall)
