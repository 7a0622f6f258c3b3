"""``serve``: the same layers used through the job server, where writes
sit beside reads.

``repro serve`` runs as a separate process.  ``nproc`` client threads
drive it in a closed loop (each waits for its job's terminal event
before submitting the next, as ``repro submit`` callers do), each under
its own tenant, repeating one cycle: a ``capture`` job (write), a
``replay`` job with the four stock analyses on that job's artifact
(read), a ``replay`` job with ``timing``, and an error-injection
``campaign`` job.  This is the only workload that exercises the queue,
the protocol, the forkserver pools, the campaign engine and per-tenant
compile-cache hits.  Every job's result must be byte-identical
(``canonical_result_bytes``) to ``run_job_local`` of the same spec.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from harness import Context, run_checked
from ledger import (cpu_count, median, percentile, ratio,
                    tail_percentile, tree_peak_rss_mb)
from tracing import PASS, NullTracer

WORKLOAD = "rodinia/nn"
INJECTIONS = 4
#: distinct campaign seeds per run, drawn from the benchmark seed
CAMPAIGN_SEEDS = 16
STARTUP_TIMEOUT = 60.0
#: AF_UNIX socket paths (the forkserver's) are limited to 107 bytes;
#: the forkserver adds about 35 to the temp dir it is given
SOCKET_DIR_LIMIT = 70


JOB_KINDS = ("capture", "replay", "timing", "campaign")
#: The queue places a job on the least-queued shard, round robin among
#: ties, without regard to the job a shard is running.  With as many
#: shards as jobs in a cycle, one client's four submissions during the
#: other client's campaign bring the pointer back to that campaign's
#: shard, and most campaigns queued behind each other.  One shard more
#: than a cycle's jobs avoids that resonance for two clients.
SHARDS = len(JOB_KINDS) + 1


def campaign_payload(seed: int) -> Dict:
    return {"workload": WORKLOAD, "injections": INJECTIONS, "seed": seed}


def stop_group(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Wait until *proc*'s process group (the server, its forkserver
    and pool workers) is gone, killing what is left after *grace*."""
    deadline = time.monotonic() + grace
    give_up = deadline + 5.0
    while time.monotonic() < give_up:
        proc.poll()
        try:
            os.killpg(proc.pid, signal.SIGKILL
                      if time.monotonic() > deadline else 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    proc.wait()


@dataclass
class Window:
    """The cycles the clients completed, and their host intervals."""

    cycles: List[List[tuple]]
    intervals: List[tuple]


@dataclass
class JobSample:
    """One job's host perf_counter timestamps and terminal event."""

    kind: str                  # capture, replay, timing or campaign
    first: float               # first submit attempt
    submitted: float           # the accepted submit was sent
    acked: float               # ... and acknowledged
    running: float             # the "running" event arrived
    done: float                # the terminal event arrived
    rejected: int              # 429s before the submit was accepted
    record: Optional[Dict]     # the terminal event


class ServeWorkload:
    name = "serve"
    #: server start-up is short and noisy; setup_s is the median of five
    setups = 5

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.clients = cpu_count()
        self.seeds = [ctx.rng.randrange(1, 1 << 16)
                      for _ in range(CAMPAIGN_SEEDS)]
        self.references: Dict[object, bytes] = {}
        self._lock = threading.Lock()
        self._log = None

    def workload_classes(self):
        return ()

    # ------------------------------------------------------ server life

    def _environment(self) -> Dict[str, str]:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        tmp = os.path.join(self.ctx.workdir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        if len(tmp) <= SOCKET_DIR_LIMIT:
            env["TMPDIR"] = tmp
        return env

    def setup(self) -> None:
        """Start ``repro serve`` and wait until it answers a ping."""
        from repro.server.client import ServerClient

        artifacts = os.path.join(self.ctx.workdir, "artifacts")
        self._log = open(os.path.join(self.ctx.workdir, "server.log"), "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--shards", str(SHARDS), "--workers", "1",
             "--artifact-dir", artifacts],
            stdout=subprocess.PIPE, stderr=self._log,
            env=self._environment(), cwd=self.ctx.workdir,
            start_new_session=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    STARTUP_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        ServerClient("127.0.0.1", self.port).ping()

    def close(self) -> None:
        """Stop the server and every process it started."""
        from repro.server.client import ServerClient, ServerError

        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            ServerClient("127.0.0.1", self.port, timeout=10).shutdown()
            proc.wait(timeout=30)
        except (OSError, ServerError, subprocess.TimeoutExpired):
            pass
        stop_group(proc)
        proc.stdout.close()
        self._log.close()

    def extra_rss_mb(self) -> float:
        """Peak resident memory of the server and its workers."""
        return tree_peak_rss_mb(self.proc.pid) if self.proc else 0.0

    # ------------------------------------------------------ references

    def _local_references(self, campaigns: bool = True) -> None:
        """Run each job spec locally: the bytes every server result
        must equal."""
        from repro.server.jobs import canonical_result_bytes, run_job_local

        local = os.path.join(self.ctx.workdir, "local")
        os.makedirs(local, exist_ok=True)

        def reference(key, job, golden=None):
            def compute(problems):
                record = run_job_local(job, artifact_dir=local)
                data = canonical_result_bytes(record)
                if golden is not None:
                    self.ctx.refs.expect(golden, json.loads(data), problems)
                self.references[key] = data
                return record
            return run_checked(self.ctx, f"local:{key}", compute)

        capture = reference("capture", {
            "kind": "capture", "payload": {"workload": WORKLOAD}},
            golden=f"serve:{WORKLOAD}:capture")
        if capture is not None:
            trace = capture["artifact_path"]
            reference("replay", {"kind": "replay",
                                 "payload": {"trace": trace}},
                      golden=f"serve:{WORKLOAD}:replay")
            reference("timing", {"kind": "replay",
                                 "payload": {"trace": trace,
                                             "analyses": ["timing"]}},
                      golden=f"serve:{WORKLOAD}:timing")
        for seed in self.seeds if campaigns else ():
            reference(("campaign", seed),
                      {"kind": "campaign", "payload": campaign_payload(seed)})

    def record_reference(self) -> None:
        self._local_references(campaigns=False)

    # -------------------------------------------------------- jobs

    def _job(self, client, kind: str, payload: Dict, tracer) -> JobSample:
        from repro.server.client import AdmissionRejected

        job_kind = "replay" if kind == "timing" else kind
        first = time.perf_counter()
        rejected = 0
        while True:
            began = time.perf_counter()
            try:
                with tracer.span("server.submit_s"):
                    job_id = client.submit(job_kind, payload)
                break
            except AdmissionRejected as exc:
                rejected += 1
                time.sleep(exc.retry_after)
        acked = time.perf_counter()
        running = None
        terminal = None
        with tracer.span("server.wait_s"):
            for event in client.events(job_id):
                name = event.get("event")
                if name == "running" and running is None:
                    running = time.perf_counter()
                elif name in ("result", "failed", "cancelled"):
                    terminal = event
                    break
        done = time.perf_counter()
        return JobSample(kind, first, began, acked,
                         running if running is not None else done, done,
                         rejected, terminal)

    def _problems(self, sample: JobSample, key) -> List[str]:
        from repro.server.jobs import canonical_result_bytes

        record = sample.record
        if record is None:
            return ["no terminal event"]
        if record.get("event") != "result":
            return [f"job {record.get('event')}: {record.get('error', '')}"]
        if canonical_result_bytes(record) != self.references.get(key):
            return ["result bytes differ from run_job_local"]
        return []

    def _cycle(self, client, index: int, tracer) -> List[tuple]:
        """One client cycle; returns (op, sample, problems) triples."""
        out = []

        def run(kind, payload, key):
            sample = self._job(client, kind, payload, tracer)
            problems = self._problems(sample, key)
            out.append((kind, sample, problems))
            return sample, problems

        capture, problems = run("capture", {"workload": WORKLOAD}, "capture")
        if problems:
            for kind in ("replay", "timing"):
                out.append((kind, None, ["skipped: capture failed"]))
        else:
            artifact = {"artifact": capture.record["job_id"]}
            run("replay", artifact, "replay")
            run("timing", {**artifact, "analyses": ["timing"]}, "timing")
        seed = self.seeds[index % len(self.seeds)]
        run("campaign", campaign_payload(seed), ("campaign", seed))
        return out

    def _client(self, n: int, deadline: float, tracer, intervals, cycles):
        from repro.server.client import ServerClient

        client = ServerClient("127.0.0.1", self.port, tenant=f"bench-{n}")
        spans = tracer or NullTracer()
        index = n
        while time.perf_counter() < deadline:
            self.ctx.speed.tick()
            began = time.perf_counter()
            with spans.span(PASS):
                results = self._cycle(client, index, spans)
            ended = time.perf_counter()
            with self._lock:
                intervals.append((began, ended))
                cycles.append(results)
            index += self.clients

    def _run_threads(self, target, count: int) -> None:
        errors = []

        def guarded(n):
            try:
                target(n)
            except Exception as exc:  # reported as a failed operation
                errors.append(f"client {n}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=guarded, args=(n,))
                   for n in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for error in errors:
            self.ctx.checker.record("client", [error])

    # ------------------------------------------------------ warm-up

    def _warm_server(self, tenant: int) -> None:
        """Give every shard's worker this tenant's compiled kernels and
        campaign golden run: jobs submitted back to back land on
        successive shards."""
        from repro.server.client import ServerClient

        client = ServerClient("127.0.0.1", self.port,
                              tenant=f"bench-{tenant}")
        one_trial = {**campaign_payload(self.seeds[0]), "injections": 1}
        for kind, payload in (("capture", {"workload": WORKLOAD}),
                              ("campaign", one_trial)):
            ids = [client.submit(kind, payload) for _ in range(SHARDS)]
            for job_id in ids:
                client.wait(job_id)

    def warm(self) -> None:
        warmers = threading.Thread(
            target=self._run_threads,
            args=(self._warm_server, self.clients))
        warmers.start()
        self._local_references()
        warmers.join()

    # ------------------------------------------------------ measuring

    def measure(self, seconds: float, tracer=None):
        """Run the clients for *seconds*; a cycle started before the
        deadline completes.  The cycles are the passes."""
        intervals: List[tuple] = []
        cycles: List[List[tuple]] = []
        deadline = time.perf_counter() + seconds
        self._run_threads(
            lambda n: self._client(n, deadline, tracer, intervals, cycles),
            self.clients)
        for results in cycles:
            for op, _, problems in results:
                self.ctx.checker.record(op, problems)
        return Window(cycles, intervals), intervals

    def seconds(self, start: float, end: float) -> float:
        # the clients calibrate between their own cycles, so another
        # client's calibration inside an interval did not displace it
        return self.ctx.speed.seconds(start, end, inline=False)

    def _ms(self, samples: List[JobSample], begin: str, end: str):
        return [1000 * self.seconds(getattr(s, begin), getattr(s, end))
                for s in samples]

    # ------------------------------------------------------ metrics

    @staticmethod
    def _samples(window: "Window", kinds) -> List[JobSample]:
        return [sample for results in window.cycles
                for _, sample, _ in results
                if sample is not None and sample.kind in kinds]

    def end_to_end(self, window: "Window") -> Dict[str, tuple]:
        jobs = self._samples(window, JOB_KINDS)
        # closed loop: every client is always inside a cycle, so the
        # clients' summed cycle time is the window without its ragged end
        busy = sum(self.seconds(a, b) for a, b in window.intervals)
        jobs_per_s = ratio(len(jobs) * self.clients, busy)
        replays = self._ms(self._samples(window, ("replay", "timing")),
                           "first", "done")
        metrics = {
            "work_per_s": (jobs_per_s, "1/s"),
            "jobs_per_s": (jobs_per_s, "1/s"),
            "replay_job_p50_ms": (percentile(replays, 50), "ms"),
            "replay_job_p90_ms": (percentile(replays, 90), "ms"),
            "replay_job_samples": (len(replays), "count"),
            "replay_job_tail_pct": (tail_percentile(len(replays)) or 0.0,
                                    "%"),
        }
        for kind in ("capture", "campaign"):
            latencies = self._ms(self._samples(window, (kind,)),
                                 "first", "done")
            metrics[f"{kind}_job_p50_ms"] = (percentile(latencies, 50), "ms")
            metrics[f"{kind}_job_samples"] = (len(latencies), "count")
        return metrics

    def per_layer(self, window: "Window", breakdown) -> Dict[str, float]:
        jobs = self._samples(window, JOB_KINDS)
        campaigns = [s.record for s in self._samples(window, ("campaign",))
                     if s.record and s.record.get("event") == "result"]
        hits = misses = 0
        for record in campaigns:
            counters = record["telemetry"]["counters"]
            hits += counters.get("compile_cache.hits", 0)
            misses += counters.get("compile_cache.misses", 0)
        return {
            "server.submit_ms": median(self._ms(jobs, "submitted", "acked")),
            "server.queue_wait_ms": median(self._ms(jobs, "acked",
                                                    "running")),
            "server.exec_ms": median(self._ms(jobs, "running", "done")),
            "server.rejected": sum(s.rejected for s in jobs),
            "campaign.trial_s": ratio(
                sum(r["wall_seconds"] for r in campaigns),
                sum(r["result"]["injections"] for r in campaigns)),
            "campaign.cache_hit_ratio": ratio(hits, hits + misses),
        }
