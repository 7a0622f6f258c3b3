"""The asyncio profiling service: one queue, many shards, NDJSON wire.

Layout::

    client ──TCP──▶ asyncio protocol ──▶ ShardedQueue ──▶ shard drains
                                                   │
                                  ProcessPoolExecutor per shard
                                  (run_job_task per task tuple)

One long-lived asyncio loop owns admission, scheduling, and delivery;
each shard drains its lane sequentially into its own
:class:`~concurrent.futures.ProcessPoolExecutor` of ``workers``
processes (a job's tasks fan across the pool; the *next* job stays
queued until the current one finishes, which keeps the bounded-queue
semantics exact).  Task results are awaited **in task order** and
merged with the same order-independent fold as a local run, so a job's
canonical result bytes do not depend on shard count or worker count —
the differential suite holds the server to ``run_job_local`` byte for
byte.

Wire protocol: newline-delimited JSON over TCP.  The client sends one
request object per connection; the server answers with one response
object, except ``op=result`` which streams progress/telemetry events
(one JSON object per line) and ends with a terminal ``result`` /
``failed`` / ``cancelled`` event.  Admission rejections are shaped
like HTTP 429s: ``{"ok": false, "status": 429, "error": "queue_full",
"retry_after": <seconds>}`` where ``retry_after`` tracks an EMA of
recent job walls.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.server.jobs import JobError, JobSpec, finish_record, \
    job_tasks, run_job_task, validate_job
from repro.server.queue import AdmissionError, ShardedQueue

PROTOCOL_VERSION = 1

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED, CANCELLED = \
    "queued", "running", "done", "failed", "cancelled"
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it off server.address
    shards: int = 1
    workers: int = 1
    queue_depth: int = 8
    artifact_dir: Optional[str] = None


@dataclass
class JobRecord:
    """Server-side state for one submitted job."""

    id: str
    spec: JobSpec
    shard: int
    state: str = QUEUED
    events: List[Dict[str, Any]] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    cancel_requested: bool = False
    changed: Optional[asyncio.Condition] = None

    async def emit(self, event: Dict[str, Any]) -> None:
        async with self.changed:
            self.events.append(event)
            self.changed.notify_all()

    def status(self) -> Dict[str, Any]:
        return {"job_id": self.id, "kind": self.spec.kind,
                "tenant": self.spec.tenant, "shard": self.shard,
                "state": self.state}


class ProfilingServer:
    """The service object; drive it from an asyncio loop via
    :meth:`start` / :meth:`wait_closed`, or from sync code through
    :func:`start_in_thread`."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.queue = ShardedQueue(shards=self.config.shards,
                                  depth=self.config.queue_depth)
        self.jobs: Dict[str, JobRecord] = {}
        self.artifacts: Dict[str, str] = {}  # capture job id -> trace path
        self._counter = 0
        #: shard pools replaced after a worker process died
        self.worker_crashes = 0
        self._pools: List[ProcessPoolExecutor] = []
        self._mp_context = None
        self._wakes: List[asyncio.Event] = []
        self._drains: List[asyncio.Task] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing = False
        self._shutdown = asyncio.Event()
        self._wall_ema: Optional[float] = None
        self.address: Optional[tuple] = None
        self._artifact_dir = self.config.artifact_dir \
            or tempfile.mkdtemp(prefix="repro-server-")

    # ------------------------------------------------------- lifecycle

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        # the service process is multi-threaded (event loop thread,
        # client handlers, start_in_thread callers), so worker pools
        # must not plain-fork: a forked child inheriting a lock held by
        # another thread wedges the whole shard.  forkserver forks from
        # a clean single-threaded helper; fall back to spawn.
        try:
            self._mp_context = multiprocessing.get_context("forkserver")
        except ValueError:
            self._mp_context = multiprocessing.get_context("spawn")
        for shard in range(self.config.shards):
            self._pools.append(self._new_pool())
            self._wakes.append(asyncio.Event())
            self._drains.append(
                loop.create_task(self._drain(shard),
                                 name=f"repro-shard-{shard}"))
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]

    def request_shutdown(self) -> None:
        self._closing = True
        self._shutdown.set()
        for wake in self._wakes:
            wake.set()

    async def wait_closed(self) -> None:
        await self._shutdown.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._drains:
            task.cancel()
        await asyncio.gather(*self._drains, return_exceptions=True)
        for pool in self._pools:
            # wait=True joins the pool's plumbing threads; skipping that
            # races them against interpreter teardown (spurious EBADF)
            pool.shutdown(wait=True, cancel_futures=True)

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.config.workers,
                                   mp_context=self._mp_context)

    def _respawn(self, shard: int, broken: ProcessPoolExecutor) -> None:
        """Replace *shard*'s pool after one of its workers died; a
        broken pool fails every later submission, so without this the
        whole shard would stay dead."""
        self.worker_crashes += 1
        self._pools[shard] = self._new_pool()
        broken.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------ scheduling

    def _retry_after(self) -> float:
        return round(max(0.05, self._wall_ema or 0.1), 3)

    def submit(self, spec: JobSpec) -> JobRecord:
        """Validate + admit one job; raises JobError or AdmissionError."""
        if self._closing:
            raise AdmissionError("server is shutting down",
                                 retry_after=self._retry_after())
        spec = validate_job(spec)
        self._resolve_artifact(spec)
        self._counter += 1
        job_id = f"j{self._counter:04d}"
        record = JobRecord(id=job_id, spec=spec, shard=-1,
                           changed=asyncio.Condition())
        record.shard = self.queue.try_submit(
            record, retry_after=self._retry_after())
        self.jobs[job_id] = record
        self._wakes[record.shard].set()
        return record

    def _resolve_artifact(self, spec: JobSpec) -> None:
        """Rewrite a replay job's ``artifact`` id to the stored path."""
        if spec.kind != "replay":
            return
        artifact = spec.payload.get("artifact")
        if not artifact:
            return
        path = self.artifacts.get(artifact)
        if path is None:
            raise JobError(f"unknown artifact {artifact!r} "
                           "(expecting a finished capture job's id)")
        spec.payload.pop("artifact")
        spec.payload["trace"] = path

    async def _drain(self, shard: int) -> None:
        wake = self._wakes[shard]
        while not self._closing:
            record = self.queue.pop(shard)
            if record is None:
                wake.clear()
                await wake.wait()
                continue
            await self._execute(shard, record)

    async def _execute(self, shard: int, record: JobRecord) -> None:
        loop = asyncio.get_running_loop()
        pool = self._pools[shard]
        record.state = RUNNING
        await record.emit({"event": "running", "job_id": record.id,
                           "shard": shard})
        start = time.perf_counter()
        try:
            tasks = job_tasks(record.spec,
                              artifact_dir=self._artifact_dir,
                              job_id=record.id)
            futures = [loop.run_in_executor(pool, run_job_task, task)
                       for task in tasks]
            pieces, telemetry_parts = [], []
            for index, future in enumerate(futures):
                if record.cancel_requested:
                    for pending in futures[index:]:
                        pending.cancel()
                    await self._finish(record, shard, CANCELLED,
                                       {"event": "cancelled",
                                        "job_id": record.id})
                    return
                piece, telem = await future
                pieces.append(piece)
                telemetry_parts.append(telem)
                await record.emit({"event": "progress",
                                   "job_id": record.id,
                                   "task": index, "of": len(tasks),
                                   "counters": telem["counters"]})
            wall = time.perf_counter() - start
            result = finish_record(record.spec, record.id, pieces,
                                   telemetry_parts, wall)
            if record.spec.kind == "capture":
                self.artifacts[record.id] = result["artifact_path"]
            record.result = result
            self._wall_ema = wall if self._wall_ema is None \
                else 0.7 * self._wall_ema + 0.3 * wall
            await self._finish(record, shard, DONE, result)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # worker crashes included
            if isinstance(exc, BrokenProcessPool):
                self._respawn(shard, pool)
            await self._finish(record, shard, FAILED,
                               {"event": "failed", "job_id": record.id,
                                "error": f"{type(exc).__name__}: {exc}"})

    async def _finish(self, record: JobRecord, shard: int, state: str,
                      event: Dict[str, Any]) -> None:
        record.state = state
        if state == DONE:
            self.queue.note_completed(shard)
        elif state == FAILED:
            self.queue.note_failed(shard)
        else:
            self.queue.note_cancelled(shard)
        await record.emit(event)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        record = self.jobs.get(job_id)
        if record is None:
            return {"ok": False, "error": f"unknown job {job_id!r}"}
        if record.state in TERMINAL_STATES:
            return {"ok": True, "state": record.state,
                    "note": "already finished"}
        record.cancel_requested = True
        if record.state == QUEUED \
                and self.queue.remove(record.shard, record):
            # never started; settle it here so waiters wake up
            asyncio.get_running_loop().create_task(
                self._finish(record, record.shard, CANCELLED,
                             {"event": "cancelled",
                              "job_id": record.id}))
        return {"ok": True, "state": record.state}

    # ---------------------------------------------------------- wire

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                await self._send(writer, {"ok": False,
                                          "error": f"bad json: {exc}"})
                return
            await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(self, writer: asyncio.StreamWriter,
                    payload: Dict[str, Any]) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    async def _dispatch(self, request: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> None:
        op = request.get("op")
        if op == "ping":
            await self._send(writer, {"ok": True, "pong": True,
                                      "version": PROTOCOL_VERSION})
        elif op == "submit":
            await self._op_submit(request, writer)
        elif op == "status":
            record = self.jobs.get(request.get("job_id", ""))
            if record is None:
                await self._send(writer, {"ok": False,
                                          "error": "unknown job"})
            else:
                await self._send(writer, {"ok": True,
                                          **record.status()})
        elif op == "result":
            await self._op_result(request, writer)
        elif op == "cancel":
            await self._send(
                writer, self.cancel(request.get("job_id", "")))
        elif op == "stats":
            await self._send(writer, {"ok": True,
                                      "queue": self.queue.stats(),
                                      "jobs": len(self.jobs),
                                      "artifacts": len(self.artifacts),
                                      "worker_crashes":
                                          self.worker_crashes})
        elif op == "shutdown":
            await self._send(writer, {"ok": True, "stopping": True})
            self.request_shutdown()
        else:
            await self._send(writer,
                             {"ok": False, "error": f"unknown op {op!r}"})

    async def _op_submit(self, request: Dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        try:
            record = self.submit(JobSpec.from_dict(
                request.get("job", {})))
        except AdmissionError as exc:
            await self._send(writer, {
                "ok": False, "status": 429, "error": "queue_full",
                "message": str(exc), "retry_after": exc.retry_after})
            return
        except JobError as exc:
            await self._send(writer, {"ok": False, "status": 400,
                                      "error": "bad_job",
                                      "message": str(exc)})
            return
        await self._send(writer, {"ok": True, "status": 202,
                                  **record.status()})

    async def _op_result(self, request: Dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        """Stream a job's events (NDJSON) through its terminal event."""
        record = self.jobs.get(request.get("job_id", ""))
        if record is None:
            await self._send(writer, {"ok": False,
                                      "error": "unknown job"})
            return
        sent = 0
        while True:
            async with record.changed:
                while sent >= len(record.events) \
                        and record.state not in TERMINAL_STATES:
                    await record.changed.wait()
                pending = record.events[sent:]
                sent += len(pending)
                finished = record.state in TERMINAL_STATES \
                    and sent >= len(record.events)
            for event in pending:
                await self._send(writer, event)
            if finished:
                return


@dataclass
class ServerHandle:
    """A server running on a daemon thread (for tests and the CLI
    client's own integration checks)."""

    server: ProfilingServer
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop

    @property
    def address(self) -> tuple:
        return self.server.address

    def stop(self, timeout: float = 10.0) -> None:
        self.loop.call_soon_threadsafe(self.server.request_shutdown)
        self.thread.join(timeout=timeout)


def start_in_thread(config: Optional[ServerConfig] = None,
                    timeout: float = 30.0) -> ServerHandle:
    """Start a :class:`ProfilingServer` on a background thread and
    block until it is accepting connections."""
    server = ProfilingServer(config)
    started = threading.Event()
    box: Dict[str, Any] = {}

    async def _main() -> None:
        await server.start()
        box["loop"] = asyncio.get_running_loop()
        started.set()
        await server.wait_closed()

    def _run() -> None:
        try:
            asyncio.run(_main())
        except Exception as exc:  # surface startup failures to the waiter
            box["error"] = exc
            started.set()

    thread = threading.Thread(target=_run, name="repro-server",
                              daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError("server did not start in time")
    if "error" in box:
        raise box["error"]
    return ServerHandle(server=server, thread=thread, loop=box["loop"])


async def serve(config: Optional[ServerConfig] = None,
                announce=None) -> None:
    """Run the service until a ``shutdown`` request (the ``repro
    serve`` entry point)."""
    server = ProfilingServer(config)
    await server.start()
    if announce is not None:
        announce(server.address)
    await server.wait_closed()


def ensure_artifact_dir(path: Optional[str]) -> Optional[str]:
    if path:
        os.makedirs(path, exist_ok=True)
    return path
