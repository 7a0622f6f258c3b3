"""Statistics, correctness accounting and the result schema.

Everything here is independent of the program under test, so the
benchmark's own tests can exercise it without running a workload.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

SCHEMA = "bench/v3"

#: the metrics every workload reports untraced: (name, unit, better);
#: BENCHMARK.json lists the same, with their bounds
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
)

HANDLERS = ("branch_profiler", "memory_divergence", "opcode_histogram",
            "value_profiler", "memtrace")
ANALYSES = ("cachesim", "divergence", "memdiv", "opcodes", "timing")
GEOMETRIES = ("small", "large")
POLICIES = ("gto", "lrr")

#: the metrics every workload reports traced; a layer the workload
#: bypasses reads 0
PER_LAYER = (
    ("kernelir.build_ir_s", "s", "lower"),
    ("backend.ptxas_s", "s", "lower"),
    ("sassi.inject_s", "s", "lower"),
    ("sassi.sites", "count", "lower"),
    ("sim.launch_s", "s", "lower"),
    ("sim.winstr_per_s", "1/s", "higher"),
    ("sim.app_warp_instrs", "count", "higher"),
    ("sim.sassi_warp_instrs", "count", "lower"),
    *((f"sim.overhead_x.{h}", "x", "lower") for h in HANDLERS + ("capture",)),
    *((f"handlers.body_s.{h}", "s", "lower")
      for h in HANDLERS + ("capture",)),
    ("trace.write_s", "s", "lower"),
    ("trace.events_written", "count", "higher"),
    ("trace.bytes_per_event", "B", "lower"),
    ("trace.index_s", "s", "lower"),
    ("trace.decode_s", "s", "lower"),
    ("trace.frames", "count", "higher"),
    ("trace.columnar_frac", "fraction", "higher"),
    *((f"replay.feed_s.{a}", "s", "lower") for a in ANALYSES),
    ("replay.schedule_s", "s", "lower"),
    ("trace.query_s", "s", "lower"),
    ("trace.query_ms", "ms", "lower"),
    ("trace.query_scanned_frac", "fraction", "lower"),
    ("campaign.trial_s", "s", "lower"),
    ("campaign.cache_hit_ratio", "fraction", "higher"),
    ("server.submit_s", "s", "lower"),
    ("server.wait_s", "s", "lower"),
    ("server.submit_ms", "ms", "lower"),
    ("server.queue_wait_ms", "ms", "lower"),
    ("server.exec_ms", "ms", "lower"),
    ("server.rejected", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_frac", "fraction", "lower"),
    *((f"sim.{level}_hit_rate.{g}", "fraction", "higher")
      for level in ("l1", "l2") for g in GEOMETRIES),
    *((f"timing.cycles.{p}", "cycles", "lower") for p in POLICIES),
    *((f"timing.bubble_frac.{p}", "fraction", "lower") for p in POLICIES),
)

#: the percentiles a tail may be reported at, lowest first
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: a percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10


def tail_percentile(count: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with at least
    :data:`TAIL_SAMPLES` samples beyond it among *count* samples, or
    ``None`` when even the median lacks them."""
    supported = None
    for pct in PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= TAIL_SAMPLES - 1e-9:
            supported = pct
    return supported


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (the ``inclusive`` method of
    :func:`statistics.quantiles`); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def digest(value) -> str:
    """SHA-256 of *value*'s canonical JSON form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Counts operations and their failures.

    An operation fails when any of its checks fails or it raises; each
    failure keeps one line of detail for the report.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()

    def record(self, op: str, problems: Iterable[str]) -> bool:
        problems = list(problems)
        with self._lock:
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{op}: {'; '.join(problems)}")
        return not problems

    @property
    def fail_frac(self) -> float:
        return ratio(self.failed, self.attempted)


class References:
    """Reference digests of simulated statistics, keyed by operation.

    In recording mode :meth:`expect` stores each digest instead of
    comparing it; :meth:`save` then writes the table.
    """

    def __init__(self, table: Dict[str, str], record: bool = False):
        self.table = table
        self.record = record

    @classmethod
    def load(cls, path: str) -> "References":
        with open(path) as handle:
            return cls(json.load(handle))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.table, handle, indent=1, sort_keys=True)
            handle.write("\n")

    def expect(self, key: str, value, problems: List[str]) -> None:
        """Append a problem unless *value*'s digest matches *key*'s."""
        actual = digest(value)
        if self.record:
            self.table[key] = actual
            return
        reference = self.table.get(key)
        if reference is None:
            problems.append(f"{key}: no reference digest")
        elif actual != reference:
            problems.append(f"{key}: digest {actual[:12]} != reference "
                            f"{reference[:12]}")


# ------------------------------------------------------------- machine

#: iterations of the calibration loop (about 20 ms of pure Python)
CALIBRATION_LOOPS = 200_000
#: the loop time of the reference machine that times are scaled to
REFERENCE_LOOP_S = 0.020


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed reference
    taken in the same window as the measurement."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


class Speedometer:
    """The machine's speed over a run, and host time rescaled by it.

    On a shared machine the speed of one core drifts by tens of percent
    within seconds.  The calibration loop is timed between operations,
    at most every *interval* seconds per thread; :meth:`seconds` turns
    a host interval into reference seconds: host time scaled by
    :data:`REFERENCE_LOOP_S` over the mean loop time measured in and
    around the interval.
    """

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        #: (start, end, loop seconds), in perf_counter time
        self.samples: List[tuple] = []
        self._last: Dict[int, float] = {}
        self._lock = threading.Lock()

    def calibrate(self) -> None:
        start = time.perf_counter()
        loop = calibration_loop()
        end = time.perf_counter()
        with self._lock:
            self.samples.append((start, end, loop))
            self._last[threading.get_ident()] = end

    def tick(self) -> None:
        """Calibrate unless this thread did so within *interval*."""
        last = self._last.get(threading.get_ident())
        if last is None or time.perf_counter() - last >= self.interval:
            self.calibrate()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per host second over [start, end]."""
        samples = sorted(self.samples)
        if not samples:
            return 1.0
        starts = [sample[0] for sample in samples]
        low = max(bisect.bisect_right(starts, start) - 1, 0)
        high = min(bisect.bisect_left(starts, end) + 1, len(samples))
        loops = [sample[2] for sample in samples[low:high]]
        return REFERENCE_LOOP_S / (sum(loops) / len(loops))

    def seconds(self, start: float, end: float,
                inline: bool = True) -> float:
        """Reference seconds of host interval [start, end].  With
        *inline*, calibrations inside the interval ran in its place
        (the single-threaded workloads) and are left out."""
        spent = 0.0
        if inline:
            spent = sum(b - a for a, b, _ in self.samples
                        if start <= a and b <= end)
        return (end - start - spent) * self.scale(start, end)


def cpu_count() -> int:
    """The cores this process may run on (``nproc``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine_block(speed: Speedometer) -> Dict:
    import numpy

    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "calibration_s": median([loop for _, _, loop in speed.samples]),
        "calibration_min_s": min(loop for _, _, loop in speed.samples),
        "calibration_max_s": max(loop for _, _, loop in speed.samples),
        "calibration_samples": len(speed.samples),
        "reference_loop_s": REFERENCE_LOOP_S,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident sets (VmHWM) of *pid* and its descendants,
    read from ``/proc``; 0.0 where ``/proc`` is unavailable."""
    children: Dict[int, List[int]] = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return 0.0
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    total_kb = 0
    todo = [pid]
    while todo:
        current = todo.pop()
        todo.extend(children.get(current, ()))
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# ---------------------------------------------------------------- output

def format_table(title: str, rows: Sequence[tuple]) -> str:
    """Render ``(name, value, unit)`` rows under *title*."""
    lines = [title]
    for name, value, unit in rows:
        if isinstance(value, float):
            text = f"{value:.6g}"
        else:
            text = str(value)
        lines.append(f"  {name:36s} {text:>16s}  {unit}")
    return "\n".join(lines)


def result_line(checker: Checker, metrics: Dict[str, tuple]) -> str:
    """The final stdout line: ``metrics`` maps name -> (value, unit)."""
    return json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
