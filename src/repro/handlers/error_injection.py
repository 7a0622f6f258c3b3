"""Case Study IV: architecture-level error injection (paper Section 8).

An architecture-level error is a single bit flip in a destination of one
dynamic instruction of one thread.  The campaign follows the paper's
three steps:

1. **profile** — an instrumented run counts the eligible dynamic events
   (instructions that are not predicated off and either write a register
   or write memory);
2. **select** — sites are drawn uniformly at random from the event space
   (the paper samples 1 000 per application);
3. **inject** — each injection run re-executes the application with an
   after-handler that flips one random bit of one random destination of
   the selected dynamic event (via SASSI register write-back, or a
   direct memory/predicate poke for stores and predicate writers), then
   the run is monitored for crashes (device faults), hangs (watchdog),
   and output corruption against a golden run.

Outcome taxonomy mirrors Figure 10: masked; crash; hang; failure
symptom (the run completed but produced non-finite values — the analog
of error messages on stderr); potential SDCs split into stdout-only
(digest differs, output file matches) and output-file corruption.
"""

from __future__ import annotations

import enum
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.campaign.compile_cache import CompileCache, get_cache
from repro.campaign.engine import run_tasks, trial_rng
from repro.sassi import SassiRuntime, spec_from_flags
from repro.sassi.cupti import CounterBuffer, CuptiSubscription
from repro.sassi.handlers import SASSIContext
from repro.sim import Device, DeviceFault, HangDetected
from repro.sim.memory import GLOBAL_BASE, is_global

PROFILE_FLAGS = ("-sassi-inst-after=reg-writes,memory "
                 "-sassi-after-args=reg-info,mem-info")
INJECT_FLAGS = ("-sassi-inst-after=reg-writes,memory "
                "-sassi-after-args=reg-info,mem-info "
                "-sassi-writeback-regs")
#: injection plus a full before-site trace capture in the same run.
#: The extra before sites never change the after-site event numbering
#: (after sites exclude control transfers and marshal the same frames),
#: so traced trials hit the identical injection site as untraced ones.
TRACED_INJECT_FLAGS = ("-sassi-inst-before=all "
                       "-sassi-before-args=mem-info,cond-branch-info "
                       + INJECT_FLAGS)


class InjectionOutcome(enum.Enum):
    MASKED = "masked"
    CRASH = "crash"
    HANG = "hang"
    FAILURE_SYMPTOM = "failure_symptom"
    SDC_STDOUT = "stdout_only_different"
    SDC_OUTPUT = "output_file_different"


@dataclass
class InjectionRecord:
    """One injection's site and outcome."""

    target_event: int
    outcome: InjectionOutcome
    flipped_bit: int
    description: str = ""


class _EventCounterHandler:
    """Profiling-phase handler: counts eligible dynamic events."""

    def __init__(self, counters: CounterBuffer):
        self.counters = counters

    def __call__(self, ctx: SASSIContext) -> None:
        will_execute = ctx.bp.GetInstrWillExecute()
        eligible = sum(1 for lane in ctx.lanes() if will_execute[lane])
        if eligible and (_has_reg_dst(ctx) or _is_store(ctx)):
            ctx.atomic_add(self.counters.element_ptr(0), eligible)


def _has_reg_dst(ctx: SASSIContext) -> bool:
    return ctx.rp is not None and ctx.rp.GetNumGPRDsts() > 0


def _is_store(ctx: SASSIContext) -> bool:
    return ctx.mp is not None and ctx.mp.IsStore()


class _InjectionHandler:
    """Injection-phase handler: flips one bit at the target event."""

    def __init__(self, counters: CounterBuffer, target_event: int,
                 dst_seed: int, bit_seed: int):
        self.counters = counters
        self.target_event = target_event
        self.dst_seed = dst_seed
        self.bit_seed = bit_seed
        self.injected: Optional[str] = None

    def __call__(self, ctx: SASSIContext) -> None:
        will_execute = ctx.bp.GetInstrWillExecute()
        eligible = [lane for lane in ctx.lanes() if will_execute[lane]]
        if not eligible or not (_has_reg_dst(ctx) or _is_store(ctx)):
            return
        count_ptr = self.counters.element_ptr(0)
        seen = ctx.read_device(count_ptr, 8)
        ctx.write_device(count_ptr, seen + len(eligible), 8)
        if self.injected is not None:
            return
        if not seen <= self.target_event < seen + len(eligible):
            return
        lane = eligible[self.target_event - seen]
        self._inject(ctx, lane)

    def _inject(self, ctx: SASSIContext, lane: int) -> None:
        bit = self.bit_seed % 32
        if _has_reg_dst(ctx):
            dst = self.dst_seed % ctx.rp.GetNumGPRDsts()
            old = int(ctx.rp.GetRegValue(dst)[lane])
            ctx.rp.SetRegValue(dst, lane, old ^ (1 << bit))
            self.injected = (f"reg R{ctx.rp.GetRegNum(dst)} bit {bit} "
                             f"lane {lane}")
            return
        # store: flip the bit in the freshly written memory location
        address = int(ctx.mp.GetAddress()[lane])
        width = max(1, ctx.mp.GetWidth())
        if is_global(address, ctx.device.heap_bytes):
            bit = self.bit_seed % (8 * width)
            offset = address - GLOBAL_BASE
            old = ctx.device.global_mem.read(offset, width)
            ctx.device.global_mem.write(offset, width, old ^ (1 << bit))
            self.injected = f"memory 0x{address:x} bit {bit} lane {lane}"


@dataclass
class CampaignResult:
    """Figure 10 for one application."""

    workload: str
    records: List[InjectionRecord] = field(default_factory=list)

    def outcome_counts(self) -> Counter:
        return Counter(r.outcome for r in self.records)

    def fractions(self) -> Dict[InjectionOutcome, float]:
        counts = self.outcome_counts()
        total = len(self.records) or 1
        return {outcome: counts.get(outcome, 0) / total
                for outcome in InjectionOutcome}


class ErrorInjectionCampaign:
    """Runs a full injection campaign against one workload.

    *workload* follows the :class:`repro.workloads.base.Workload`
    protocol (``build_ir`` and ``execute(device, kernel) -> np.ndarray``).

    *workload_name* is the registry key; it is what lets ``run(jobs=N)``
    fan trials out to worker processes (each worker re-instantiates the
    workload by name).  Trial *k* always draws from
    ``trial_rng(seed, k)``, so the outcome of one trial never depends on
    how many trials ran before it, in which process, or in what order.
    """

    def __init__(self, workload, num_injections: int = 100,
                 seed: int = 2015, workload_name: Optional[str] = None,
                 use_cache: bool = True,
                 trace_dir: Optional[str] = None,
                 cache: Optional[CompileCache] = None,
                 on_device: Optional[Callable] = None):
        self.workload = workload
        self.num_injections = num_injections
        self.seed = seed
        self.workload_name = workload_name
        self.use_cache = use_cache
        #: explicit cache override (e.g. a per-tenant namespaced view);
        #: None falls back to the process-wide cache when use_cache
        self.cache = cache
        #: called with every fresh Device this campaign creates — the
        #: server's job layer hooks per-trial KernelStats through this
        self.on_device = on_device
        #: when set, every trial writes a full event-trace sidecar to
        #: ``<trace_dir>/seed<seed>-trial<index>.rptrace`` (see
        #: ``repro trace-diff`` for comparing them across seeds)
        self.trace_dir = trace_dir
        self._golden: Optional[np.ndarray] = None
        self.total_events = 0

    @property
    def _cache(self) -> Optional[CompileCache]:
        if not self.use_cache:
            return None
        return self.cache if self.cache is not None else get_cache()

    def _new_device(self) -> Device:
        device = Device()
        if self.on_device is not None:
            self.on_device(device)
        return device

    # ------------------------------------------------------------ steps

    def golden_run(self) -> np.ndarray:
        from repro.backend import ptxas
        from repro.campaign.compile_cache import cached_ptxas

        device = self._new_device()
        ir = self.workload.build_ir()
        kernel = cached_ptxas(ir, cache=self._cache) \
            if self.use_cache else ptxas(ir)
        self._golden = self.workload.execute(device, kernel)
        return self._golden

    def profile(self) -> int:
        """Step 1: count the eligible dynamic events."""
        device = self._new_device()
        cupti = CuptiSubscription(device)
        counters = CounterBuffer(cupti, 1, per_kernel=False)
        runtime = SassiRuntime(device, poison_caller_saved=False)
        runtime.register_after_handler(_EventCounterHandler(counters))
        kernel = runtime.compile(self.workload.build_ir(),
                                 spec_from_flags(PROFILE_FLAGS),
                                 cache=self._cache)
        self.workload.execute(device, kernel)
        self.total_events = int(counters.final_totals()[0])
        return self.total_events

    def inject_once(self, target_event: int, dst_seed: int,
                    bit_seed: int,
                    trace_path: Optional[str] = None) -> InjectionRecord:
        """Step 3: one injection run, classified against the golden.

        With *trace_path*, the run also streams a full event-trace
        sidecar (before-site capture piggybacked on the injection
        runtime).  The writer is finalized even when the trial crashes
        or hangs, so every sidecar is a valid, diffable ``.rptrace``
        covering everything up to the fault.
        """
        if self._golden is None:
            self.golden_run()
        device = self._new_device()
        cupti = CuptiSubscription(device)
        counters = CounterBuffer(cupti, 1, per_kernel=False)
        handler = _InjectionHandler(counters, target_event, dst_seed,
                                    bit_seed)
        runtime = SassiRuntime(device, poison_caller_saved=False)
        runtime.register_after_handler(handler)
        writer = None
        if trace_path is not None:
            from repro.trace.capture import TraceRecorder
            from repro.trace.io import TraceWriter

            writer = TraceWriter(trace_path)
            TraceRecorder(device, writer, runtime=runtime)
            flags = TRACED_INJECT_FLAGS
        else:
            flags = INJECT_FLAGS
        kernel = runtime.compile(self.workload.build_ir(),
                                 spec_from_flags(flags),
                                 cache=self._cache)
        try:
            output = self.workload.execute(device, kernel)
        except HangDetected:
            return InjectionRecord(target_event, InjectionOutcome.HANG,
                                   bit_seed % 32, handler.injected or "")
        except DeviceFault:
            return InjectionRecord(target_event, InjectionOutcome.CRASH,
                                   bit_seed % 32, handler.injected or "")
        finally:
            if writer is not None:
                writer.close()
        outcome = self._classify(output)
        return InjectionRecord(target_event, outcome, bit_seed % 32,
                               handler.injected or "")

    def _classify(self, output: np.ndarray) -> InjectionOutcome:
        """Outcome taxonomy per the paper's Section 8.

        The benchmarks write their results as formatted text, so the
        *output file* comparison tolerates sub-print-precision float
        perturbations (rtol 1e-3); the *stdout* digest (the checksum the
        apps print) is more sensitive (rtol 1e-6 on the running sum).
        Integer outputs compare exactly.
        """
        golden = self._golden
        if output.dtype.kind == "f" and not np.isfinite(output).all():
            return InjectionOutcome.FAILURE_SYMPTOM
        if output.shape != golden.shape:
            return InjectionOutcome.SDC_OUTPUT
        if output.dtype.kind == "f":
            file_matches = bool(np.allclose(output, golden,
                                            rtol=1e-3, atol=1e-5,
                                            equal_nan=True))
        else:
            file_matches = bool((output == golden).all())
        with np.errstate(all="ignore"):
            digest_matches = bool(np.isclose(
                self._digest(output), self._digest(golden),
                rtol=1e-6, atol=1e-9))
        if file_matches and digest_matches:
            return InjectionOutcome.MASKED
        if file_matches:
            return InjectionOutcome.SDC_STDOUT
        return InjectionOutcome.SDC_OUTPUT

    def _digest(self, output: np.ndarray) -> float:
        digest = getattr(self.workload, "digest", None)
        if digest is not None:
            return digest(output)
        with np.errstate(all="ignore"):
            return float(np.asarray(output, dtype=np.float64).sum())

    # ------------------------------------------------------------ drive

    def trial(self, index: int) -> InjectionRecord:
        """Trial *index*: pick a site from ``trial_rng(seed, index)`` and
        inject.  Self-contained — does not advance any campaign state —
        so serial loops and worker processes produce identical records.
        """
        if self.total_events == 0:
            self.profile()
        rng = trial_rng(self.seed, index)
        target = int(rng.integers(0, self.total_events))
        dst_seed = int(rng.integers(0, 1 << 16))
        bit_seed = int(rng.integers(0, 1 << 16))
        return self.inject_once(target, dst_seed, bit_seed,
                                trace_path=self.trial_trace_path(index))

    def trial_trace_path(self, index: int) -> Optional[str]:
        if self.trace_dir is None:
            return None
        return os.path.join(self.trace_dir,
                            f"seed{self.seed}-trial{index:05d}.rptrace")

    def run(self, num_injections: Optional[int] = None,
            jobs: int = 1) -> CampaignResult:
        count = num_injections or self.num_injections
        self.golden_run()
        total = self.profile()
        result = CampaignResult(workload=getattr(self.workload, "name",
                                                 "workload"))
        if total == 0:
            return result
        if self.trace_dir is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
        if jobs > 1 and self.workload_name:
            tasks = [(self.workload_name, self.seed, k, self.use_cache,
                      self.trace_dir)
                     for k in range(count)]
            chunk = max(1, count // (4 * jobs))
            result.records.extend(
                run_tasks(_campaign_trial, tasks, jobs=jobs,
                          chunksize=chunk))
        else:
            result.records.extend(self.trial(k) for k in range(count))
        return result


# --------------------------------------------------------------- workers
#
# Per-process campaign memo: a worker pays for the golden run and the
# event-count profile once per (workload, cache mode) and then serves
# every trial chunk it is handed from warm state.

_WORKER_CAMPAIGNS: Dict[tuple, "ErrorInjectionCampaign"] = {}


def _campaign_trial(task) -> InjectionRecord:
    # older callers may still ship 4-tuples without a trace_dir
    workload_name, seed, index, use_cache = task[:4]
    trace_dir = task[4] if len(task) > 4 else None
    key = (workload_name, use_cache)
    campaign = _WORKER_CAMPAIGNS.get(key)
    if campaign is None:
        from repro.workloads import make

        campaign = ErrorInjectionCampaign(make(workload_name), seed=seed,
                                          workload_name=workload_name,
                                          use_cache=use_cache)
        campaign.golden_run()
        campaign.profile()
        _WORKER_CAMPAIGNS[key] = campaign
    campaign.seed = seed
    campaign.trace_dir = trace_dir
    return campaign.trial(index)
