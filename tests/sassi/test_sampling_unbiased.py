"""Statistical differential suite: sampled instrumentation must be a
faithful (rate 1/1) or unbiased-estimating (rate 1/N) stand-in for the
exact instrumented path.

For each stock handler × workload:

* **rate 1/1** — an installed controller with ``EveryNth(1)`` and with
  ``PerWarp(1)`` must be *bit-identical* to the exact instrumented run:
  workload outputs, handler results, ``KernelStats``, telemetry
  counters, and captured trace bytes.
* **rate 1/4 and 1/16** — deterministic every-Nth sampling must produce
  scaled estimates that match the exact counters within a fixed
  tolerance; seeded per-warp sampling is proven unbiased via its
  *full-rate limit*: the N hash-residue phases partition the warps, so
  the mean of the N phase estimates must equal the exact count
  **identically** (integer equality, no tolerance at all).  A single
  fixed-seed per-warp spot check with a generous tolerance runs on the
  many-warp workload only — one selected warp out of two dominates any
  single-seed estimate on tiny grids, which is variance, not bias.

  Everything here is deterministic — the workloads, ``EveryNth``, and
  the splitmix64-seeded ``PerWarp`` with seeds derived from one fixed
  ``SeedSequence`` — so the assertions can never flake: the observed
  relative errors are constants.

The exact run per (handler, workload) is computed once and memoized.
"""

from __future__ import annotations

import filecmp

import numpy as np
import pytest

from repro.handlers.branch_profiler import BranchProfiler
from repro.handlers.memory_divergence import MemoryDivergenceProfiler
from repro.handlers.memtrace import MemoryTracer
from repro.handlers.opcode_histogram import OpcodeHistogram
from repro.handlers.value_profiler import ValueProfiler
from repro.sassi.runtime import AdaptiveController, EveryNth, PerWarp
from repro.sim import Device
from repro.telemetry.collector import TELEMETRY
from repro.workloads import make

pytestmark = pytest.mark.noskip

WORKLOADS = [
    "rodinia/nn",
    "rodinia/pathfinder",
    "parboil/sgemm(small)",
]

HANDLERS = ["branch_profiler", "memory_divergence", "opcode_histogram",
            "value_profiler", "memtrace"]

#: one fixed SeedSequence derives every per-warp seed in the suite
_SEEDS = np.random.SeedSequence(20260808).generate_state(16)


def _seed_for(handler: str, name: str, n: int) -> int:
    index = (HANDLERS.index(handler) * len(WORKLOADS)
             + WORKLOADS.index(name) + n) % len(_SEEDS)
    return int(_SEEDS[index])


#: (mode, n) -> max allowed relative error of the aggregate estimates.
#: Deterministic runs: these bound *fixed* observed errors with margin.
TOLERANCE = {
    ("nth", 4): 0.30,
    ("nth", 16): 0.40,
    ("warp", 4): 0.55,
    ("warp", 16): 0.80,
}

#: the many-warp workload used for the single-seed per-warp spot check
MANY_WARPS = "rodinia/nn"


def _make_profiler(handler, device, trace_path=None):
    if handler == "branch_profiler":
        return BranchProfiler(device)
    if handler == "memory_divergence":
        return MemoryDivergenceProfiler(device)
    if handler == "opcode_histogram":
        return OpcodeHistogram(device)
    if handler == "value_profiler":
        return ValueProfiler(device)
    return MemoryTracer(device, path=trace_path)


def _collect(handler, profiler):
    if handler == "branch_profiler":
        return profiler.branches()
    if handler == "memory_divergence":
        return profiler.matrix().tolist()
    if handler == "opcode_histogram":
        return profiler.totals()
    if handler == "value_profiler":
        return profiler.profiles()
    return list(profiler.records())


def _estimates(handler, profiler) -> dict:
    """Scalar additive counters (already scaled by the handlers)."""
    if handler == "branch_profiler":
        branches = profiler.branches()
        return {"total": sum(b.total for b in branches),
                "active": sum(b.active_threads for b in branches)}
    if handler == "memory_divergence":
        return {"accesses": int(profiler.matrix().sum())}
    if handler == "opcode_histogram":
        return {k: v for k, v in profiler.totals().items() if v}
    if handler == "value_profiler":
        return {"weight": sum(p.weight for p in profiler.profiles())}
    return {"events": profiler.weighted_events}


def _run(name, handler, controller=None, trace_path=None):
    workload = make(name)
    device = Device()
    if controller is not None:
        controller.install(device)
    profiler = _make_profiler(handler, device, trace_path=trace_path)
    stats_list = []
    device.on_kernel_exit(lambda _d, _k, stats: stats_list.append(stats))
    TELEMETRY.enable(reset=True)
    try:
        kernel = profiler.compile(workload.build_ir())
        output = workload.execute(device, kernel)
        counters = dict(TELEMETRY.counters)
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    return {
        "output": output,
        "result": _collect(handler, profiler),
        "stats": stats_list,
        "counters": counters,
        "estimates": _estimates(handler, profiler),
        "profiler": profiler,
    }


_EXACT_CACHE: dict = {}


def _exact(name, handler, tmp_path_factory):
    key = (name, handler)
    cached = _EXACT_CACHE.get(key)
    if cached is None:
        trace_path = None
        if handler == "memtrace":
            base = tmp_path_factory.mktemp("exact")
            trace_path = str(base / "exact.rptrace")
        cached = _run(name, handler, trace_path=trace_path)
        cached["trace_path"] = trace_path
        _EXACT_CACHE[key] = cached
    return cached


# ------------------------------------------------------------ rate 1/1

@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("handler", HANDLERS)
@pytest.mark.parametrize("mode", ["nth", "warp"])
def test_rate_one_is_bit_identical(name, handler, mode, tmp_path,
                                   tmp_path_factory):
    exact = _exact(name, handler, tmp_path_factory)
    if mode == "nth":
        sampling = EveryNth(1)
    else:
        sampling = PerWarp(1, seed=_seed_for(handler, name, 1))
    controller = AdaptiveController(sampling=sampling)
    trace_path = str(tmp_path / "sampled.rptrace") \
        if handler == "memtrace" else None
    sampled = _run(name, handler, controller=controller,
                   trace_path=trace_path)
    assert np.array_equal(exact["output"], sampled["output"]), \
        f"{name}/{handler}: outputs differ at rate 1/1 ({mode})"
    assert exact["result"] == sampled["result"], \
        f"{name}/{handler}: handler results differ at rate 1/1 ({mode})"
    assert exact["stats"] == sampled["stats"], \
        f"{name}/{handler}: KernelStats differ at rate 1/1 ({mode})"
    assert exact["counters"] == sampled["counters"], \
        f"{name}/{handler}: telemetry differs at rate 1/1 ({mode})"
    assert "sassi.sampled_skipped" not in sampled["counters"]
    if handler == "memtrace":
        assert filecmp.cmp(exact["trace_path"], trace_path,
                           shallow=False), \
            f"{name}: trace bytes differ at rate 1/1 ({mode})"


# ---------------------------------------------------------- rate 1/N

@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("handler", HANDLERS)
@pytest.mark.parametrize("n", [4, 16])
def test_every_nth_estimates_match_exact(name, handler, n, tmp_path,
                                         tmp_path_factory):
    exact = _exact(name, handler, tmp_path_factory)
    controller = AdaptiveController(sampling=EveryNth(n))
    trace_path = str(tmp_path / "sampled.rptrace") \
        if handler == "memtrace" else None
    sampled = _run(name, handler, controller=controller,
                   trace_path=trace_path)

    # sampling may never perturb the application itself
    assert np.array_equal(exact["output"], sampled["output"]), \
        f"{name}/{handler}: workload output differs under 1/{n} sampling"

    tolerance = TOLERANCE[("nth", n)]
    for counter, exact_value in exact["estimates"].items():
        estimate = sampled["estimates"].get(counter, 0)
        error = abs(estimate - exact_value) / max(exact_value, 1)
        assert error <= tolerance, \
            f"{name}/{handler}/{counter}: 1/{n} nth estimate " \
            f"{estimate} vs exact {exact_value} " \
            f"(rel err {error:.3f} > {tolerance})"

    # skipped firings are accounted, not lost
    assert sampled["counters"].get("sassi.sampled_skipped", 0) > 0


@pytest.mark.parametrize("handler", HANDLERS)
@pytest.mark.parametrize("n", [4, 16])
def test_per_warp_single_seed_spot_check(handler, n, tmp_path,
                                         tmp_path_factory):
    """Single fixed-seed per-warp estimate on the many-warp workload:
    within a generous (but deterministic) tolerance."""
    name = MANY_WARPS
    exact = _exact(name, handler, tmp_path_factory)
    sampling = PerWarp(n, seed=_seed_for(handler, name, n))
    controller = AdaptiveController(sampling=sampling)
    trace_path = str(tmp_path / "sampled.rptrace") \
        if handler == "memtrace" else None
    sampled = _run(name, handler, controller=controller,
                   trace_path=trace_path)
    assert np.array_equal(exact["output"], sampled["output"])
    tolerance = TOLERANCE[("warp", n)]
    for counter, exact_value in exact["estimates"].items():
        estimate = sampled["estimates"].get(counter, 0)
        error = abs(estimate - exact_value) / max(exact_value, 1)
        assert error <= tolerance, \
            f"{name}/{handler}/{counter}: 1/{n} warp estimate " \
            f"{estimate} vs exact {exact_value} " \
            f"(rel err {error:.3f} > {tolerance})"


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("handler", HANDLERS)
def test_per_warp_full_rate_limit_quarter(name, handler, tmp_path,
                                          tmp_path_factory):
    """Unbiasedness proper: the 4 hash-residue phases of ``PerWarp(4)``
    partition the warps, so the phase-averaged scaled estimates equal
    the exact counters *identically* — integer equality, every handler,
    every workload."""
    _assert_full_rate_limit(name, handler, 4, tmp_path, tmp_path_factory)


@pytest.mark.parametrize("name", WORKLOADS)
def test_per_warp_full_rate_limit_sixteenth(name, tmp_path,
                                            tmp_path_factory):
    """Same identity at 1/16 (opcode_histogram only: 16 runs each)."""
    _assert_full_rate_limit(name, "opcode_histogram", 16, tmp_path,
                            tmp_path_factory)


def _assert_full_rate_limit(name, handler, n, tmp_path, tmp_path_factory):
    exact = _exact(name, handler, tmp_path_factory)
    seed = _seed_for(handler, name, n)
    summed: dict = {}
    for phase in range(n):
        controller = AdaptiveController(
            sampling=PerWarp(n, seed=seed, phase=phase))
        trace_path = str(tmp_path / f"phase{phase}.rptrace") \
            if handler == "memtrace" else None
        sampled = _run(name, handler, controller=controller,
                       trace_path=trace_path)
        for counter, value in sampled["estimates"].items():
            summed[counter] = summed.get(counter, 0) + value
    for counter, exact_value in exact["estimates"].items():
        assert summed.get(counter, 0) == n * exact_value, \
            f"{name}/{handler}/{counter}: phase-averaged 1/{n} per-warp " \
            f"estimate {summed.get(counter, 0) / n} != exact {exact_value}"


@pytest.mark.parametrize("name", WORKLOADS)
def test_value_profiler_masks_are_consistent(name, tmp_path_factory):
    """AND-accumulated constant-bit masks are not additive; sampling
    sees a subset of the writes, so its masks must be supersets of the
    exact ones (never contradict them)."""
    exact = _exact(name, "value_profiler", tmp_path_factory)
    controller = AdaptiveController(sampling=EveryNth(4))
    sampled = _run(name, "value_profiler", controller=controller)
    exact_by_addr = {p.address: p for p in exact["result"]}
    for profile in sampled["result"]:
        reference = exact_by_addr.get(profile.address)
        if reference is None:
            continue
        for dst, (reg, ones, zeros, _scalar) in enumerate(profile.dsts):
            ref_reg, ref_ones, ref_zeros, _ = reference.dsts[dst]
            assert reg == ref_reg
            assert ones & ref_ones == ref_ones, \
                f"{name}: sampled constantOnes dropped exact-constant bits"
            assert zeros & ref_zeros == ref_zeros, \
                f"{name}: sampled constantZeros dropped exact-constant bits"


@pytest.mark.parametrize("name", WORKLOADS)
def test_skipped_plus_executed_equals_full_rate(name, tmp_path_factory):
    """The attribution invariant: executed ``sassi.*`` instructions plus
    ``sassi.sampled_skipped`` must equal the full-rate run's ``sassi.*``
    total exactly (deterministic sampling)."""
    exact = _exact(name, "opcode_histogram", tmp_path_factory)
    controller = AdaptiveController(sampling=EveryNth(4))
    sampled = _run(name, "opcode_histogram", controller=controller)

    def sassi_total(counters, with_skipped):
        total = sum(value for key, value in counters.items()
                    if key.startswith("sassi.")
                    and key != "sassi.sampled_skipped")
        if with_skipped:
            total += counters.get("sassi.sampled_skipped", 0)
        return total

    assert sassi_total(sampled["counters"], with_skipped=True) \
        == sassi_total(exact["counters"], with_skipped=False)
