"""Runtime-adaptable instrumentation: toggle and sample compiled sites.

The PR 5 site plans froze a spec into compiled call sequences; this
module makes those sites cheap to control *after* compilation, without
ever touching the SASS (so the compile cache stays warm):

* :class:`ActiveSiteMask` — an immutable enable/disable set over stable
  site ids (the injector's original-instruction index, recovered from
  the ``bp.id`` constant each :class:`~repro.sassi.abi.SiteSequencePlan`
  stores into its frame).  Patching the mask on a controller is
  a pure-Python pointer swap; the plans and the cached kernels are
  untouched.
* :class:`SamplingPolicy` and friends — every-Nth deterministic
  sampling, seeded per-warp / per-CTA sampling, and a
  :class:`TimeBudget` throttle whose initial rate is calibrated from a
  telemetry :class:`~repro.telemetry.attribution.AttributionReport`.
* :class:`AdaptiveController` — installed on a device (``launch()``'s
  executors pick it up), it gates every compiled site firing: weight 0
  skips the whole injected sequence, weight N > 1 fires it with
  ``sample_rate = N`` so handler counters stay unbiased estimators.
* :func:`respec_campaign` — the mid-run re-spec pattern: a campaign
  flips a :class:`~repro.sassi.spec.SpecDelta` halfway through its
  trials; because specs are content-addressed, the compile cache is
  exercised with deltas (each spec compiles once per process) rather
  than full recompiles, and site numbering is invariant across specs.

Skipped firings do not vanish: the executor accounts them under the
``sassi.sampled_skipped`` telemetry counter, which the overhead
attribution report folds back in so its instruction buckets still sum
exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.sassi.spec import SpecDelta

_M64 = (1 << 64) - 1

#: site-count campaigns default to instrumenting every instruction
DEFAULT_RESPEC_FLAGS = "-sassi-inst-before=all"


def _splitmix64(x: int) -> int:
    """One splitmix64 step — the deterministic hash behind seeded
    per-warp/per-CTA selection (never Python's randomized ``hash``)."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def _mix(seed: int, *values: int) -> int:
    h = _splitmix64(seed & _M64)
    for value in values:
        h = _splitmix64(h ^ (value & _M64))
    return h


class ActiveSiteMask:
    """An immutable set of *disabled* site ids (everything else fires).

    Value semantics make the algebra easy to reason about (and to
    property-test): ``enable``/``disable`` return new masks, masks
    compare and hash by their disabled set, and
    ``mask.enable(s).disable(s)`` round-trips back to ``mask.disable(s)``
    regardless of history.
    """

    __slots__ = ("_disabled",)

    def __init__(self, disabled: Iterable[int] = ()):
        self._disabled: FrozenSet[int] = frozenset(int(s) for s in disabled)

    @property
    def disabled(self) -> FrozenSet[int]:
        return self._disabled

    def enabled(self, site_id: int) -> bool:
        return site_id not in self._disabled

    def enable(self, site_ids: Iterable[int]) -> "ActiveSiteMask":
        return ActiveSiteMask(self._disabled - frozenset(
            int(s) for s in site_ids))

    def disable(self, site_ids: Iterable[int]) -> "ActiveSiteMask":
        return ActiveSiteMask(self._disabled | frozenset(
            int(s) for s in site_ids))

    def __eq__(self, other) -> bool:
        return isinstance(other, ActiveSiteMask) \
            and self._disabled == other._disabled

    def __hash__(self) -> int:
        return hash(self._disabled)

    def __repr__(self) -> str:
        if not self._disabled:
            return "ActiveSiteMask(all enabled)"
        return f"ActiveSiteMask(disabled={sorted(self._disabled)})"


#: the default mask: every site enabled
ALL_SITES = ActiveSiteMask()


class SamplingPolicy:
    """Base policy: every firing fires exactly (weight 1)."""

    #: True when the executor should time each firing and feed
    #: :meth:`observe_fire` (only the throttle needs this).
    wants_timing = False

    def begin_launch(self, kernel) -> None:
        """Called at each kernel launch (state carries across launches
        by default — campaign-level policies want that)."""

    def weight(self, site_key: int, warp, cta) -> int:
        """The sampling weight of this firing: 0 skips the site, N >= 1
        fires it standing in for N firings."""
        return 1

    def observe_fire(self, seconds: float) -> None:
        """Wall-clock feedback for one fired site (timing policies)."""


class EveryNth(SamplingPolicy):
    """Deterministic 1/N sampling: per site, firing ``k`` fires iff
    ``k % n == phase`` — fully reproducible, no seed involved."""

    def __init__(self, n: int, phase: int = 0):
        if n < 1:
            raise ValueError(f"sampling period must be >= 1, got {n}")
        self.n = int(n)
        self.phase = int(phase) % self.n
        self._counts: Dict[int, int] = {}

    def weight(self, site_key: int, warp, cta) -> int:
        count = self._counts.get(site_key, 0)
        self._counts[site_key] = count + 1
        return self.n if count % self.n == self.phase else 0

    def __repr__(self) -> str:
        return f"EveryNth(n={self.n}, phase={self.phase})"


class PerWarp(SamplingPolicy):
    """Seeded 1/N warp sampling: a warp is either fully instrumented
    (every site firing in it fires, weight N) or fully dark.  Selection
    hashes ``(seed, ctaid, warp_id)`` with splitmix64, so it is
    deterministic for a given seed and uniform across warps.

    ``phase`` selects which of the N hash-residue classes fires; the N
    phases partition the warps exactly, so averaging estimates over all
    phases recovers the exact count identically (the estimator's
    full-rate limit — what the statistical suite asserts)."""

    def __init__(self, n: int, seed: int = 0, phase: int = 0):
        if n < 1:
            raise ValueError(f"sampling period must be >= 1, got {n}")
        self.n = int(n)
        self.seed = int(seed)
        self.phase = int(phase) % self.n

    def weight(self, site_key: int, warp, cta) -> int:
        if self.n == 1:
            return 1
        cx, cy, cz = warp.ctaid
        selected = (_mix(self.seed, cx, cy, cz, warp.warp_id) % self.n
                    == self.phase)
        return self.n if selected else 0

    def __repr__(self) -> str:
        return f"PerWarp(n={self.n}, seed={self.seed}, phase={self.phase})"


class PerCTA(SamplingPolicy):
    """Seeded 1/N CTA sampling: whole thread blocks are selected.

    As with :class:`PerWarp`, ``phase`` picks a hash-residue class and
    the N phases partition the CTAs exactly."""

    def __init__(self, n: int, seed: int = 0, phase: int = 0):
        if n < 1:
            raise ValueError(f"sampling period must be >= 1, got {n}")
        self.n = int(n)
        self.seed = int(seed)
        self.phase = int(phase) % self.n

    def weight(self, site_key: int, warp, cta) -> int:
        if self.n == 1:
            return 1
        cx, cy, cz = cta.ctaid
        selected = _mix(self.seed, cx, cy, cz) % self.n == self.phase
        return self.n if selected else 0

    def __repr__(self) -> str:
        return f"PerCTA(n={self.n}, seed={self.seed}, phase={self.phase})"


class TimeBudget(SamplingPolicy):
    """Throttle instrumentation to a wall-clock budget.

    Fires every ``period``-th firing (weight = period, so counters stay
    scaled estimates) and adapts the period multiplicatively: once the
    measured handler time crosses the budget the period doubles per
    decision until instrumentation is effectively dark (the budget is a
    hard ceiling — fidelity of the estimates is sacrificed, by design;
    use :class:`EveryNth`/:class:`PerWarp` when unbiased estimates
    matter more than the wall clock).  Under half the budget the period
    leans back in (÷2 per observation window).  :meth:`calibrate` seeds
    the initial period from an overhead-attribution report — the
    telemetry feedback signal: if the full-rate instrumentation
    overhead cost X seconds and the budget is B, start at 1/ceil(X/B).
    """

    wants_timing = True

    def __init__(self, budget_ms: float, window: int = 64,
                 min_period: int = 1, max_period: int = 4096):
        if budget_ms <= 0:
            raise ValueError(f"budget must be positive, got {budget_ms}")
        self.budget_s = budget_ms / 1000.0
        self.window = max(1, int(window))
        self.min_period = max(1, int(min_period))
        self.max_period = max(self.min_period, int(max_period))
        self.period = self.min_period
        self.spent = 0.0
        self.fired = 0
        self._count = 0
        self._anchor = 0
        self._window_fires = 0

    def calibrate(self, report) -> int:
        """Seed the period from an
        :class:`~repro.telemetry.attribution.AttributionReport`."""
        overhead = sum(seconds for bucket, seconds
                       in report.wall_buckets.items()
                       if bucket != "baseline")
        period = 1
        if overhead > self.budget_s:
            period = int(overhead / self.budget_s) + 1
        self.period = min(max(period, self.min_period), self.max_period)
        return self.period

    def weight(self, site_key: int, warp, cta) -> int:
        count = self._count
        self._count = count + 1
        if self.spent >= self.budget_s and self.period < self.max_period:
            # over budget: double the period per decision (skipping this
            # one) until the backoff ceiling; re-anchor so the new
            # cadence starts cleanly at the next decision
            self.period = min(self.period * 2, self.max_period)
            self._anchor = count + 1
            return 0
        return self.period \
            if (count - self._anchor) % self.period == 0 else 0

    def observe_fire(self, seconds: float) -> None:
        self.spent += seconds
        self.fired += 1
        self._window_fires += 1
        if self._window_fires < self.window:
            return
        self._window_fires = 0
        if self.spent < self.budget_s / 2 and self.period > self.min_period:
            self.period = max(self.period // 2, self.min_period)

    def __repr__(self) -> str:
        return (f"TimeBudget(budget_ms={self.budget_s * 1000:g}, "
                f"period={self.period}, spent={self.spent:.4f}s)")


def parse_sampling(text: str) -> Optional[SamplingPolicy]:
    """Parse a ``--sample`` flag value.

    Grammar: ``nth:N[,PHASE]`` | ``warp:N[,SEED]`` | ``cta:N[,SEED]``
    | ``none``.  Raises ``ValueError`` on anything else.
    """
    text = text.strip().lower()
    if text in ("", "none", "off", "1", "1/1"):
        return None
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(
            f"bad --sample value {text!r} (want kind:N, e.g. nth:16)")
    parts = rest.split(",")
    try:
        numbers = [int(p, 0) for p in parts]
    except ValueError:
        raise ValueError(f"bad --sample numbers in {text!r}") from None
    if not 1 <= len(numbers) <= 2:
        raise ValueError(f"bad --sample value {text!r}")
    n = numbers[0]
    extra = numbers[1] if len(numbers) == 2 else 0
    if kind == "nth":
        return EveryNth(n, phase=extra)
    if kind == "warp":
        return PerWarp(n, seed=extra)
    if kind == "cta":
        return PerCTA(n, seed=extra)
    raise ValueError(f"unknown --sample kind {kind!r} "
                     "(want nth, warp, or cta)")


class AdaptiveController:
    """Gates every compiled site firing on a device.

    Install with :meth:`install`; every executor the device launches
    picks it up (``Executor.run`` re-reads ``device.adaptive``).  The
    controller combines an :class:`ActiveSiteMask` (which sites may fire
    at all) with a :class:`SamplingPolicy` (how often an enabled site
    fires) and counts fired/skipped/weighted firings per site.

    Only plan-compiled sites are gated: an injected sequence the plan
    compiler could not match stays on the per-instruction path and
    always fires (a documented limitation, not a correctness hazard —
    sampling is an optimization, never a semantic change).
    """

    def __init__(self, mask: ActiveSiteMask = ALL_SITES,
                 sampling: Optional[SamplingPolicy] = None):
        self.mask = mask
        self.sampling = sampling if sampling is not None else SamplingPolicy()
        self.total_firings = 0
        self.fired: Counter = Counter()
        self.skipped: Counter = Counter()
        #: per-site sum of applied weights — the unbiased estimate of
        #: the exact firing count
        self.weighted: Counter = Counter()

    # ----------------------------------------------------- installation

    def install(self, device) -> "AdaptiveController":
        device.adaptive = self
        return self

    def uninstall(self, device) -> None:
        if getattr(device, "adaptive", None) is self:
            device.adaptive = None

    # --------------------------------------------------------- toggling

    def toggle(self, enable: Iterable[int] = (),
               disable: Iterable[int] = ()) -> ActiveSiteMask:
        """Patch the active-site mask in place (never the SASS)."""
        self.mask = self.mask.enable(enable).disable(disable)
        return self.mask

    # -------------------------------------------------- executor hooks

    @property
    def wants_timing(self) -> bool:
        return self.sampling.wants_timing

    def begin_launch(self, kernel) -> None:
        self.sampling.begin_launch(kernel)

    def observe_fire(self, seconds: float) -> None:
        self.sampling.observe_fire(seconds)

    def decide(self, plan, warp, cta) -> int:
        """The executor's gate: 0 skips the site, N fires it at rate N.

        A plan is gated by its stable site id; one that carried no
        recoverable ``bp.id`` constant falls back to a key derived from
        its position (negative, so it can never collide with a real
        site id)."""
        self.total_firings += 1
        key = plan.site_id
        if key is None:
            key = -plan.start - 1
        if key not in self.mask.disabled:
            weight = self.sampling.weight(key, warp, cta)
        else:
            weight = 0
        if weight:
            self.fired[key] += 1
            self.weighted[key] += weight
        else:
            self.skipped[key] += 1
        return weight

    # ---------------------------------------------------------- report

    def estimates(self) -> Dict[int, int]:
        """Per-site unbiased estimates of the exact firing counts."""
        return dict(self.weighted)

    def summary(self) -> Dict[str, int]:
        return {
            "total_firings": self.total_firings,
            "fired": sum(self.fired.values()),
            "skipped": sum(self.skipped.values()),
            "estimated_firings": sum(self.weighted.values()),
        }


# --------------------------------------------------------------------
# mid-run re-spec campaigns
# --------------------------------------------------------------------

#: per-process compile cache for re-spec campaigns: base spec and
#: delta-applied spec each compile at most once per worker, so a
#: re-spec costs one incremental compile, never a recompile storm.
_RESPEC_CACHE = None


def _respec_cache():
    global _RESPEC_CACHE
    if _RESPEC_CACHE is None:
        from repro.campaign.compile_cache import CompileCache

        _RESPEC_CACHE = CompileCache()
    return _RESPEC_CACHE


class SiteCountProfiler:
    """Minimal handler counting firings per stable site id.

    Uses ``bp.GetID()`` (the frame's baked site id) and scales by the
    context's ``sample_rate``, so its counts are directly comparable
    across exact, sampled, and re-specced runs.
    """

    def __init__(self, device):
        from repro.sassi.handlers import SassiRuntime

        self.device = device
        self.counts: Counter = Counter()
        self.runtime = SassiRuntime(device)
        self.runtime.register_before_handler(self.handler)

    def handler(self, ctx) -> None:
        self.counts[int(ctx.bp.GetID())] += ctx.sample_rate


@dataclass
class RespecTrialResult:
    """One trial's observation (picklable; workers return these)."""

    trial: int
    respecced: bool
    counts: Dict[int, int]
    site_ids: Tuple[int, ...]
    cache_hits: int
    cache_misses: int


@dataclass
class RespecResult:
    """A full re-spec campaign: merged counts and the invariants."""

    workload: str
    trials: int
    switch_at: int
    merged_counts: Dict[int, int] = field(default_factory=dict)
    base_site_ids: Tuple[int, ...] = ()
    respec_site_ids: Tuple[int, ...] = ()
    compile_misses: int = 0
    compile_hits: int = 0

    def common_site_ids(self) -> Tuple[int, ...]:
        """Sites instrumented under both specs — by the PR 3 invariant
        they carry the same ids before and after the re-spec."""
        common = set(self.base_site_ids) & set(self.respec_site_ids)
        return tuple(sorted(common))


def _respec_trial(task) -> RespecTrialResult:
    """One campaign trial (module-level: picklable for ``--jobs N``)."""
    from repro.campaign.compile_cache import cached_sassi_compile
    from repro.sassi.flags import spec_from_flags
    from repro.sim import Device
    from repro.workloads import make

    name, flags, delta, trial = task
    workload = make(name)
    device = Device()
    profiler = SiteCountProfiler(device)
    spec = spec_from_flags(flags)
    respecced = delta is not None
    if respecced:
        spec = delta.apply(spec)
    cache = _respec_cache()
    hits0, misses0 = cache.stats.hits, cache.stats.misses
    kernel = cached_sassi_compile(profiler.runtime, workload.build_ir(),
                                  spec, cache=cache)
    workload.execute(device, kernel)
    report = profiler.runtime.reports[-1]
    site_ids = tuple(sorted(set(report.before_site_ids)
                            | set(report.after_site_ids)))
    return RespecTrialResult(
        trial=trial,
        respecced=respecced,
        counts=dict(profiler.counts),
        site_ids=site_ids,
        cache_hits=cache.stats.hits - hits0,
        cache_misses=cache.stats.misses - misses0,
    )


def respec_campaign(workload: str,
                    flags: str = DEFAULT_RESPEC_FLAGS,
                    delta: Optional[SpecDelta] = None,
                    trials: int = 8,
                    switch_at: Optional[int] = None,
                    jobs: int = 1) -> RespecResult:
    """Run *trials* trials of the site-count profiler over *workload*;
    from trial *switch_at* on, the spec delta is applied (a running
    campaign picking up a re-spec).  Merging is order-independent
    (plain counter addition over task-ordered results), so serial and
    ``jobs=N`` runs produce identical :class:`RespecResult`\\ s.
    """
    from repro.campaign.engine import run_tasks

    if delta is None:
        delta = SpecDelta()
    if switch_at is None:
        switch_at = trials // 2
    tasks = [(workload, flags, delta if index >= switch_at else None, index)
             for index in range(trials)]
    results = run_tasks(_respec_trial, tasks, jobs=jobs)

    merged: Counter = Counter()
    base_ids: Tuple[int, ...] = ()
    respec_ids: Tuple[int, ...] = ()
    hits = misses = 0
    for result in results:
        merged.update(result.counts)
        hits += result.cache_hits
        misses += result.cache_misses
        if result.respecced:
            respec_ids = result.site_ids
        else:
            base_ids = result.site_ids
    return RespecResult(
        workload=workload,
        trials=trials,
        switch_at=switch_at,
        merged_counts=dict(sorted(merged.items())),
        base_site_ids=base_ids,
        respec_site_ids=respec_ids,
        compile_hits=hits,
        compile_misses=misses,
    )
