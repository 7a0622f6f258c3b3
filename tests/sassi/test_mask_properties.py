"""Property tests for the runtime active-site mask.

Three layers, from pure algebra to full-system invisibility:

1. **Mask algebra** (hypothesis, pure): ``ActiveSiteMask`` is a value —
   ``enable(disable(S))`` round-trips, ``disable`` is commutative,
   associative-by-union, and idempotent, and equality/hash follow the
   disabled set alone.
2. **Gating commutes with plan fusion** (hypothesis over stub plans,
   plus a real fused workload): the controller gates by the *stable*
   site id baked into the fused plan's ``bp.id`` constant, so disabling
   a set of sites removes exactly those sites' firings from a fused run
   — the per-site counts of a toggled run are the full run's counts
   restricted to the enabled sites, whatever the fusion layout did.
3. **Toggled-off sites are invisible** (the PR 1 no-op-invisibility
   machinery): an instrumented run with every site disabled leaves the
   workload output, all of global memory, and the original kernel's
   preserved registers at EXIT bit-identical to the uninstrumented run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.device as device_mod
from repro.backend import ptxas
from repro.sassi import SassiRuntime, spec_from_flags
from repro.sassi.abi import CALLER_SAVED
from repro.sassi.runtime import (
    ALL_SITES,
    ActiveSiteMask,
    AdaptiveController,
    DEFAULT_RESPEC_FLAGS,
    SiteCountProfiler,
)
from repro.sim import Device
from repro.sim.executor import Executor
from repro.workloads import make

pytestmark = pytest.mark.noskip

site_ids = st.sets(st.integers(min_value=0, max_value=255), max_size=24)


# ----------------------------------------------------------- algebra

@settings(max_examples=200, deadline=None)
@given(a=site_ids, b=site_ids)
def test_enable_disable_round_trip(a, b):
    mask = ActiveSiteMask(a)
    assert mask.disable(b).enable(b).disabled == a - b
    # re-disabling what was disabled is the identity
    assert mask.enable(b).disable(b).disabled == a | b


@settings(max_examples=200, deadline=None)
@given(a=site_ids, b=site_ids, c=site_ids)
def test_disable_commutes_and_merges(a, b, c):
    mask = ActiveSiteMask(c)
    assert mask.disable(a).disable(b) == mask.disable(b).disable(a)
    assert mask.disable(a).disable(b) == mask.disable(a | b)
    assert mask.disable(a).disable(a) == mask.disable(a)


@settings(max_examples=200, deadline=None)
@given(a=site_ids, s=st.integers(min_value=0, max_value=255))
def test_enabled_is_set_membership(a, s):
    mask = ActiveSiteMask(a)
    assert mask.enabled(s) == (s not in a)
    assert not mask.disable([s]).enabled(s)
    assert mask.enable([s]).enabled(s)


@settings(max_examples=200, deadline=None)
@given(a=site_ids)
def test_mask_value_semantics(a):
    assert ActiveSiteMask(a) == ActiveSiteMask(sorted(a))
    assert hash(ActiveSiteMask(a)) == hash(ActiveSiteMask(sorted(a)))
    assert ActiveSiteMask(a).enable(a) == ALL_SITES


# ------------------------------------- gating at the controller gate

class _StubPlan:
    """Just the attributes the controller's gate reads."""

    def __init__(self, site_id, start=0, length=4):
        self.site_id = site_id
        self.start = start
        self.length = length


@settings(max_examples=200, deadline=None)
@given(disabled=site_ids, sites=st.lists(
    st.integers(min_value=0, max_value=255), min_size=1, max_size=32))
def test_decide_honors_mask_per_site(disabled, sites):
    """decide() fires exactly the enabled sites, whatever order plans
    arrive in — fused plans carry their site id, so gating commutes
    with how the fusion pass grouped the instructions."""
    controller = AdaptiveController(mask=ActiveSiteMask(disabled))
    for site in sites:
        weight = controller.decide(_StubPlan(site), None, None)
        assert weight == (0 if site in disabled else 1)
    assert controller.total_firings == len(sites)


@settings(max_examples=200, deadline=None)
@given(disabled=site_ids, starts=st.lists(
    st.integers(min_value=0, max_value=1 << 20),
    min_size=1, max_size=16, unique=True))
def test_anonymous_plans_never_collide_with_site_ids(disabled, starts):
    """Plans without a recoverable ``bp.id`` get negative keys, so a
    real site id can never accidentally gate them."""
    controller = AdaptiveController(mask=ActiveSiteMask(disabled))
    for start in starts:
        plan = _StubPlan(site_id=None, start=start)
        assert controller.decide(plan, None, None) == 1
    assert all(key < 0 for key in controller.fired)


@settings(max_examples=100, deadline=None)
@given(disabled=site_ids, site=st.integers(min_value=0, max_value=255))
def test_toggle_matches_mask_algebra(disabled, site):
    """Controller.toggle is exactly the mask algebra."""
    controller = AdaptiveController(mask=ActiveSiteMask(disabled))
    controller.toggle(disable=[site])
    assert controller.mask == ActiveSiteMask(disabled).disable([site])
    controller.toggle(enable=[site])
    assert controller.mask == ActiveSiteMask(disabled).enable([site])


# ----------------------------- fused-run per-site gating is precise

def _site_counts(name, disable=None):
    """Per-site firing counts of *name* under ``SiteCountProfiler``,
    with an optional set of sites disabled before launch."""
    workload = make(name)
    device = Device()
    controller = AdaptiveController()
    controller.install(device)
    profiler = SiteCountProfiler(device)
    spec = spec_from_flags(DEFAULT_RESPEC_FLAGS)
    kernel = profiler.runtime.compile(workload.build_ir(), spec)
    if disable:
        controller.toggle(disable=disable)
    workload.execute(device, kernel)
    return dict(profiler.counts), controller


_FULL_COUNTS: dict = {}


def _full_counts(name):
    if name not in _FULL_COUNTS:
        _FULL_COUNTS[name] = _site_counts(name)[0]
    return _FULL_COUNTS[name]


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_mask_patch_commutes_with_plan_fusion(data):
    """On a real fused run, disabling a subset of sites yields exactly
    the full run's per-site counts restricted to the enabled sites —
    the fusion pass can group sites however it likes, the mask still
    addresses each site individually."""
    name = "vectoradd"
    full = _full_counts(name)
    subset = data.draw(st.sets(st.sampled_from(sorted(full))),
                       label="disabled sites")
    toggled, controller = _site_counts(name, disable=subset)
    assert toggled == {site: count for site, count in full.items()
                       if site not in subset}
    assert sum(controller.fired.values()) \
        == sum(count for site, count in full.items() if site not in subset)
    assert sum(controller.skipped.values()) \
        == sum(count for site, count in full.items() if site in subset)


# ------------------------------------ toggled-off sites are invisible

HEAVY_FLAGS = ("-sassi-inst-before=all "
               "-sassi-before-args=mem-info,reg-info,cond-branch-info")


class _SnapshotExecutor(Executor):
    """Executor that snapshots each warp's registers when it exits
    (the PR 1 no-op-invisibility machinery)."""

    snapshots: list = []

    def _run_warp(self, warp, cta):
        super()._run_warp(warp, cta)
        if warp.done:
            type(self).snapshots.append(warp.regs.copy())


@pytest.fixture(autouse=True)
def _snapshot_launches(monkeypatch):
    monkeypatch.setattr(device_mod, "Executor", _SnapshotExecutor)


def _run_workload(name, instrumented=False, disable_all=False):
    """One complete run; returns (output, global memory, exit regs,
    controller)."""
    workload = make(name)
    device = Device()
    controller = None
    ir = workload.build_ir()
    if not instrumented:
        kernel = ptxas(ir)
        num_regs = kernel.num_regs
    else:
        controller = AdaptiveController()
        controller.install(device)
        runtime = SassiRuntime(device, poison_caller_saved=False)
        runtime.register_before_handler(lambda ctx: None)
        kernel = runtime.compile(ir, spec_from_flags(HEAVY_FLAGS))
        if disable_all:
            controller.toggle(
                disable=runtime.reports[-1].before_site_ids)
        num_regs = ptxas(workload.build_ir()).num_regs
    _SnapshotExecutor.snapshots = []
    output = workload.execute(device, kernel)
    preserved = [r for r in range(num_regs) if r not in CALLER_SAVED]
    regs = [snap[preserved] for snap in _SnapshotExecutor.snapshots]
    return output, device.global_mem.data.copy(), regs, controller


@pytest.mark.parametrize("name", ["rodinia/nn", "parboil/sgemm(small)"])
def test_toggled_off_sites_are_invisible(name):
    base_out, base_mem, base_regs, _ = _run_workload(name)
    inst_out, inst_mem, inst_regs, controller = _run_workload(
        name, instrumented=True, disable_all=True)
    assert np.array_equal(base_out, inst_out), \
        f"{name}: output differs with every site toggled off"
    assert np.array_equal(base_mem, inst_mem), \
        f"{name}: global memory differs with every site toggled off"
    assert len(base_regs) == len(inst_regs)
    for index, (base, inst) in enumerate(zip(base_regs, inst_regs)):
        assert np.array_equal(base, inst), \
            f"{name}: exit registers differ (warp exit #{index})"
    # the gate actually did the work: everything skipped, nothing fired
    assert sum(controller.fired.values()) == 0
    assert sum(controller.skipped.values()) > 0
