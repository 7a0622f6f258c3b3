"""Aborted launches keep complete statistics.

Fused superblocks and compiled site plans fold their opcode histograms
into :class:`KernelStats` once per launch, when it ends.  A launch that
aborts — the watchdog's :class:`HangDetected`, or a :class:`DeviceFault`
caused by an injected error — must still leave ``Device.last_stats``
exactly as per-instruction dispatch leaves it, because fault campaigns
read statistics from faulted runs.
"""

from __future__ import annotations

import pytest

import repro.sim.device as device_mod
from repro.handlers import OpcodeHistogram
from repro.handlers.error_injection import (ErrorInjectionCampaign,
                                            InjectionOutcome)
from repro.sassi import SassiRuntime, spec_from_flags
from repro.sim import Device, DeviceFault, HangDetected
from repro.sim.executor import Executor, SimConfig
from repro.workloads import make

pytestmark = pytest.mark.noskip

UNFUSED = {"fuse_blocks": False, "fuse_handler_calls": False}


class _BoundaryRecorder(Executor):
    """Records the watchdog count at every fused-unit entry of the
    first launch — the instruction counts at which a fused run and a
    per-instruction run can both stop."""

    boundaries: list = []

    def run(self, kernel, grid, block, shared_bytes=0):
        self._record = not type(self).boundaries
        return super().run(kernel, grid, block, shared_bytes)

    def _execute_block(self, block, warp, cta, counter):
        if self._record:
            type(self).boundaries.append(self._watchdog)
        super()._execute_block(block, warp, cta, counter)

    def _execute_site(self, plan, warp, cta, counter):
        if self._record:
            type(self).boundaries.append(self._watchdog)
        super()._execute_site(plan, warp, cta, counter)


def _histogram_run(config: SimConfig):
    workload = make("rodinia/nn")
    device = Device(config=config)
    profiler = OpcodeHistogram(device)
    kernel = profiler.compile(workload.build_ir())
    with pytest.raises(HangDetected):
        workload.execute(device, kernel)
    return device.last_stats


def test_watchdog_abort_folds_every_completed_visit(monkeypatch):
    _BoundaryRecorder.boundaries = []
    monkeypatch.setattr(device_mod, "Executor", _BoundaryRecorder)
    workload = make("rodinia/nn")
    device = Device()
    workload.execute(device,
                     OpcodeHistogram(device).compile(workload.build_ir()))
    monkeypatch.undo()
    boundaries = _BoundaryRecorder.boundaries
    assert len(boundaries) > 100
    # abort mid-launch, where fused dispatch has folded many visits
    limit = boundaries[len(boundaries) // 2]

    fused = _histogram_run(SimConfig(max_warp_instructions=limit))
    reference = _histogram_run(
        SimConfig(max_warp_instructions=limit, **UNFUSED))
    assert sum(fused.opcode_counts.values()) == limit
    assert fused.opcode_counts == reference.opcode_counts
    assert fused == reference


class _ConfiguredCampaign(ErrorInjectionCampaign):
    def __init__(self, config: SimConfig, **kwargs):
        super().__init__(**kwargs)
        self.config = config
        self.devices = []

    def _new_device(self) -> Device:
        device = Device(config=self.config)
        self.devices.append(device)
        return device


def _crashed_stats(config: SimConfig):
    campaign = _ConfiguredCampaign(config, workload=make("rodinia/nn"),
                                   workload_name="rodinia/nn",
                                   use_cache=False)
    # flips the top bit of an address register: the next load faults
    record = campaign.inject_once(target_event=1536, dst_seed=0,
                                  bit_seed=31)
    assert record.outcome is InjectionOutcome.CRASH, record
    return campaign.devices[-1].last_stats


def test_device_fault_abort_folds_the_faulting_prefix():
    fused = _crashed_stats(SimConfig())
    reference = _crashed_stats(SimConfig(**UNFUSED))
    assert fused.handler_calls > 0
    assert fused.opcode_counts == reference.opcode_counts
    assert fused == reference


def _handler_fault_stats(config: SimConfig):
    calls = []

    def handler(ctx):
        calls.append(ctx.num_active)
        if len(calls) == 60:
            raise DeviceFault("handler fault")

    workload = make("rodinia/nn")
    device = Device(config=config)
    runtime = SassiRuntime(device)
    runtime.register_before_handler(handler)
    kernel = runtime.compile(workload.build_ir(),
                             spec_from_flags(OpcodeHistogram.FLAGS))
    with pytest.raises(DeviceFault, match="handler fault"):
        workload.execute(device, kernel)
    return device.last_stats


def test_handler_fault_folds_through_the_call():
    """A handler that raises leaves its site counted up to the JCAL."""
    fused = _handler_fault_stats(SimConfig())
    reference = _handler_fault_stats(SimConfig(**UNFUSED))
    assert fused.handler_calls == 60
    assert fused == reference
