"""Telemetry core: hot-loop counters, spans, and cross-process merges."""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.backend import ptxas
from repro.handlers import OpcodeHistogram
from repro.sassi import SassiRuntime, spec_from_flags
from repro.sim import Device, DeviceFault, Dim3
from repro.telemetry import OPCLASS_KEY, TELEMETRY, span
from repro.workloads import make

from tests.conftest import build_vecadd, run_vecadd


@pytest.fixture(autouse=True)
def clean_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


def _completed_launches(name):
    """Every launch of a workload run to completion."""
    workload = make(name)
    kernel = ptxas(workload.build_ir())
    output = workload.execute(Device(), kernel)
    assert workload.verify(output)
    return workload.last_trace.launches


def _handler_fault_launch():
    """The launch in which a handler raises on its 60th call."""
    calls = []

    def handler(ctx):
        calls.append(ctx.num_active)
        if len(calls) == 60:
            raise DeviceFault("handler fault")

    workload = make("rodinia/nn")
    device = Device()
    runtime = SassiRuntime(device)
    runtime.register_before_handler(handler)
    kernel = runtime.compile(workload.build_ir(),
                             spec_from_flags(OpcodeHistogram.FLAGS))
    with pytest.raises(DeviceFault, match="handler fault"):
        workload.execute(device, kernel)
    return [device.last_stats]


def _block_fault_launch():
    """A vecadd launch whose store faults on the last record of a fused
    superblock (the output pointer is null)."""
    device = Device()
    n = 256
    a = device.alloc_array(np.ones(n, dtype=np.float32))
    with pytest.raises(DeviceFault, match="outside"):
        device.launch(ptxas(build_vecadd()), Dim3(2), Dim3(128),
                      [n, a, a, 0])
    return [device.last_stats]


_LAUNCHES = {
    "vectoradd": lambda: _completed_launches("vectoradd"),
    "rodinia/nn": lambda: _completed_launches("rodinia/nn"),
    "rodinia/pathfinder": lambda: _completed_launches("rodinia/pathfinder"),
    "handler_fault": _handler_fault_launch,
    "block_fault": _block_fault_launch,
}


class TestDispatchCounters:
    """The acceptance criterion: per-opcode-class counter totals equal
    the executor's KernelStats ground truth, exactly — on completed and
    on aborted launches."""

    @pytest.mark.parametrize("case", list(_LAUNCHES))
    def test_counters_match_kernel_stats(self, case):
        TELEMETRY.enable(reset=True)
        launches = _LAUNCHES[case]()
        TELEMETRY.disable()

        def by_class(stats_list):
            expected = Counter()
            for stats in stats_list:
                for opcode, count in stats.opcode_counts.items():
                    expected[OPCLASS_KEY[opcode]] += count
            return dict(expected)

        # each launch's counters are the deltas of its "launch" span
        spans = [root for root in TELEMETRY.roots if root.name == "launch"]
        if case in ("handler_fault", "block_fault"):
            spans = spans[-1:]
        else:
            assert len(spans) == len(launches)
            observed = {key: value
                        for key, value in TELEMETRY.counters.items()
                        if key.startswith("instr.")}
            assert observed == by_class(launches)
            assert sum(observed.values()) \
                == sum(stats.warp_instructions for stats in launches)
        for stats, node in zip(launches, spans):
            observed = {key: value for key, value in node.counters.items()
                        if key.startswith("instr.")}
            assert observed == by_class([stats])
            assert sum(observed.values()) == stats.warp_instructions
            sassi = sum(value for key, value in node.counters.items()
                        if key.startswith("sassi.")
                        and key != "sassi.sampled_skipped")
            assert sassi == stats.sassi_warp_instructions

    def test_sassi_counters_cover_injected_instructions(self):
        runtime = SassiRuntime(Device(), poison_caller_saved=False)
        runtime.register_before_handler(lambda ctx: None)
        kernel = runtime.compile(
            build_vecadd(),
            spec_from_flags("-sassi-inst-before=memory "
                            "-sassi-before-args=mem-info"))
        TELEMETRY.enable(reset=True)
        a, b, out, stats = run_vecadd(runtime.device, kernel)
        TELEMETRY.disable()
        assert np.allclose(out, a + b)
        sassi_total = sum(value for key, value in TELEMETRY.counters.items()
                          if key.startswith("sassi."))
        assert sassi_total == stats.sassi_warp_instructions
        assert TELEMETRY.counters.get("sassi.spill", 0) > 0
        assert TELEMETRY.counters.get("sassi.fill", 0) > 0
        assert TELEMETRY.counters.get("sassi.param_marshal", 0) > 0
        assert TELEMETRY.counters[
            "handler.invocations.sassi_before_handler"] > 0

    def test_disabled_records_nothing_and_output_is_identical(self):
        kernel_off = ptxas(build_vecadd())
        a, b, off_out, off_stats = run_vecadd(Device(), kernel_off)
        assert TELEMETRY.counters == {}

        TELEMETRY.enable(reset=True)
        kernel_on = ptxas(build_vecadd())
        _, _, on_out, on_stats = run_vecadd(Device(), kernel_on)
        TELEMETRY.disable()
        assert TELEMETRY.counters  # telemetry actually recorded this time
        assert off_out.tobytes() == on_out.tobytes()
        assert off_stats.warp_instructions == on_stats.warp_instructions
        assert off_stats.opcode_counts == on_stats.opcode_counts


class TestSpans:
    def test_nesting_and_counter_deltas(self):
        TELEMETRY.enable(reset=True)
        with span("outer", tag="x"):
            TELEMETRY.incr("custom.a", 2)
            with span("inner"):
                TELEMETRY.incr("custom.a", 3)
                TELEMETRY.add_time("t", 0.5)
        TELEMETRY.disable()
        assert len(TELEMETRY.roots) == 1
        outer = TELEMETRY.roots[0]
        assert outer.name == "outer" and outer.meta == {"tag": "x"}
        assert outer.counters["custom.a"] == 5  # children included
        (inner,) = outer.children
        assert inner.counters["custom.a"] == 3
        assert inner.timers["t"] == pytest.approx(0.5)
        assert outer.wall >= inner.wall >= 0.0
        assert [node.name for node in outer.walk()] == ["outer", "inner"]

    def test_disabled_span_is_a_noop(self):
        with span("ghost") as node:
            assert node is None
        assert TELEMETRY.roots == []
        assert TELEMETRY._stack == []

    def test_launch_span_recorded_per_kernel_launch(self):
        TELEMETRY.enable(reset=True)
        kernel = ptxas(build_vecadd())
        run_vecadd(Device(), kernel)
        TELEMETRY.disable()
        assert [root.name for root in TELEMETRY.roots] == ["launch"]
        assert TELEMETRY.roots[0].meta["kernel"] == "vecadd"
        assert sum(value for key, value
                   in TELEMETRY.roots[0].counters.items()
                   if key.startswith("instr.")) > 0


class TestSnapshotMerge:
    def test_delta_since_then_merge_reproduces_totals(self):
        TELEMETRY.enable(reset=True)
        TELEMETRY.incr("pre.existing", 100)  # must not leak into delta
        mark = TELEMETRY.mark()
        with span("work", workload="w"):
            TELEMETRY.incr("k", 7)
            TELEMETRY.add_time("t", 1.5)
        snapshot = TELEMETRY.delta_since(mark)
        assert snapshot.counters == {"k": 7}
        assert snapshot.timers == {"t": 1.5}
        assert [node.name for node in snapshot.spans] == ["work"]

        snapshot = pickle.loads(pickle.dumps(snapshot))  # worker transport
        TELEMETRY.enable(reset=True)
        TELEMETRY.merge_snapshot(snapshot)
        TELEMETRY.disable()
        assert TELEMETRY.counters == {"k": 7}
        assert [root.name for root in TELEMETRY.roots] == ["work"]

    def test_merge_under_open_span_attaches_as_child(self):
        TELEMETRY.enable(reset=True)
        mark = TELEMETRY.mark()
        with span("task"):
            TELEMETRY.incr("k", 1)
        snapshot = TELEMETRY.delta_since(mark)
        TELEMETRY.reset()
        with span("campaign"):
            TELEMETRY.merge_snapshot(snapshot)
        TELEMETRY.disable()
        (campaign,) = TELEMETRY.roots
        assert [child.name for child in campaign.children] == ["task"]


def _span_shape(node):
    """Structure + deterministic payload (no wall-clock)."""
    return (node.name, tuple(sorted(node.meta.items())),
            tuple(sorted(node.counters.items())),
            tuple(_span_shape(child) for child in node.children))


class TestSerialParallelEquivalence:
    """Span trees and counter totals from ``--jobs 4`` must merge to
    exactly the serial result."""

    NAMES = ["rodinia/nn", "rodinia/pathfinder", "rodinia/hotspot",
             "parboil/sgemm(small)"]

    def _run(self, jobs):
        from repro.studies.casestudy3 import run

        TELEMETRY.enable(reset=True)
        rows = run(self.NAMES, jobs=jobs, use_cache=False)
        TELEMETRY.disable()
        counters = dict(TELEMETRY.counters)
        shapes = [_span_shape(root) for root in TELEMETRY.roots]
        return rows, counters, shapes

    def test_jobs4_equals_serial(self):
        serial_rows, serial_counters, serial_shapes = self._run(jobs=1)
        parallel_rows, parallel_counters, parallel_shapes = \
            self._run(jobs=4)
        assert parallel_counters == serial_counters
        assert parallel_shapes == serial_shapes
        assert [row.benchmark for row in parallel_rows] \
            == [row.benchmark for row in serial_rows]
