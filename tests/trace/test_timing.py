"""The timing differential suite.

Three layers:

1. **Segmentation** (synthetic event streams): the warp-stream
   reconstruction recovers CTA/warp boundaries, barrier passes,
   partial-exit fall-throughs, and divergence flags from warp-ID-less
   traces.
2. **Live == replay, bit-identically** (the satellite): one capture
   run tee'd through a live :class:`TimingModel` and an offline replay
   of the very same trace produce identical reports — cycles, bubbles,
   hotspots — on three workloads under both issue policies.  On real
   workloads the reconstruction is also cross-checked against the
   executor: instruction totals match ``warp_instructions`` and
   scheduler barrier releases match ``KernelStats.barriers``.
3. **Timing is invisible** (the other satellite half): capturing with
   the tee leaves the trace bytes, workload output, KernelStats, and
   telemetry counters byte-identical to a plain capture — enabling
   timing cannot perturb seed behavior.

Plus the acceptance scenario: a synthetic stall-heavy single-warp
kernel whose injected DRAM-latency bubble must surface in
``repro trace summary``.
"""

from __future__ import annotations

import filecmp

import numpy as np
import pytest

from repro.backend import ptxas
from repro.cli import main
from repro.isa.opcodes import Opcode
from repro.isa.program import INSTRUCTION_BYTES
from repro.sim import Device
from repro.sim.scheduler import DRAM_LATENCY
from repro.telemetry.collector import TELEMETRY
from repro.trace.capture import TraceRecorder
from repro.trace.format import (
    InstrEvent,
    KernelEndEvent,
    LaunchEvent,
    MEM_FLAG_LOAD,
    MemEvent,
)
from repro.trace.io import TraceReader, TraceWriter
from repro.trace.replay import replay
from repro.trace.timing import (
    TeeWriter,
    TimingAnalysis,
    TimingModel,
    live_timing,
    render_iters,
    render_summary,
)
from repro.workloads import make
from tests.timing_oracle import warp_streams

pytestmark = pytest.mark.noskip

WORKLOADS = [
    "rodinia/nn",
    "rodinia/pathfinder",
    "parboil/sgemm(small)",
]

POLICIES = ("gto", "lrr")


# ---------------------------------------------------------------- helpers

def _instr(addr, opcode, lanes=32):
    return InstrEvent(ins_addr=addr, opcode=opcode.value, lanes=lanes,
                      width=4)


def _launch(block_threads, ctas=1, index=0, kernel="k"):
    return LaunchEvent(kernel=kernel, grid=(ctas, 1, 1),
                       block=(block_threads, 1, 1), launch_index=index)


def _feed(events):
    model = TimingModel()
    model.feed_batch(events)
    model.finish()
    return model


def _stream_opcodes(model):
    """[[ [opcode per instr] per warp ] per CTA] of the last launch."""
    builder = model.launches[-1]
    return [[[i.opcode for i in s.instrs] for s in streams]
            for streams in warp_streams(builder)]


# ------------------------------------------------------- 1. segmentation

class TestSegmentation:
    def test_two_warps_sequential_exits(self):
        b = INSTRUCTION_BYTES
        events = [_launch(64)]
        for _warp in range(2):
            events += [_instr(0, Opcode.IADD), _instr(b, Opcode.EXIT)]
        events.append(KernelEndEvent(warp_instructions=4))
        model = _feed(events)
        assert _stream_opcodes(model) == [[
            [Opcode.IADD, Opcode.EXIT], [Opcode.IADD, Opcode.EXIT]]]

    def test_partial_exit_falls_through_same_warp(self):
        b = INSTRUCTION_BYTES
        events = [
            _launch(32),
            _instr(0, Opcode.EXIT, lanes=32),   # some lanes exit...
            _instr(b, Opcode.IADD, lanes=7),    # ...survivors continue
            _instr(2 * b, Opcode.EXIT, lanes=7),
            KernelEndEvent(warp_instructions=3),
        ]
        model = _feed(events)
        assert _stream_opcodes(model) == [[
            [Opcode.EXIT, Opcode.IADD, Opcode.EXIT]]]

    def test_barrier_passes_round_robin(self):
        b = INSTRUCTION_BYTES
        pre = [Opcode.IADD, Opcode.BAR]
        post = [Opcode.FMUL, Opcode.EXIT]
        events = [_launch(64)]
        for _warp in range(2):          # pass 1: both warps park
            events += [_instr(i * b, op) for i, op in enumerate(pre)]
        for _warp in range(2):          # release; pass 2: both retire
            events += [_instr((2 + i) * b, op)
                       for i, op in enumerate(post)]
        events.append(KernelEndEvent(warp_instructions=8))
        model = _feed(events)
        assert _stream_opcodes(model) == [[pre + post, pre + post]]
        report = model.schedule("gto")
        assert report.launches[0].schedule.barrier_releases == 1

    def test_multiple_ctas_split_at_entry(self):
        b = INSTRUCTION_BYTES
        per_warp = [Opcode.IADD, Opcode.EXIT]
        events = [_launch(32, ctas=3)]
        for _cta in range(3):
            events += [_instr(i * b, op) for i, op in enumerate(per_warp)]
        events.append(KernelEndEvent(warp_instructions=6))
        model = _feed(events)
        assert _stream_opcodes(model) == [[per_warp]] * 3
        assert model.schedule("gto").launches[0].ctas == 3

    def test_divergence_flags_and_rebase(self):
        b = INSTRUCTION_BYTES
        events = [
            _launch(32),
            _instr(0, Opcode.IADD, lanes=32),
            _instr(b, Opcode.IADD, lanes=12),      # divergent
            _instr(2 * b, Opcode.IADD, lanes=32),  # reconverged
            _instr(3 * b, Opcode.EXIT, lanes=32),  # most lanes exit
            _instr(4 * b, Opcode.IADD, lanes=4),   # survivors: re-based
            _instr(5 * b, Opcode.EXIT, lanes=4),
            KernelEndEvent(warp_instructions=6),
        ]
        model = _feed(events)
        (cta,) = warp_streams(model.launches[-1])
        flags = [i.divergent for i in cta[0].instrs]
        assert flags == [False, True, False, False, False, False]

    def test_unwind_continues_same_warp(self):
        b = INSTRUCTION_BYTES
        events = [
            _launch(64),
            _instr(0, Opcode.IADD),
            # EXIT whose continuation is neither addr+8 nor another
            # warp's start: a divergence-stack unwind target
            _instr(b, Opcode.EXIT, lanes=9),
            _instr(5 * b, Opcode.IADD, lanes=23),
            _instr(6 * b, Opcode.EXIT, lanes=23),
            _instr(0, Opcode.IADD),               # warp 1 starts fresh
            _instr(b, Opcode.EXIT, lanes=32),
            KernelEndEvent(warp_instructions=6),
        ]
        model = _feed(events)
        streams = _stream_opcodes(model)
        assert [len(s) for s in streams[0]] == [4, 2]

    def test_instruction_totals_always_conserved(self):
        b = INSTRUCTION_BYTES
        events = [_launch(96, ctas=2)]
        for _cta in range(2):
            for _warp in range(3):
                events += [_instr(0, Opcode.IADD),
                           _instr(b, Opcode.EXIT)]
        events.append(KernelEndEvent(warp_instructions=12))
        model = _feed(events)
        builder = model.launches[-1]
        streamed = sum(len(s.instrs) for streams in warp_streams(builder)
                       for s in streams)
        assert streamed == builder.instr_count == 12
        assert builder.desyncs == 0


# --------------------------------------- 2. live == replay differential

@pytest.fixture(scope="module", params=WORKLOADS)
def captured(request, tmp_path_factory):
    """One capture run per workload, tee'd through a live TimingModel;
    returns (name, trace_path, live_model, stats_list)."""
    name = request.param
    path = str(tmp_path_factory.mktemp("timing")
               / (name.replace("/", "_") + ".rptrace"))
    live = TimingModel()
    workload = make(name)
    device = Device()
    stats_list = []
    device.on_kernel_exit(lambda _d, _k, stats: stats_list.append(stats))
    writer = TraceWriter(path)
    recorder = TraceRecorder(device, TeeWriter(writer, live))
    kernel = recorder.compile(workload.build_ir())
    output = workload.execute(device, kernel)
    assert workload.verify(output)
    recorder.writer.close()
    return name, path, live, stats_list


class TestLiveReplayDifferential:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_replay_timing_is_bit_identical_to_live(self, captured,
                                                    policy):
        name, path, live, _stats = captured
        analysis = TimingAnalysis(policy=policy)
        replay(path, [analysis])
        replayed = analysis.model.schedule(policy)
        reference = live.schedule(policy)
        assert len(replayed.launches) == len(reference.launches)
        for got, want in zip(replayed.launches, reference.launches):
            assert got.cycles == want.cycles, name
            assert got.schedule.busy_cycles == want.schedule.busy_cycles
            assert got.schedule.stall_cycles == want.schedule.stall_cycles
            assert [(b.cta, b.start, b.cycles, b.reason, b.addr)
                    for b in got.schedule.bubbles] == \
                   [(b.cta, b.start, b.cycles, b.reason, b.addr)
                    for b in want.schedule.bubbles]
            assert {a: (h.issues, h.issue_cycles, h.stall_cycles)
                    for a, h in got.schedule.hotspots.items()} == \
                   {a: (h.issues, h.issue_cycles, h.stall_cycles)
                    for a, h in want.schedule.hotspots.items()}
            assert got.spans == want.spans
        assert render_summary(replayed) == render_summary(reference)
        assert render_iters(replayed) == render_iters(reference)

    def test_reconstruction_matches_executor_truth(self, captured):
        name, _path, live, stats_list = captured
        # instruction conservation against the executor's own counts
        # (warp_instructions includes the injected SASSI instructions;
        # traced events cover only the application's)
        for builder, stats in zip(live.launches, stats_list):
            app_instrs = (stats.warp_instructions
                          - stats.sassi_warp_instructions)
            assert builder.instr_count == app_instrs, name
            assert builder.desyncs == 0
            streamed = sum(len(s.instrs)
                           for streams in warp_streams(builder)
                           for s in streams)
            assert streamed == builder.instr_count
        # barrier releases match the executor's barrier count
        report = live.schedule("gto")
        for launch, stats in zip(report.launches, stats_list):
            assert launch.schedule.barrier_releases == stats.barriers


class TestTimingIsInvisible:
    def test_tee_leaves_seed_behavior_byte_identical(self, tmp_path):
        """Capturing with the timing tee produces the same trace bytes,
        output, stats, and telemetry as a plain capture."""
        name = "rodinia/nn"

        def run(with_timing: bool):
            path = str(tmp_path / f"t{int(with_timing)}.rptrace")
            workload = make(name)
            device = Device()
            stats_list = []
            device.on_kernel_exit(
                lambda _d, _k, stats: stats_list.append(stats))
            writer = TraceWriter(path)
            sink = TeeWriter(writer, TimingModel()) if with_timing \
                else writer
            TELEMETRY.enable(reset=True)
            try:
                recorder = TraceRecorder(device, sink)
                kernel = recorder.compile(workload.build_ir())
                output = workload.execute(device, kernel)
                counters = dict(TELEMETRY.counters)
            finally:
                TELEMETRY.disable()
                TELEMETRY.reset()
            sink.close()
            return path, output, stats_list, counters

        plain_path, plain_out, plain_stats, plain_tel = run(False)
        timed_path, timed_out, timed_stats, timed_tel = run(True)
        assert filecmp.cmp(plain_path, timed_path, shallow=False), \
            "timing tee changed the trace bytes"
        np.testing.assert_array_equal(plain_out, timed_out)
        assert plain_stats == timed_stats
        assert plain_tel == timed_tel

    def test_timing_needs_no_executor_cooperation(self):
        """The fast path knows nothing about timing: an uninstrumented
        run still produces the flat cycle counts it always did."""
        workload = make("vectoradd")
        device = Device()
        workload.execute(device, ptxas(workload.build_ir()))
        assert workload.last_trace.cycles > 0


# ------------------------------- 3. synthetic stall-heavy acceptance

class TestStallHeavyKernel:
    @pytest.fixture
    def stall_trace(self, tmp_path):
        """A hand-built single-warp kernel with one DRAM-missing load
        feeding a dependent chain: the bubble is the load's latency."""
        b = INSTRUCTION_BYTES
        path = str(tmp_path / "stall.rptrace")
        line = 1 << 20
        with TraceWriter(path) as writer:
            writer.write(_launch(32, kernel="stallheavy"))
            writer.write(_instr(0, Opcode.IADD))
            writer.write(_instr(b, Opcode.LDG))
            writer.write(MemEvent(ins_addr=b, flags=MEM_FLAG_LOAD,
                                  width=4, active_lanes=32,
                                  line_addresses=(line,)))
            writer.write(_instr(2 * b, Opcode.IADD))
            writer.write(_instr(3 * b, Opcode.IADD))   # waits on the LDG
            writer.write(_instr(4 * b, Opcode.EXIT))
            writer.write(KernelEndEvent(warp_instructions=5))
        return path

    def test_summary_reports_the_injected_bubble(self, stall_trace,
                                                 capsys):
        assert main(["trace", "summary", stall_trace]) == 0
        out = capsys.readouterr().out
        assert "kernel stallheavy" in out
        assert "mem_dep" in out
        # the bubble region names the cold-missing load
        assert f"on 0x{INSTRUCTION_BYTES:08x} LDG" in out

    @pytest.mark.parametrize("policy", POLICIES)
    def test_bubble_is_the_dram_latency(self, stall_trace, policy):
        analysis = TimingAnalysis(policy=policy)
        replay(stall_trace, [analysis])
        (launch,) = analysis.model.schedule(policy).launches
        top = launch.schedule.top_bubbles(1)[0]
        assert top.reason == "mem_dep"
        assert top.addr == INSTRUCTION_BYTES
        assert top.opcode is Opcode.LDG
        # a cold miss goes to DRAM; the chain is otherwise short, so
        # most of the wait is exposed as one bubble
        assert top.cycles > DRAM_LATENCY // 2
        assert launch.schedule.stall_cycles["mem_dep"] >= top.cycles


# ------------------------------------------------ replay integration

class TestReplayRegistration:
    def test_timing_is_a_registered_analysis(self, tmp_path):
        from repro.trace import ANALYSES, make_analysis

        assert "timing" in ANALYSES
        analysis = make_analysis("timing")
        assert isinstance(analysis, TimingAnalysis)
        assert analysis.policy == "gto"

    def test_report_line(self, tmp_path):
        b = INSTRUCTION_BYTES
        path = str(tmp_path / "tiny.rptrace")
        with TraceWriter(path) as writer:
            writer.write(_launch(32))
            writer.write(_instr(0, Opcode.IADD))
            writer.write(_instr(b, Opcode.EXIT))
            writer.write(KernelEndEvent(warp_instructions=2))
        (analysis,) = replay(path, [TimingAnalysis()])
        line = analysis.report()
        assert line.startswith("timing[gto]:")
        assert "cycles" in line
        result = analysis.result()
        assert result["total_cycles"] > 0
        assert result["launches"][0]["issued"] == 2
