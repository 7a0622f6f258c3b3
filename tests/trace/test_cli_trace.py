"""CLI surface of the trace subsystem: capture/replay (with and without
the index sidecar), trace-info/trace-diff, and the `trace` group
(`summary` / `iters` / `info` / `index` / `query`)."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.cli import main
from repro.trace.index import index_path_for, read_index


@pytest.fixture(scope="module")
def captured_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "v.rptrace")
    assert main(["capture", "vectoradd", "-o", path]) == 0
    return path


@pytest.fixture(scope="module")
def multi_launch_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "p.rptrace")
    assert main(["capture", "rodinia/pathfinder", "-o", path]) == 0
    return path


class TestCapture:
    def test_reports_manifest(self, captured_trace, capsys):
        # the fixture already ran capture; run again to see its output
        assert main(["capture", "vectoradd", "-o", captured_trace]) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "verified" in out

    def test_unknown_workload_is_cli_error(self, tmp_path, capsys):
        assert main(["capture", "not-a-workload",
                     "-o", str(tmp_path / "x.rptrace")]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_unwritable_output_fails_fast(self, capsys):
        assert main(["capture", "vectoradd",
                     "-o", "/no/such/dir/x.rptrace"]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestReplay:
    def test_default_runs_all_analyses(self, captured_trace, capsys):
        assert main(["replay", captured_trace]) == 0
        out = capsys.readouterr().out
        for name in ("cachesim:", "divergence:", "memdiv:", "opcodes:"):
            assert name in out

    def test_analysis_selection(self, captured_trace, capsys):
        assert main(["replay", captured_trace,
                     "--analysis=cachesim,opcodes"]) == 0
        out = capsys.readouterr().out
        assert "cachesim:" in out and "opcodes:" in out
        assert "divergence:" not in out

    def test_unknown_analysis(self, captured_trace, capsys):
        assert main(["replay", captured_trace, "--analysis=nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown analysis" in err

    def test_non_trace_input(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.rptrace"
        bogus.write_bytes(b"this is not a trace")
        assert main(["replay", str(bogus)]) == 2
        assert "bad magic" in capsys.readouterr().err

    def test_missing_input(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "gone.rptrace")]) == 2
        assert "no such file" in capsys.readouterr().err


def _bare_copy(trace: str, directory) -> str:
    """*trace* copied without its sidecar."""
    bare = str(directory / "bare.rptrace")
    with open(bare, "wb") as handle:
        handle.write(open(trace, "rb").read())
    return bare


class TestReplaySidecar:
    def test_stdout_identical_without_sidecar(self, captured_trace,
                                              tmp_path, capsys):
        assert main(["replay", captured_trace]) == 0
        indexed = capsys.readouterr().out
        assert main(["replay", _bare_copy(captured_trace, tmp_path)]) == 0
        assert capsys.readouterr().out == indexed

    def test_jobs_flag_is_gone(self, captured_trace):
        with pytest.raises(SystemExit) as exc:
            main(["replay", captured_trace, "--jobs", "2"])
        assert exc.value.code == 2


def _flipped_copy(trace: str, directory, sidecar: bool) -> str:
    """*trace* with the low bit of a byte below 0x7E in its first frame
    flipped (it stays a varint terminator, so the records still decode
    and only a checksum can tell); its sidecar copied when asked."""
    entry = read_index(index_path_for(trace)).entries[0]
    data = bytearray(open(trace, "rb").read())
    at = next(i for i in range(entry.offset + entry.length // 2,
                               entry.offset + entry.length)
              if data[i] < 0x7E)
    data[at] ^= 1
    path = str(directory / "flipped.rptrace")
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    if sidecar:
        shutil.copyfile(index_path_for(trace), index_path_for(path))
    return path


class TestTraceErrorsNameThePathOnce:
    """A reader error is one ``repro: PATH: problem`` line: the path is
    not repeated when the reader's message already leads with it."""

    @pytest.mark.parametrize("command, sidecar, problem", [
        (["replay"], True, "frame checksum mismatch at launch 0"),
        (["replay"], False, "checksum mismatch"),
        (["trace", "info"], False, "checksum mismatch"),
        (["trace", "index"], False, "checksum mismatch"),
    ])
    def test_flipped_byte(self, captured_trace, tmp_path, capsys, command,
                          sidecar, problem):
        path = _flipped_copy(captured_trace, tmp_path, sidecar)
        assert main(command + [path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: {path}: {problem}")
        assert err.count(path) == 1

    @pytest.mark.parametrize("command", [["replay"], ["trace", "info"],
                                         ["trace", "index"]])
    def test_not_a_trace(self, tmp_path, capsys, command):
        bogus = str(tmp_path / "bogus.rptrace")
        with open(bogus, "wb") as handle:
            handle.write(b"this is not a trace")
        assert main(command + [bogus]) == 2
        assert capsys.readouterr().err == \
            f"repro: {bogus} is not a trace (bad magic)\n"


class TestReplayPolicy:
    """``repro replay --policy`` reaches the timing analysis, with and
    without the sidecar."""

    @staticmethod
    def _timing_line(out):
        (line,) = [l for l in out.splitlines() if l.startswith("timing[")]
        return line

    def test_lrr_report_line_matches_the_analysis(self, captured_trace,
                                                  capsys):
        from repro.trace.replay import replay
        from repro.trace.timing import TimingAnalysis

        assert main(["replay", captured_trace, "--analysis", "timing",
                     "--policy", "lrr"]) == 0
        line = self._timing_line(capsys.readouterr().out)
        (analysis,) = replay(captured_trace, [TimingAnalysis(policy="lrr")])
        assert line == analysis.report()
        assert line.startswith("timing[lrr]:")

    def test_default_policy_is_gto(self, captured_trace, capsys):
        assert main(["replay", captured_trace, "--analysis", "timing"]) == 0
        assert self._timing_line(
            capsys.readouterr().out).startswith("timing[gto]:")

    def test_without_sidecar_equals_indexed(self, captured_trace,
                                            tmp_path, capsys):
        assert main(["replay", captured_trace, "--policy", "lrr"]) == 0
        indexed = capsys.readouterr().out
        assert main(["replay", _bare_copy(captured_trace, tmp_path),
                     "--policy", "lrr"]) == 0
        assert capsys.readouterr().out == indexed
        assert "timing[lrr]:" in indexed

    def test_unknown_policy_is_usage_error(self, captured_trace):
        with pytest.raises(SystemExit) as exc:
            main(["replay", captured_trace, "--policy", "fifo"])
        assert exc.value.code == 2


class TestTraceInfo:
    def test_prints_manifest(self, captured_trace, capsys):
        assert main(["trace-info", captured_trace]) == 0
        out = capsys.readouterr().out
        assert "rptrace v1" in out
        assert "instr" in out and "launch" in out
        assert "checksum" in out

    def test_launch_table_from_sidecar(self, captured_trace, capsys):
        assert main(["trace", "info", captured_trace]) == 0
        out = capsys.readouterr().out
        assert "from index sidecar" in out
        assert "vectoradd" in out

    def test_launch_table_scan_fallback(self, captured_trace, tmp_path,
                                        capsys):
        bare = tmp_path / "bare.rptrace"
        bare.write_bytes(open(captured_trace, "rb").read())
        assert main(["trace", "info", str(bare)]) == 0
        out = capsys.readouterr().out
        assert "full scan" in out and "repro trace index" in out


class TestTraceIndex:
    def test_capture_writes_sidecar(self, captured_trace):
        from repro.trace.index import index_path_for

        assert os.path.exists(index_path_for(captured_trace))

    def test_reports_up_to_date(self, captured_trace, capsys):
        assert main(["trace", "index", captured_trace]) == 0
        out = capsys.readouterr().out
        assert "up to date" in out and "shardable" in out

    def test_force_rewrites_identically(self, captured_trace, capsys):
        from repro.trace.index import index_path_for

        sidecar = index_path_for(captured_trace)
        before = open(sidecar, "rb").read()
        assert main(["trace", "index", captured_trace, "--force"]) == 0
        assert "written" in capsys.readouterr().out
        assert open(sidecar, "rb").read() == before

    def test_backfills_missing_sidecar(self, captured_trace, tmp_path,
                                       capsys):
        from repro.trace.index import index_path_for

        bare = str(tmp_path / "bare.rptrace")
        with open(bare, "wb") as handle:
            handle.write(open(captured_trace, "rb").read())
        assert main(["trace", "index", bare]) == 0
        assert "written" in capsys.readouterr().out
        assert open(index_path_for(bare), "rb").read() \
            == open(index_path_for(captured_trace), "rb").read()

    def test_non_trace_input(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.rptrace"
        bogus.write_bytes(b"not a trace")
        assert main(["trace", "index", str(bogus)]) == 2
        assert "bad magic" in capsys.readouterr().err


class TestTraceQuery:
    def test_count_all_events(self, captured_trace, capsys):
        assert main(["trace", "query", captured_trace, "--count"]) == 0
        out = capsys.readouterr().out
        assert "hits" in out and "(index sidecar)" in out

    def test_class_filter_finds_memory(self, captured_trace, capsys):
        assert main(["trace", "query", captured_trace,
                     "--class", "memory", "--kind", "instr",
                     "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "instr" in out and ("LDG" in out or "STG" in out)

    def test_launch_filter_skips(self, captured_trace, capsys):
        assert main(["trace", "query", captured_trace,
                     "--launches", "99:", "--count"]) == 0
        out = capsys.readouterr().out
        assert "0 hits" in out

    def test_warp_filter_tags_hits(self, captured_trace, capsys):
        assert main(["trace", "query", captured_trace, "--warp", "0",
                     "--kind", "instr", "--limit", "2"]) == 0
        assert " w0 " in capsys.readouterr().out

    def test_indexed_warp_filter_streams_the_frame(self, captured_trace,
                                                   monkeypatch):
        # the warp filter masks the decoded frame's columns, and an
        # event object is built per hit as the consumer reads it
        from repro.trace import query
        from repro.trace.io import FrameColumns

        built = []
        real = FrameColumns.record

        def counting(frame, tag, k):
            built.append((tag, k))
            return real(frame, tag, k)

        monkeypatch.setattr(FrameColumns, "record", counting)
        hits, stats = query.run_query(captured_trace,
                                      query.QueryFilter(warp=0))
        first = next(hits)
        assert stats.used_index and first.warp == 0
        assert built == []
        assert first.event is first.event and len(built) == 1
        rest = list(hits)
        assert rest and all(hit.warp == 0 for hit in rest)
        assert len(built) == 1
        assert all(hit.event is not None for hit in rest)
        assert len(built) == 1 + len(rest) == stats.hits

    def test_warp_filter_excludes_unanchored_records(self, tmp_path):
        # records ahead of the first launch have no warp, and a branch
        # after the kernel end has no instruction to take one from
        from repro.isa.opcodes import Opcode
        from repro.trace.format import (BranchEvent, InstrEvent,
                                        KernelEndEvent, LaunchEvent)
        from repro.trace.io import TraceWriter
        from repro.trace.query import QueryFilter, run_query

        def instr(addr):
            return InstrEvent(ins_addr=addr, opcode=Opcode.EXIT.value,
                              lanes=32, width=0)

        def branch(addr):
            return BranchEvent(ins_addr=addr, active=32, taken=32,
                               not_taken=0)

        launched = instr(0x100)
        path = str(tmp_path / "prefix.rptrace")
        with TraceWriter(path) as writer:
            for event in (instr(0x10), branch(0x10),
                          LaunchEvent(kernel="k", grid=(1, 1, 1),
                                      block=(32, 1, 1), launch_index=0),
                          launched, KernelEndEvent(warp_instructions=1),
                          branch(0x100)):
                writer.write(event)
        for warp in (0, 5):
            hits, _ = run_query(path, QueryFilter(warp=warp))
            got = [(hit.launch, hit.kernel, hit.warp, hit.event)
                   for hit in hits]
            assert got == ([(0, "k", 0, launched)] if warp == 0 else [])

    def test_full_scan_skips_count_launches_only(self, tmp_path):
        # records ahead of the first launch are no launch, so a
        # --launches range that excludes them skips nothing
        from repro.isa.opcodes import Opcode
        from repro.trace.format import (InstrEvent, KernelEndEvent,
                                        LaunchEvent)
        from repro.trace.io import TraceWriter
        from repro.trace.query import QueryFilter, run_query

        def instr(addr):
            return InstrEvent(ins_addr=addr, opcode=Opcode.EXIT.value,
                              lanes=32, width=0)

        path = str(tmp_path / "prefix.rptrace")
        with TraceWriter(path) as writer:
            writer.write_batch((
                instr(0x10),
                LaunchEvent(kernel="k", grid=(1, 1, 1), block=(32, 1, 1),
                            launch_index=0),
                instr(0x100), KernelEndEvent(warp_instructions=1)))
        os.remove(index_path_for(path))
        hits, stats = run_query(path, QueryFilter.parse(launches="0:"))
        assert len(list(hits)) == 1
        assert not stats.used_index
        assert (stats.launches_total, stats.launches_visited,
                stats.launches_skipped) == (1, 1, 0)

    def test_indexed_last_launch_reads_one_frame(self, multi_launch_trace,
                                                 monkeypatch):
        # the indexed seek: one frame read, only its events scanned
        from repro.trace import query
        from repro.trace.index import sidecar_index

        frames = []
        real = query.TraceReader._frame_bytes

        def frame_bytes(reader, handle, entry):
            frames.append(entry)
            return real(reader, handle, entry)

        monkeypatch.setattr(query.TraceReader, "_frame_bytes", frame_bytes)
        index = sidecar_index(multi_launch_trace)
        last = index.launches - 1
        assert last > 0
        hits, stats = query.run_query(
            multi_launch_trace, query.QueryFilter.parse(launches=f"{last}:"))
        count = sum(1 for _ in hits)
        entry = index.entries[last]
        assert stats.used_index and frames == [entry]
        assert (stats.launches_visited, stats.launches_skipped) == (1, last)
        assert stats.events_scanned == entry.events
        assert count == entry.instr + entry.mem + entry.branch

    def test_scan_fallback_same_hits(self, captured_trace, tmp_path,
                                     capsys):
        bare = str(tmp_path / "bare.rptrace")
        with open(bare, "wb") as handle:
            handle.write(open(captured_trace, "rb").read())
        assert main(["trace", "query", captured_trace, "--class",
                     "memory", "--count"]) == 0
        indexed = capsys.readouterr().out
        assert main(["trace", "query", bare, "--class", "memory",
                     "--count"]) == 0
        scanned = capsys.readouterr().out
        assert indexed.split(" hits")[0] == scanned.split(" hits")[0]

    def test_indexless_query_reports_full_scan(self, captured_trace,
                                               tmp_path, capsys):
        # query never builds an index as a side effect; without a
        # sidecar it must say so in the trace-info wording and point at
        # the command that would keep one
        bare = str(tmp_path / "bare.rptrace")
        with open(bare, "wb") as handle:
            handle.write(open(captured_trace, "rb").read())
        assert main(["trace", "query", bare, "--count"]) == 0
        out = capsys.readouterr().out
        assert "full scan" in out
        assert "no usable .rpti sidecar" in out
        assert "repro trace index" in out
        assert not os.path.exists(index_path_for(bare))

    def test_indexless_query_honors_kind_filters(self, captured_trace,
                                                 tmp_path, capsys):
        bare = str(tmp_path / "bare.rptrace")
        with open(bare, "wb") as handle:
            handle.write(open(captured_trace, "rb").read())
        counts = {}
        for kind in ("instr", "mem", "branch"):
            assert main(["trace", "query", bare, "--kind", kind,
                         "--count"]) == 0
            out = capsys.readouterr().out
            assert "full scan" in out
            counts[kind] = int(out.split(" hits")[0].rsplit(None, 1)[-1])
            assert counts[kind] > 0
            # the same filter on the indexed original matches exactly
            assert main(["trace", "query", captured_trace, "--kind",
                         kind, "--count"]) == 0
            indexed = capsys.readouterr().out
            assert "(index sidecar)" in indexed
            assert int(indexed.split(" hits")[0]
                       .rsplit(None, 1)[-1]) == counts[kind]
        assert len(set(counts.values())) > 1

    def test_bad_class_is_cli_error(self, captured_trace, capsys):
        assert main(["trace", "query", captured_trace,
                     "--class", "bogus"]) == 2
        assert "unknown opcode class" in capsys.readouterr().err

    def test_bad_range_is_cli_error(self, captured_trace, capsys):
        assert main(["trace", "query", captured_trace,
                     "--launches", "a:b"]) == 2
        assert "bad launch range" in capsys.readouterr().err

    def test_torn_trace(self, captured_trace, tmp_path, capsys):
        data = open(captured_trace, "rb").read()
        torn = tmp_path / "torn.rptrace"
        torn.write_bytes(data[:len(data) // 2])
        assert main(["trace-info", str(torn)]) == 2
        assert "torn" in capsys.readouterr().err


class TestTraceDiff:
    def test_self_diff_exit_zero(self, captured_trace, capsys):
        assert main(["trace-diff", captured_trace, captured_trace]) == 0
        assert "identical" in capsys.readouterr().out

    def test_different_traces_exit_one(self, captured_trace, tmp_path,
                                       capsys):
        other = str(tmp_path / "sgemm.rptrace")
        assert main(["capture", "parboil/sgemm(small)",
                     "-o", other]) == 0
        capsys.readouterr()
        assert main(["trace-diff", captured_trace, other]) == 1
        assert "first divergence" in capsys.readouterr().out

    def test_missing_operand(self, captured_trace, tmp_path, capsys):
        assert main(["trace-diff", captured_trace,
                     str(tmp_path / "gone.rptrace")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestTimelineRename:
    @pytest.fixture
    def chrome_trace(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "traceEvents": [
                {"ph": "X", "name": "run", "dur": 1000, "tid": 1},
            ],
        }))
        return str(path)

    def test_timeline_summarizes(self, chrome_trace, capsys):
        assert main(["timeline", chrome_trace]) == 0
        captured = capsys.readouterr()
        assert "1 spans" in captured.out
        assert "deprecated" not in captured.err


class TestTraceTiming:
    def test_summary_reports_cycles_and_hotspots(self, captured_trace,
                                                 capsys):
        assert main(["trace", "summary", captured_trace]) == 0
        out = capsys.readouterr().out
        assert "kernel vectoradd" in out
        assert "cycles" in out
        assert "hotspots:" in out
        assert "bubbles:" in out
        assert "total:" in out

    def test_summary_policy_changes_schedule(self, captured_trace,
                                             capsys):
        def total(policy):
            assert main(["trace", "summary", captured_trace,
                         "--policy", policy]) == 0
            out = capsys.readouterr().out
            (line,) = [l for l in out.splitlines()
                       if l.startswith("total:")]
            return line

        # different issue order -> (generally) different cycle totals;
        # at minimum both render a total line
        gto, lrr = total("gto"), total("lrr")
        assert gto.startswith("total:") and lrr.startswith("total:")
        assert gto != lrr

    def test_summary_top_limits_hotspots(self, captured_trace, capsys):
        assert main(["trace", "summary", captured_trace,
                     "--top", "1"]) == 0
        out = capsys.readouterr().out
        # exactly one hotspot row (rows are indented under "hotspots:")
        hot = out.split("hotspots:")[1].split("bubbles:")[0]
        assert len([l for l in hot.splitlines() if l.strip()]) == 1

    def test_iters_reports_per_launch_rows(self, captured_trace, capsys):
        assert main(["trace", "iters", captured_trace]) == 0
        out = capsys.readouterr().out
        assert "#0" in out
        assert "vectoradd" in out
        assert "% bubble" in out

    @pytest.mark.parametrize("policy", ["gto", "lrr"])
    def test_iters_accepts_both_policies(self, captured_trace, capsys,
                                         policy):
        assert main(["trace", "iters", captured_trace,
                     "--policy", policy]) == 0
        assert "vectoradd" in capsys.readouterr().out

    def test_bad_policy_rejected_by_argparse(self, captured_trace,
                                             capsys):
        with pytest.raises(SystemExit):
            main(["trace", "summary", captured_trace,
                  "--policy", "fifo"])
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_input_is_cli_error(self, tmp_path, capsys):
        assert main(["trace", "summary",
                     str(tmp_path / "gone.rptrace")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_non_trace_input_is_cli_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.rptrace"
        bogus.write_bytes(b"this is not a trace")
        assert main(["trace", "summary", str(bogus)]) == 2
        assert "bad magic" in capsys.readouterr().err
