"""Command-line interface (the ``ptxas``/``nvdisasm`` analog).

Subcommands::

    python -m repro.cli compile  kernel.ptx [--sassi FLAGS] [-o out.sass]
    python -m repro.cli disasm   kernel.ptx            # SASS listing
    python -m repro.cli workloads [--run NAME]         # list / verify
    python -m repro.cli run      NAME [--metrics] [--trace FILE]
                                 [--jsonl FILE]
    python -m repro.cli timeline trace.json   # inspect a Chrome trace
    python -m repro.cli capture  NAME [-o FILE] [--all-spaces]
    python -m repro.cli replay   trace.rptrace [--analysis a,b,...]
                                 [--policy gto|lrr]
    python -m repro.cli trace    summary|iters trace.rptrace
                                 [--policy gto|lrr] [--top N]
    python -m repro.cli trace    info trace.rptrace
    python -m repro.cli trace    index trace.rptrace [--force]
    python -m repro.cli trace    query trace.rptrace [--launches N:M]
                                 [--class a,b] [--addr LO:HI] [--warp W]
                                 [--kind instr,mem,branch] [--limit N]
                                 [--count]
    python -m repro.cli trace-info trace.rptrace
    python -m repro.cli trace-diff a.rptrace b.rptrace [--max-deltas N]
    python -m repro.cli study    table1|figure7|table2|table3|figure10
                                 [--jobs N] [--no-cache] [--metrics]
                                 [--trace FILE]
    python -m repro.cli run-all  [output.txt] [--jobs N] [--no-cache]
                                 [--quick] [--injections N] [--metrics]
                                 [--trace FILE]
    python -m repro.cli serve    [--port N] [--shards N] [--workers N]
                                 [--queue-depth N] [--artifact-dir DIR]
    python -m repro.cli submit   campaign|capture|replay|study|bench
                                 --port N [--tenant T] [--share-cache]
                                 [payload flags] [--json] [--no-wait]

``compile`` consumes the PTX-like text form (see
:mod:`repro.kernelir.ptxtext`), runs the backend, optionally applies the
SASSI injector with the paper's flag syntax (a no-op handler is bound so
the output is inspectable), and prints/writes the SASS listing.

``run`` executes one workload with telemetry enabled: ``--trace`` writes
a Chrome ``trace_event`` JSON (open in ``chrome://tracing``/Perfetto),
``--jsonl`` a flat event stream, ``--metrics`` prints the span/counter
summary.  ``timeline`` summarizes a previously written Chrome trace.

``capture``/``replay``/``trace``/``trace-info``/``trace-diff`` drive
the binary event-trace subsystem (:mod:`repro.trace`): record one
instrumented run to an ``.rptrace`` file (capture also writes the
``.rpti`` columnar index sidecar), then answer many questions
offline — ``replay`` runs the analyses in one pass over the trace's
launch frames (decoded through the sidecar when there is one);
``trace summary`` runs the cycle-stepped warp scheduler over the trace
and reports per-kernel cycles, hotspot instructions, bubble regions,
and divergence-serialized spans; ``trace iters`` reports per-launch cycles
and the iteration spread; ``trace info`` prints the manifest plus the
per-launch table from the index; ``trace index`` builds or refreshes
the sidecar for an existing trace; ``trace query`` extracts events by
launch range, opcode class, address range, and warp, seeking straight
to matching launch frames via the index; ``trace-diff`` exits 1 when
the traces differ, like ``diff``.

``serve``/``submit`` are the profiling-as-a-service pair
(:mod:`repro.server`): ``serve`` runs the long-lived sharded job
server, ``submit`` sends one job over the NDJSON protocol and streams
until the terminal event — retrying 429 admission rejections with the
server's retry-after hint.

Usage errors (unknown workload, malformed flags, unwritable paths) exit
with status 2 and a one-line ``repro: ...`` message — never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


class CliError(Exception):
    """A user-facing error: printed as one line, exit status 2."""


def _check_writable(path: str) -> None:
    """Fail fast (before any expensive work) if *path* can't be written."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise CliError(f"cannot write {path}: "
                       f"directory {directory!r} does not exist")
    existed = os.path.exists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")
    if not existed:
        try:
            os.remove(path)
        except OSError:
            pass


def _make_workload(name: str):
    from repro.workloads import make

    try:
        return make(name)
    except KeyError as exc:
        raise CliError(exc.args[0] if exc.args else f"unknown workload "
                       f"{name!r}")


def _cmd_compile(args) -> int:
    from repro.backend import ptxas
    from repro.isa.asmtext import format_kernel
    from repro.kernelir.ptxtext import parse_ptx

    try:
        with open(args.input) as handle:
            kernel_ir = parse_ptx(handle.read())
    except OSError as exc:
        raise CliError(f"cannot read {args.input}: {exc.strerror or exc}")
    except ValueError as exc:
        raise CliError(f"cannot parse {args.input}: {exc}")
    if args.sassi:
        from repro.sassi import SassiRuntime, spec_from_flags
        from repro.sassi.flags import FlagError
        from repro.sim import Device

        try:
            spec = spec_from_flags(args.sassi)
        except FlagError as exc:
            raise CliError(f"bad --sassi flags: {exc}")
        runtime = SassiRuntime(Device())
        runtime.register_before_handler(lambda ctx: None)
        runtime.register_after_handler(lambda ctx: None)
        kernel = runtime.compile(kernel_ir, spec)
        if not runtime.reports:
            raise CliError("instrumentation produced no injection report "
                           "(nothing matched the spec?)")
        report = runtime.reports[-1]
        print(f"// SASSI: {report.before_sites} before-sites, "
              f"{report.after_sites} after-sites, "
              f"{report.injected_instructions} injected instructions, "
              f"frame 0x{report.max_frame_bytes:x}", file=sys.stderr)
    else:
        kernel = ptxas(kernel_ir)
    listing = format_kernel(kernel)
    if args.output:
        _check_writable(args.output)
        with open(args.output, "w") as handle:
            handle.write(listing)
    else:
        print(listing)
    return 0


def _cmd_disasm(args) -> int:
    args.sassi = None
    args.output = None
    return _cmd_compile(args)


def _cmd_workloads(args) -> int:
    from repro.workloads import all_names

    if not args.run:
        for name in all_names():
            print(name)
        return 0
    from repro.backend import ptxas
    from repro.sim import Device

    status = 0
    for name in args.run:
        workload = _make_workload(name)
        device = Device()
        start = time.perf_counter()
        output = workload.execute(device, ptxas(workload.build_ir()))
        elapsed = time.perf_counter() - start
        ok = workload.verify(output)
        status = status or (0 if ok else 1)
        trace = workload.last_trace
        print(f"{name:30s} {'ok' if ok else 'WRONG RESULT':12s} "
              f"{elapsed:6.2f}s "
              f"{trace.warp_instructions:>10,} warp instrs "
              f"{trace.kernel_launches:>5} launches")
    return status


def _telemetry_outputs(args, manifest_extra):
    """Write the trace/jsonl files and print the summary as requested."""
    from repro.telemetry import (TELEMETRY, render_summary, run_manifest,
                                 write_chrome_trace, write_jsonl)

    manifest = run_manifest(extra=manifest_extra)
    if getattr(args, "trace", None):
        write_chrome_trace(args.trace, TELEMETRY, manifest=manifest)
        print(f"chrome trace written to {args.trace}", file=sys.stderr)
    if getattr(args, "jsonl", None):
        write_jsonl(args.jsonl, TELEMETRY, manifest=manifest)
        print(f"jsonl events written to {args.jsonl}", file=sys.stderr)
    if getattr(args, "metrics", False):
        print(render_summary(TELEMETRY))


#: --handler choices: name -> (profiler factory, estimate printer)
RUN_HANDLERS = ("branch_profiler", "memory_divergence", "opcode_histogram",
                "value_profiler", "memtrace")


def _make_profiler(name: str, device):
    if name == "branch_profiler":
        from repro.handlers.branch_profiler import BranchProfiler
        return BranchProfiler(device)
    if name == "memory_divergence":
        from repro.handlers.memory_divergence import MemoryDivergenceProfiler
        return MemoryDivergenceProfiler(device)
    if name == "opcode_histogram":
        from repro.handlers.opcode_histogram import OpcodeHistogram
        return OpcodeHistogram(device)
    if name == "value_profiler":
        from repro.handlers.value_profiler import ValueProfiler
        return ValueProfiler(device)
    if name == "memtrace":
        from repro.handlers.memtrace import MemoryTracer
        return MemoryTracer(device)
    raise CliError(f"unknown handler {name!r}")


def _print_estimates(name: str, profiler, rate: int) -> None:
    from repro.studies.report import render_sampled_counters, sampling_ci

    if name == "opcode_histogram":
        totals = profiler.totals()
        print(render_sampled_counters(list(totals), list(totals.values()),
                                      rate))
        return
    if name == "branch_profiler":
        summary = profiler.summary()
        low, high = sampling_ci(summary.dynamic_branches // max(rate, 1),
                                rate)
        print(f"dynamic branches ~ {summary.dynamic_branches:,} "
              f"CI [{low:,.0f}, {high:,.0f}]; "
              f"divergent {summary.dynamic_pct:.1f}%")
        return
    if name == "memory_divergence":
        print(f"warp accesses touching >1 line: "
              f"{100 * profiler.diverged_fraction():.1f}% "
              f"(estimates at rate 1/{rate})")
        return
    if name == "value_profiler":
        summary = profiler.summary()
        print(f"scalar writes {summary.dynamic_scalar_pct:.1f}%, "
              f"constant bits {summary.dynamic_const_bits_pct:.1f}% "
              f"(weights scaled at rate 1/{rate})")
        return
    if name == "memtrace":
        events = sum(1 for _ in profiler.records())
        # under --budget-ms the period varies; the CI uses the
        # effective average rate the run actually achieved
        effective = max(rate, round(profiler.weighted_events
                                    / max(events, 1)))
        low, high = sampling_ci(events, effective)
        print(f"{events:,} trace events recorded; estimated exact count "
              f"{profiler.weighted_events:,} CI [{low:,.0f}, {high:,.0f}]")


def _build_controller(args):
    """An AdaptiveController from --sample/--toggle/--budget-ms (or
    None when none of them was given).  Returns (controller, rate)."""
    from repro.sassi.runtime import (ActiveSiteMask, AdaptiveController,
                                     TimeBudget, parse_sampling)

    sample = getattr(args, "sample", None)
    toggle = getattr(args, "toggle", None)
    budget_ms = getattr(args, "budget_ms", None)
    if not (sample or toggle or budget_ms):
        return None, 1
    if sample and budget_ms:
        raise CliError("--sample and --budget-ms are mutually exclusive")
    sampling = None
    rate = 1
    if sample:
        try:
            sampling = parse_sampling(sample)
        except ValueError as exc:
            raise CliError(str(exc))
        rate = sampling.n if sampling is not None else 1
    if budget_ms:
        sampling = TimeBudget(budget_ms)
    mask = ActiveSiteMask()
    if toggle:
        try:
            disabled = [int(s, 0) for s in toggle.split(",") if s]
        except ValueError:
            raise CliError(f"bad --toggle value {toggle!r} "
                           "(want comma-separated site ids)")
        mask = mask.disable(disabled)
    return AdaptiveController(mask=mask, sampling=sampling), rate


def _cmd_run(args) -> int:
    from repro.backend import ptxas
    from repro.sim import Device
    from repro.telemetry import TELEMETRY, span

    for path in (args.trace, args.jsonl):
        if path:
            _check_writable(path)
    handler = getattr(args, "handler", None)
    controller, rate = _build_controller(args)
    if controller is not None and handler is None:
        raise CliError("--sample/--toggle/--budget-ms require --handler")
    workload = _make_workload(args.name)
    TELEMETRY.enable(reset=True)
    try:
        device = Device()
        if controller is not None:
            controller.install(device)
        profiler = _make_profiler(handler, device) if handler else None
        with span("run", workload=args.name):
            with span("compile", workload=args.name):
                if profiler is not None:
                    kernel = profiler.compile(workload.build_ir())
                else:
                    kernel = ptxas(workload.build_ir())
            with span("execute", workload=args.name):
                output = workload.execute(device, kernel)
        ok = workload.verify(output)
        trace = workload.last_trace
        print(f"{args.name}: {'ok' if ok else 'WRONG RESULT'} "
              f"({trace.warp_instructions:,} warp instructions, "
              f"{trace.kernel_launches} launches)")
        if profiler is not None:
            _print_estimates(handler, profiler, rate)
        if controller is not None:
            summary = controller.summary()
            print(f"sites: {summary['fired']:,} fired, "
                  f"{summary['skipped']:,} skipped "
                  f"(estimated exact firings "
                  f"{summary['estimated_firings']:,})")
        _telemetry_outputs(args, {"command": "run",
                                  "workload": args.name})
    finally:
        TELEMETRY.disable()
    return 0 if ok else 1


def _cmd_timeline(args) -> int:
    import json

    try:
        with open(args.input) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {args.input}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.input} is not valid trace JSON: {exc}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise CliError(f"{args.input} has no traceEvents "
                       "(not a Chrome trace?)")
    events = doc["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    totals = {}
    for event in spans:
        entry = totals.setdefault(event.get("name", "?"), [0, 0.0])
        entry[0] += 1
        entry[1] += float(event.get("dur", 0.0))
    print(f"{args.input}: {len(spans)} spans, "
          f"{len({e.get('tid') for e in spans})} lanes")
    for name in sorted(totals, key=lambda n: -totals[n][1]):
        count, dur = totals[name]
        print(f"  {name:<24} {count:>6}  {dur / 1e6:>9.4f}s")
    for event in events:
        if event.get("ph") == "C" and event.get("name") == "counters":
            print("counters:")
            for key, value in sorted(event.get("args", {}).items()):
                print(f"  {key:<40} {value:>12}")
    meta = doc.get("metadata", {})
    if meta:
        rev = meta.get("git_rev") or "unknown"
        print(f"manifest: python {meta.get('python', '?')}, "
              f"git {rev[:12]}, schema {meta.get('schema', '?')}")
    return 0


def _default_trace_path(workload: str) -> str:
    safe = "".join(c if c.isalnum() or c in "-_." else "_"
                   for c in workload)
    return f"{safe}.rptrace"


def _cmd_capture(args) -> int:
    from repro.trace import capture_workload

    output = args.output or _default_trace_path(args.name)
    _check_writable(output)
    # fail on unknown workloads before the (long) instrumented run
    _make_workload(args.name)
    manifest, verified, wall = capture_workload(
        args.name, output, global_only=not args.all_spaces)
    counts = ", ".join(f"{kind}={count:,}" for kind, count
                       in sorted(manifest.kind_counts().items()))
    print(f"{output}: {manifest.total_events:,} events ({counts}) "
          f"in {wall:.2f}s, workload "
          f"{'verified' if verified else 'WRONG RESULT'}")
    return 0 if verified else 1


def _open_trace_or_die(path: str):
    from repro.trace import TraceReader

    if not os.path.exists(path):
        raise CliError(f"cannot read {path}: no such file")
    return TraceReader(path)


def _trace_error(path: str, exc: Exception) -> CliError:
    """A trace error as one CLI line naming *path* once: the reader
    already leads its own messages with the path, the rest (frame
    decode errors, record errors naming their launch) get it here."""
    message = str(exc)
    if message.startswith((f"{path}: ", f"{path} is not ")):
        return CliError(message)
    return CliError(f"{path}: {message}")


def _cmd_replay(args) -> int:
    from repro.trace import ANALYSES, TraceFormatError, make_analysis, \
        replay

    reader = _open_trace_or_die(args.input)
    names = [n.strip() for n in args.analysis.split(",") if n.strip()] \
        if args.analysis else sorted(ANALYSES)
    try:
        analyses = [make_analysis(name, **({"policy": args.policy}
                                           if name == "timing" else {}))
                    for name in names]
    except KeyError as exc:
        raise CliError(str(exc.args[0]))
    try:
        start = time.perf_counter()
        replay(reader, analyses)
        elapsed = time.perf_counter() - start
    except TraceFormatError as exc:
        raise _trace_error(args.input, exc)
    for analysis in analyses:
        print(analysis.report())
    print(f"replayed {args.input} in {elapsed:.2f}s", file=sys.stderr)
    return 0


def _timing_report(args):
    """Replay *args.input* through the timing analysis; returns the
    scheduled :class:`~repro.trace.timing.TimingReport`."""
    from repro.trace import TraceFormatError, replay
    from repro.trace.timing import TimingAnalysis

    reader = _open_trace_or_die(args.input)
    analysis = TimingAnalysis(policy=args.policy)
    try:
        replay(reader, [analysis])
    except TraceFormatError as exc:
        raise _trace_error(args.input, exc)
    return analysis.model.schedule(args.policy)


def _cmd_trace_summary(args) -> int:
    from repro.trace.timing import render_summary

    print(render_summary(_timing_report(args), top=args.top))
    return 0


def _cmd_trace_iters(args) -> int:
    from repro.trace.timing import render_iters

    print(render_iters(_timing_report(args)))
    return 0


#: launch-table rows printed by ``trace info`` before eliding
_INFO_LAUNCH_ROWS = 12


def _cmd_trace_info(args) -> int:
    from repro.trace import TraceFormatError, build_index, sidecar_index

    reader = _open_trace_or_die(args.input)
    try:
        manifest = reader.manifest()
    except TraceFormatError as exc:
        raise _trace_error(args.input, exc)
    size = os.path.getsize(args.input)
    print(f"{args.input}: rptrace v{manifest.version}, "
          f"{size:,} bytes, {manifest.total_events:,} events, "
          f"checksum 0x{manifest.checksum:08x}")
    for kind, count in sorted(manifest.kind_counts().items()):
        print(f"  {kind:<12} {count:>12,}")
    # per-launch table: free when the .rpti sidecar is present, else a
    # one-off full scan (we say which, so slow == actionable)
    index = sidecar_index(args.input)
    source = "index sidecar"
    if index is None:
        try:
            index = build_index(args.input)
        except TraceFormatError as exc:
            raise _trace_error(args.input, exc)
        source = "full scan — no usable .rpti sidecar; " \
                 "run `repro trace index` to keep one"
    if index.entries:
        print(f"launches ({index.launches}, from {source}):")
        print(f"  {'#':>3} {'kernel':<24} {'grid':>12} {'block':>9} "
              f"{'events':>9} {'instr':>9} {'mem':>9} {'branch':>9}")
        shown = index.entries[:_INFO_LAUNCH_ROWS]
        for ordinal, entry in enumerate(shown):
            grid = "x".join(str(d) for d in entry.grid)
            block = "x".join(str(d) for d in entry.block)
            print(f"  {ordinal:>3} {entry.kernel:<24} {grid:>12} "
                  f"{block:>9} {entry.events:>9,} {entry.instr:>9,} "
                  f"{entry.mem:>9,} {entry.branch:>9,}")
        if index.launches > len(shown):
            print(f"  ... {index.launches - len(shown)} more launches")
    if index.stray_events:
        print(f"  {index.stray_events:,} events outside launch frames "
              "(trace is not shardable)")
    return 0


def _cmd_trace_index(args) -> int:
    from repro.trace import TraceFormatError, build_index, \
        index_path_for, sidecar_index, write_index

    _open_trace_or_die(args.input)
    sidecar = index_path_for(args.input)
    _check_writable(sidecar)
    fresh = False
    index = None if args.force else sidecar_index(args.input)
    if index is None:
        try:
            index = build_index(args.input)
        except TraceFormatError as exc:
            raise _trace_error(args.input, exc)
        write_index(index, sidecar)
        fresh = True
    state = "written" if fresh else "up to date"
    shard = ("shardable" if index.shardable else
             f"NOT shardable ({index.stray_events:,} events outside "
             "launch frames)")
    print(f"{sidecar}: {state}, {os.path.getsize(sidecar):,} bytes, "
          f"{index.launches} launches, {shard}")
    return 0


def _format_query_hit(hit) -> str:
    from repro.isa.opcodes import Opcode
    from repro.trace.format import BranchEvent, InstrEvent, \
        MEM_FLAG_ATOMIC, MemEvent

    where = f"[{hit.launch:>3} {hit.kernel or '-':<20}]"
    warp = f" w{hit.warp}" if hit.warp is not None else ""
    event = hit.event
    if isinstance(event, InstrEvent):
        return (f"{where}{warp} 0x{event.ins_addr:04x} instr  "
                f"{Opcode(event.opcode).name:<8} "
                f"lanes={event.lanes}")
    if isinstance(event, MemEvent):
        kind = ("atomic" if event.flags & MEM_FLAG_ATOMIC else
                "store" if event.is_store else "load")
        lines = ",".join(f"0x{line:x}"
                         for line in event.line_addresses[:4])
        more = ("..." if len(event.line_addresses) > 4 else "")
        return (f"{where}{warp} 0x{event.ins_addr:04x} mem    "
                f"{kind:<6} w{event.width} "
                f"lanes={event.active_lanes} "
                f"lines[{len(event.line_addresses)}]={lines}{more}")
    if isinstance(event, BranchEvent):
        return (f"{where}{warp} 0x{event.ins_addr:04x} branch "
                f"active={event.active} taken={event.taken} "
                f"not_taken={event.not_taken}")
    return f"{where}{warp} {event!r}"


def _cmd_trace_query(args) -> int:
    from repro.trace import TraceFormatError
    from repro.trace.query import QueryError, QueryFilter, count_query, \
        run_query

    _open_trace_or_die(args.input)
    try:
        filt = QueryFilter.parse(launches=args.launches,
                                 classes=args.cls, addr=args.addr,
                                 warp=args.warp, kinds=args.kind)
    except QueryError as exc:
        raise CliError(str(exc))
    truncated = False
    try:
        if args.count:
            stats = count_query(args.input, filt)
        else:
            hits, stats = run_query(args.input, filt)
            printed = 0
            for hit in hits:
                if printed >= args.limit:
                    truncated = True
                    break
                print(_format_query_hit(hit))
                printed += 1
    except TraceFormatError as exc:
        raise _trace_error(args.input, exc)
    how = ("(index sidecar)" if stats.used_index
           else "(full scan — no usable .rpti sidecar; "
                "run `repro trace index` to keep one)")
    if truncated:
        print(f"... stopped after --limit {args.limit} hits "
              "(use --count for the exact total)", file=sys.stderr)
        print(f"{args.limit}+ hits {how}")
    else:
        print(f"{stats.hits:,} hits in {stats.launches_visited} of "
              f"{stats.launches_total} launches "
              f"({stats.launches_skipped} skipped), "
              f"{stats.events_scanned:,} events scanned {how}")
    return 0


def _cmd_trace_diff(args) -> int:
    from repro.trace import TraceFormatError, diff_traces

    for path in (args.a, args.b):
        if not os.path.exists(path):
            raise CliError(f"cannot read {path}: no such file")
    try:
        diff = diff_traces(args.a, args.b, max_deltas=args.max_deltas)
    except TraceFormatError as exc:
        raise CliError(str(exc))
    print(diff.report())
    return 0 if diff.identical else 1


_STUDIES = {
    "table1": ("repro.studies.casestudy1", "main"),
    "figure7": ("repro.studies.casestudy2", "main"),
    "figure8": ("repro.studies.casestudy2", "main"),
    "table2": ("repro.studies.casestudy3", "main"),
    "table3": ("repro.studies.overhead", "main"),
    "figure10": ("repro.studies.casestudy4", "main"),
    "tracereplay": ("repro.studies.tracereplay", "main"),
    "schedpolicy": ("repro.studies.schedpolicy", "main"),
}


def _cmd_study(args) -> int:
    import importlib

    from repro.telemetry import TELEMETRY

    if args.trace:
        _check_writable(args.trace)
    telemetry_on = bool(args.trace or args.metrics)
    if telemetry_on:
        TELEMETRY.enable(reset=True)
    try:
        module_name, fn_name = _STUDIES[args.which]
        module = importlib.import_module(module_name)
        print(getattr(module, fn_name)(jobs=max(1, args.jobs),
                                       use_cache=not args.no_cache))
        if telemetry_on:
            _telemetry_outputs(args, {"command": "study",
                                      "study": args.which,
                                      "jobs": max(1, args.jobs)})
    finally:
        if telemetry_on:
            TELEMETRY.disable()
    return 0


def _cmd_run_all(args) -> int:
    from repro.studies import run_all

    if args.trace:
        _check_writable(args.trace)
    argv = [args.output, "--injections", str(args.injections),
            "--jobs", str(args.jobs)]
    if args.no_cache:
        argv.append("--no-cache")
    if args.quick:
        argv.append("--quick")
    if args.trace:
        argv.extend(["--trace", args.trace])
    if args.metrics:
        argv.append("--metrics")
    run_all.main(argv)
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.server.service import ServerConfig, \
        ensure_artifact_dir, serve

    config = ServerConfig(host=args.host, port=args.port,
                          shards=max(1, args.shards),
                          workers=max(1, args.workers),
                          queue_depth=max(1, args.queue_depth),
                          artifact_dir=ensure_artifact_dir(
                              args.artifact_dir))

    def announce(address):
        host, port = address
        print(f"repro-server listening on {host}:{port}", flush=True)

    try:
        asyncio.run(serve(config, announce=announce))
    except KeyboardInterrupt:
        print("repro-server stopped", file=sys.stderr)
    return 0


def _submit_payload(args) -> dict:
    payload = {}
    if args.workload:
        payload["workload"] = args.workload
    if args.command_kind == "campaign":
        payload["injections"] = args.injections
        payload["seed"] = args.seed
        payload["use_cache"] = not args.no_cache
    elif args.command_kind == "capture":
        payload["all_spaces"] = args.all_spaces
    elif args.command_kind == "replay":
        if args.trace_file:
            payload["trace"] = args.trace_file
        if args.artifact:
            payload["artifact"] = args.artifact
        if args.analysis:
            payload["analyses"] = [a.strip()
                                   for a in args.analysis.split(",")
                                   if a.strip()]
        payload["policy"] = args.policy
    elif args.command_kind == "study":
        payload["which"] = args.which
    elif args.command_kind == "bench":
        payload["spin_ms"] = args.spin_ms
        payload["tag"] = args.tag
    return payload


def _cmd_submit(args) -> int:
    import json as json_module

    from repro.server.client import AdmissionRejected, JobFailed, \
        ServerClient, ServerError

    client = ServerClient(args.host, args.port, tenant=args.tenant,
                          share_cache=args.share_cache)
    args.command_kind = args.kind
    payload = _submit_payload(args)
    try:
        if args.no_wait:
            job_id = client.submit(args.kind, payload)
            print(job_id)
            return 0
        record = client.submit_and_wait(args.kind, payload)
    except ConnectionError as exc:
        raise CliError(f"cannot reach server at "
                       f"{args.host}:{args.port}: {exc}") from exc
    except AdmissionRejected as exc:
        raise CliError(f"server queue full (retry after "
                       f"{exc.retry_after}s)") from exc
    except JobFailed as exc:
        raise CliError(str(exc)) from exc
    except ServerError as exc:
        raise CliError(str(exc)) from exc
    if args.json:
        print(json_module.dumps(record, indent=2, sort_keys=True))
    else:
        print(f"{record['job_id']}: {record['kind']} done in "
              f"{record['wall_seconds']:.3f}s")
        result = record["result"]
        if args.kind == "campaign":
            for outcome, count in result["outcomes"].items():
                print(f"  {outcome}: {count}")
        elif args.kind == "capture":
            print(f"  {result['total_events']} events -> "
                  f"{record['artifact_path']}")
        elif args.kind == "replay":
            for analysis in result["analyses"]:
                report = analysis["report"].strip().splitlines()
                print(f"  [{analysis['analysis']}] "
                      f"{report[0] if report else ''}")
        elif args.kind == "study":
            print(result["text"])
    return 0


def _add_telemetry_flags(parser, jsonl: bool = False) -> None:
    parser.add_argument("--metrics", action="store_true",
                        help="print the telemetry span/counter summary")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace_event JSON file")
    if jsonl:
        parser.add_argument("--jsonl", metavar="FILE", default=None,
                            help="write a flat JSONL event stream")


def _args_compile(parser) -> None:
    parser.add_argument("input")
    parser.add_argument("--sassi", default=None,
                        help='e.g. "-sassi-inst-before=memory '
                             '-sassi-before-args=mem-info"')
    parser.add_argument("-o", "--output", default=None)
    parser.set_defaults(fn=_cmd_compile)


def _args_disasm(parser) -> None:
    parser.add_argument("input")
    parser.set_defaults(fn=_cmd_disasm)


def _args_workloads(parser) -> None:
    parser.add_argument("--run", nargs="*", default=None,
                        help="workload names to run+verify")
    parser.set_defaults(fn=_cmd_workloads)


def _args_run(parser) -> None:
    parser.add_argument("name", help="workload name (see `workloads`)")
    parser.add_argument("--handler", choices=RUN_HANDLERS, default=None,
                        help="attach a stock SASSI handler")
    parser.add_argument("--sample", default=None, metavar="KIND:N",
                        help="sample instrumentation sites: nth:N"
                             "[,PHASE], warp:N[,SEED], cta:N[,SEED]")
    parser.add_argument("--toggle", default=None, metavar="IDS",
                        help="comma-separated site ids to disable "
                             "at runtime (no recompilation)")
    parser.add_argument("--budget-ms", type=float, default=None,
                        help="throttle instrumentation to a "
                             "wall-clock budget (milliseconds)")
    _add_telemetry_flags(parser, jsonl=True)
    parser.set_defaults(fn=_cmd_run)


def _args_timeline(parser) -> None:
    parser.add_argument("input")
    parser.set_defaults(fn=_cmd_timeline)


def _args_capture(parser) -> None:
    parser.add_argument("name", help="workload name (see `workloads`)")
    parser.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="output .rptrace path "
                             "(default: <workload>.rptrace)")
    parser.add_argument("--all-spaces", action="store_true",
                        help="record shared/local accesses too, "
                             "not just global memory")
    parser.set_defaults(fn=_cmd_capture)


def _args_replay(parser) -> None:
    parser.add_argument("input", help=".rptrace file")
    parser.add_argument("--analysis", default=None, metavar="A,B,...",
                        help="comma-separated analyses "
                             "(default: all registered)")
    parser.add_argument("--policy", choices=["gto", "lrr"], default="gto",
                        help="warp issue policy of the timing "
                             "analysis (default gto)")
    parser.set_defaults(fn=_cmd_replay)


def _args_trace_summary(parser) -> None:
    parser.add_argument("input", help=".rptrace file")
    parser.add_argument("--policy", choices=["gto", "lrr"], default="gto",
                        help="warp issue policy (default gto)")
    parser.add_argument("--top", type=int, default=5,
                        help="rows per hotspot/bubble/span list")
    parser.set_defaults(fn=_cmd_trace_summary)


def _args_trace_iters(parser) -> None:
    parser.add_argument("input", help=".rptrace file")
    parser.add_argument("--policy", choices=["gto", "lrr"], default="gto",
                        help="warp issue policy (default gto)")
    parser.set_defaults(fn=_cmd_trace_iters)


def _args_trace_info(parser) -> None:
    parser.add_argument("input", help=".rptrace file")
    parser.set_defaults(fn=_cmd_trace_info)


def _args_trace_index(parser) -> None:
    parser.add_argument("input", help=".rptrace file")
    parser.add_argument("--force", action="store_true",
                        help="rebuild even if the sidecar is current")
    parser.set_defaults(fn=_cmd_trace_index)


def _args_trace_query(parser) -> None:
    parser.add_argument("input", help=".rptrace file")
    parser.add_argument("--launches", default=None, metavar="N:M",
                        help="launch ordinal range (half-open; "
                             "N, N:, :M also accepted)")
    parser.add_argument("--class", dest="cls", default=None,
                        metavar="A,B,...",
                        help="opcode classes (memory, control, "
                             "sync, numeric, texture, ...); "
                             "mem/branch events inherit their "
                             "instruction's class")
    parser.add_argument("--addr", default=None, metavar="LO:HI",
                        help="instruction/line address range "
                             "(hex ok, half-open)")
    parser.add_argument("--warp", type=int, default=None, metavar="W",
                        help="global warp ordinal within each launch")
    parser.add_argument("--kind", default=None,
                        metavar="instr,mem,branch",
                        help="event kinds to emit (default all)")
    parser.add_argument("--limit", type=int, default=50, metavar="N",
                        help="stop after N hits (default 50)")
    parser.add_argument("--count", action="store_true",
                        help="print only the total hit count")
    parser.set_defaults(fn=_cmd_trace_query)


def _args_trace_diff(parser) -> None:
    parser.add_argument("a", help="baseline .rptrace")
    parser.add_argument("b", help="comparison .rptrace")
    parser.add_argument("--max-deltas", type=int, default=100_000,
                        help="stop counting differences after N")
    parser.set_defaults(fn=_cmd_trace_diff)


def _args_study(parser) -> None:
    parser.add_argument("which", choices=sorted(_STUDIES))
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the campaign")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the compile cache")
    _add_telemetry_flags(parser)
    parser.set_defaults(fn=_cmd_study)


def _args_run_all(parser) -> None:
    parser.add_argument("output", nargs="?",
                        default="results/full_studies.txt")
    parser.add_argument("--injections", type=int, default=60)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--quick", action="store_true")
    _add_telemetry_flags(parser)
    parser.set_defaults(fn=_cmd_run_all)


def _args_serve(parser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks a free port (announced on stdout)")
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes per shard")
    parser.add_argument("--queue-depth", type=int, default=8,
                        help="queued jobs per shard before 429s")
    parser.add_argument("--artifact-dir", default=None,
                        help="where capture jobs store traces")
    parser.set_defaults(fn=_cmd_serve)


def _args_submit(parser) -> None:
    parser.add_argument(
        "kind", choices=["campaign", "capture", "replay", "study",
                         "bench"])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--tenant", default="default")
    parser.add_argument("--share-cache", action="store_true",
                        help="opt into the shared compile-cache "
                             "namespace")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--injections", type=int, default=8)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--all-spaces", action="store_true")
    parser.add_argument("--trace-file", default=None,
                        help="replay: server-side trace path")
    parser.add_argument("--artifact", default=None,
                        help="replay: a finished capture job id")
    parser.add_argument("--analysis", default=None,
                        help="replay: comma-separated analyses")
    parser.add_argument("--policy", choices=["gto", "lrr"],
                        default="gto")
    parser.add_argument("--which", default=None,
                        help="study: which table/figure")
    parser.add_argument("--spin-ms", type=float, default=10.0)
    parser.add_argument("--tag", default="")
    parser.add_argument("--no-wait", action="store_true",
                        help="print the job id and return")
    parser.add_argument("--json", action="store_true",
                        help="print the full result record")
    parser.set_defaults(fn=_cmd_submit)


#: ``trace`` subcommand -> (help, argument builder)
_TRACE_COMMANDS = {
    "summary": ("per-kernel cycles, hotspots, bubbles, divergence spans",
                _args_trace_summary),
    "iters": ("per-launch cycles and iteration spread", _args_trace_iters),
    "info": ("manifest plus the per-launch index table", _args_trace_info),
    "index": ("build or refresh the .rpti index sidecar",
              _args_trace_index),
    "query": ("extract events by launch/class/address/warp",
              _args_trace_query),
}

#: subcommand -> (help, argument builder, or a table of its own
#: subcommands), in ``repro --help`` order
_COMMANDS = {
    "compile": ("compile PTX-like text to SASS", _args_compile),
    "disasm": ("compile and print SASS", _args_disasm),
    "workloads": ("list or run workloads", _args_workloads),
    "run": ("run one workload with telemetry", _args_run),
    "timeline": ("summarize a Chrome trace file", _args_timeline),
    "capture": ("record a workload's binary event trace", _args_capture),
    "replay": ("run offline analyses over a recorded trace", _args_replay),
    "trace": ("analytics and queries over a recorded trace",
              _TRACE_COMMANDS),
    "trace-info": ("print a trace's manifest and launch table",
                   _args_trace_info),
    "trace-diff": ("find where two traces first diverge", _args_trace_diff),
    "study": ("regenerate a result", _args_study),
    "run-all": ("regenerate every table and figure", _args_run_all),
    "serve": ("run the profiling service", _args_serve),
    "submit": ("submit a job to a running profiling service",
               _args_submit),
}


def _add_commands(parser, commands, dest: str, argv) -> None:
    """Give *parser* the subcommands of *commands*: only the one *argv*
    names first, or every one when it names none (help, usage, an
    unknown command), so a call builds only the parsers it runs.  The
    usage lists every subcommand either way."""
    if argv[:1] and argv[0] in commands:
        names = argv[:1]
        sub = parser.add_subparsers(
            dest=dest, required=True, metavar="{%s}" % ",".join(commands))
    else:
        names = commands
        sub = parser.add_subparsers(dest=dest, required=True)
    for name in names:
        help_text, build = commands[name]
        child = sub.add_parser(name, help=help_text)
        if isinstance(build, dict):
            _add_commands(child, build, f"{name}_command", argv[1:])
        else:
            build(child)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    _add_commands(parser, _COMMANDS, "command", argv)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
