#!/usr/bin/env python3
"""One performance ledger: the repository's end-to-end and per-layer
benchmark.

    python3 perfbench/run.py --workload profile --seed 1 --seconds 30 --trace 0

Workloads: ``profile`` (live instrumented runs), ``replay`` (record
once, analyze many) and ``serve`` (the job server under closed-loop
clients).  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` also runs traced passes and reports the per-layer
metrics.  Every operation's output is checked; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for every metric's definition.

The ``__main__`` guard at the bottom is required: the server's worker
pools use the forkserver start method, which re-imports ``__main__``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
#: scratch space inside the checkout; spans of traced runs stay here
WORK_ROOT = os.path.join(ROOT, ".perfbench")
#: the span of machine-speed calibrations inside traced passes
CALIBRATION_SPAN = "perfbench.calibration_s"

sys.path.insert(0, HERE)

from harness import Context  # noqa: E402
from ledger import (END_TO_END, PER_LAYER, SCHEMA, Checker,  # noqa: E402
                    References, Speedometer, format_table, machine_block,
                    median, peak_rss_mb, result_line)
from tracing import NullTracer, Tracer  # noqa: E402


def workload_types():
    from wl_profile import ProfileWorkload
    from wl_replay import ReplayWorkload
    from wl_serve import ServeWorkload

    return {cls.name: cls
            for cls in (ProfileWorkload, ReplayWorkload, ServeWorkload)}


def timed_setup(workload, speed) -> float:
    """One set-up, in reference seconds, with the machine's speed
    sampled on both sides."""
    speed.calibrate()
    start = time.perf_counter()
    workload.setup()
    end = time.perf_counter()
    speed.calibrate()
    return workload.seconds(start, end)


def measure(workload, ctx: Context, seconds: float, trace: bool) -> dict:
    """Set up, measure, and collect the ledger of one run."""
    import layers

    speed = ctx.speed
    setups = []
    for n in range(workload.setups):
        if n:
            workload.close()
        setups.append(timed_setup(workload, speed))
    workload.warm()
    share = seconds / 2 if trace else seconds
    passes, intervals = workload.measure(share)
    walls = [workload.seconds(a, b) for a, b in intervals]
    ledger = {
        "setup_s": (median(setups), "s"),
        "pass_s": (median(walls), "s"),
        **workload.end_to_end(passes),
    }
    per_layer = breakdown = None
    if trace:
        tracer = Tracer()
        vector = layers.install(tracer, workload.workload_classes())
        tracer.patch(Speedometer, "calibrate", CALIBRATION_SPAN)
        ctx.spans = tracer
        try:
            traced_passes, traced_intervals = workload.measure(share,
                                                               tracer)
        finally:
            tracer.uninstall()
            ctx.spans = NullTracer()
        breakdown = tracer.breakdown()
        traced = [workload.seconds(a, b) for a, b in traced_intervals]
        per_layer = layer_metrics(workload, breakdown, vector,
                                  traced_passes)
        per_layer["trace_overhead_frac"] = median(traced) / median(walls) - 1
        tracer.write(os.path.join(WORK_ROOT,
                                  f"spans-{workload.name}.jsonl"))
    ledger["peak_rss_mb"] = (peak_rss_mb() + workload.extra_rss_mb(), "MB")
    host_walls = [b - a for a, b in intervals]
    return {"ledger": ledger, "per_layer": per_layer,
            "breakdown": breakdown, "passes": len(walls),
            "setup_samples": setups, "host_pass_s": median(host_walls),
            "machine": machine_block(speed)}


def layer_metrics(workload, breakdown, vector, passes) -> dict:
    """Every per-layer metric; layers the workload bypasses read 0."""
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    for name in breakdown.names():
        if name in metrics:
            metrics[name] = breakdown.mean(name)
    frames = breakdown.mean_calls("trace.decode_s")
    metrics["trace.frames"] = frames
    metrics["trace.columnar_frac"] = (
        vector.accepted / len(breakdown.passes) / frames if frames else 0.0)
    metrics.update(workload.per_layer(passes, breakdown))
    return metrics


def report(workload_name: str, args, run: dict, checker: Checker) -> None:
    ledger = run["ledger"]
    rows = [(name, value, unit) for name, (value, unit) in ledger.items()]
    rows.append(("fail_frac", checker.fail_frac, "fraction"))
    print(format_table(
        f"perfbench {workload_name}: seed {args.seed}, {run['passes']} "
        f"untraced passes, end to end", rows))
    per_layer = run["per_layer"]
    if per_layer is not None:
        breakdown = run["breakdown"]
        units = {name: unit for name, unit, _ in PER_LAYER}
        rows = [(name, value, units[name])
                for name, value in per_layer.items()]
        print(format_table(f"per layer, mean of {len(breakdown.passes)} "
                           "traced passes", rows))
        self_rows = [(name, breakdown.mean(name), "s")
                     for name in breakdown.names()]
        self_rows.append(("= traced pass wall", breakdown.mean_wall(), "s"))
        print(format_table("self time per traced pass", self_rows))
    for failure in checker.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "schema": SCHEMA, "workload": workload_name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": run["machine"],
        "end_to_end": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in ledger.items()},
        "fail_frac": checker.fail_frac,
        "setup_samples_s": run["setup_samples"],
        "host_pass_s": run["host_pass_s"],
        "per_layer": per_layer,
    }))
    if args.trace:
        metrics = {name: (per_layer[name], unit)
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: ledger[name] for name, _, _ in END_TO_END}
    print(result_line(checker, metrics))


def record_reference() -> int:
    """Run every checked operation once and write reference.json."""
    refs = References({}, record=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    tempfile.tempdir = workdir
    try:
        for cls in workload_types().values():
            workload = cls(Context(seed=0, workdir=workdir, refs=refs))
            workload.record_reference()
    finally:
        shutil.rmtree(workdir)
    refs.save(REFERENCE)
    print(f"wrote {len(refs.table)} digests to {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("profile", "replay", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record reference.json from this checkout")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK_ROOT, exist_ok=True)
    if args.write_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    workdir = tempfile.mkdtemp(dir=WORK_ROOT, prefix="run-")
    # the program's own temporary files (memtrace spools) stay inside
    tempfile.tempdir = workdir
    ctx = Context(seed=args.seed, workdir=workdir,
                  refs=References.load(REFERENCE))
    workload = workload_types()[args.workload](ctx)
    try:
        run = measure(workload, ctx, args.seconds, bool(args.trace))
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    report(args.workload, args, run, ctx.checker)
    return 0


if __name__ == "__main__":
    sys.exit(main())
