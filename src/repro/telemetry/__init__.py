"""Zero-dependency observability: spans, hot-loop counters, exporters.

Quick start::

    from repro import telemetry as T

    T.TELEMETRY.enable(reset=True)
    with T.span("run", workload="vectoradd"):
        ...
    print(T.render_summary())
    T.write_chrome_trace("out.json")       # open in chrome://tracing

Everything is off by default; with telemetry disabled the executor
skips its once-per-launch counter fold and :func:`span` yields
immediately.
"""

from repro.telemetry.collector import (
    Mark,
    Snapshot,
    Span,
    TELEMETRY,
    Telemetry,
    span,
    timed,
)
from repro.telemetry.classify import (
    OPCLASS_KEY,
    SAVE_RESTORE_KEYS,
    primary_class_name,
    sassi_key,
)
from repro.telemetry.export import (
    chrome_trace,
    jsonl_events,
    render_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.manifest import git_revision, run_manifest
from repro.telemetry.attribution import (
    AttributionReport,
    BUCKETS,
    attribute_workload,
    cross_check_instruction_ratio,
    split_wall,
)

__all__ = [
    "Mark", "Snapshot", "Span", "TELEMETRY", "Telemetry", "span", "timed",
    "OPCLASS_KEY", "SAVE_RESTORE_KEYS", "primary_class_name", "sassi_key",
    "chrome_trace", "jsonl_events", "render_summary", "write_chrome_trace",
    "write_jsonl", "git_revision", "run_manifest",
    "AttributionReport", "BUCKETS", "attribute_workload",
    "cross_check_instruction_ratio", "split_wall",
]
