"""``repro trace query`` end to end: hits stay rows until read, and the
CLI prints exactly what the per-event oracle finds.

A query's hits are array rows of their launch frames; a hit builds its
event object (:meth:`FrameColumns.record`) only when something reads
``event``.  Counting (``--count``, or draining the iterator as the
ledger does) must build none, and printing N hits exactly N.

The CLI's stdout and stderr over random filters must equal the
oracle's hits (:func:`tests.query_oracle.oracle_query`) rendered
through the CLI's own hit formatter, followed by its summary line or,
past ``--limit``, its truncation lines — on one captured multi-launch
trace through its sidecar and by full scan.
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from repro.cli import _format_query_hit, main
from repro.isa.opcodes import OpClass
from repro.trace.capture import capture_workload
from repro.trace.format import LaunchEvent
from repro.trace.index import index_path_for
from repro.trace.io import FrameColumns, TraceReader
from repro.trace.query import QueryFilter, run_query
from tests.query_oracle import oracle_query
from tests.trace.test_query_oracle import _addresses, _indexed_stats

pytestmark = pytest.mark.noskip

FILTERS = 16
_INDEXED = "(index sidecar)"
_SCANNED = ("(full scan — no usable .rpti sidecar; "
            "run `repro trace index` to keep one)")


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """``{"sidecar": path, "bare": path}`` of one rodinia/pathfinder
    capture (7 launches), and its events."""
    directory = tmp_path_factory.mktemp("query")
    path = str(directory / "p.rptrace")
    _, verified, _ = capture_workload("rodinia/pathfinder", path)
    assert verified
    bare = str(directory / "bare.rptrace")
    shutil.copyfile(path, bare)
    assert not os.path.exists(index_path_for(bare))
    events = list(TraceReader(path).events())
    return {"sidecar": path, "bare": bare}, events


@pytest.fixture()
def records(monkeypatch):
    """The ``(tag, k)`` of every event object a hit builds."""
    built = []
    real = FrameColumns.record

    def counting(frame, tag, k):
        built.append((tag, k))
        return real(frame, tag, k)

    monkeypatch.setattr(FrameColumns, "record", counting)
    return built


@pytest.mark.parametrize("route", ["sidecar", "bare"])
def test_counting_builds_no_event(traces, route, records, capsys):
    paths, _ = traces
    hits, stats = run_query(paths[route], QueryFilter())
    total = sum(1 for _ in hits)     # the ledger's drain
    assert total == stats.hits > 100 and records == []
    assert main(["trace", "query", paths[route], "--count"]) == 0
    assert capsys.readouterr().out.startswith(f"{total:,} hits in ")
    assert records == []


@pytest.mark.parametrize("route", ["sidecar", "bare"])
@pytest.mark.parametrize("limit", [0, 1, 37])
def test_printing_builds_one_event_a_hit(traces, route, limit, records,
                                         capsys):
    paths, _ = traces
    assert main(["trace", "query", paths[route], "--limit",
                 str(limit)]) == 0
    printed = capsys.readouterr().out.splitlines()[:-1]
    assert len(printed) == limit == len(records)


def _random_args(rng: random.Random, last: int, addrs):
    """CLI arguments of one random filter over launches ``0..last``."""
    args = []
    if rng.random() < 0.4:
        args += ["--launches", rng.choice(
            ("0:", ":1", "2:4", "3", "1:1", f"{last}:", f"0:{last + 1}"))]
    if rng.random() < 0.5:
        names = [m.name.lower() for m in OpClass if m is not OpClass.NONE]
        args += ["--class", ",".join(rng.sample(names, rng.randint(1, 3)))]
    if rng.random() < 0.4:
        lo, hi = sorted(rng.sample(addrs, 2))
        args += ["--addr", rng.choice((f"0x{lo:x}:0x{hi + 1:x}",
                                       f"0x{lo:x}:", f":0x{hi:x}"))]
    if rng.random() < 0.4:
        args += ["--warp", str(rng.choice((0, 1, 3, 7)))]
    if rng.random() < 0.4:
        kinds = ("instr", "mem", "branch")
        args += ["--kind", ",".join(rng.sample(kinds, rng.randint(1, 3)))]
    return args


def _filter(args) -> QueryFilter:
    values = dict(zip(args[::2], args[1::2]))
    return QueryFilter.parse(
        launches=values.get("--launches"), classes=values.get("--class"),
        addr=values.get("--addr"),
        warp=int(values["--warp"]) if "--warp" in values else None,
        kinds=values.get("--kind"))


def _summary(hits: int, launches: tuple, how: str) -> str:
    total, visited, skipped, scanned = launches
    return (f"{hits:,} hits in {visited} of {total} launches "
            f"({skipped} skipped), {scanned:,} events scanned {how}\n")


def _expected(hits, launches, how, limit, count):
    """The CLI's ``(stdout, stderr)``, from the oracle's *hits* and the
    route's ``(total, visited, skipped, scanned)`` *launches*."""
    summary = _summary(len(hits), launches, how)
    if count:
        return summary, ""
    lines = "".join(_format_query_hit(hit) + "\n" for hit in hits[:limit])
    if len(hits) <= limit:
        return lines + summary, ""
    return (lines + f"{limit}+ hits {how}\n",
            f"... stopped after --limit {limit} hits "
            "(use --count for the exact total)\n")


def test_cli_output_equals_oracle(traces, capsys):
    paths, events = traces
    rng = random.Random(24)
    last = sum(isinstance(event, LaunchEvent) for event in events) - 1
    addrs = _addresses(events)
    for _ in range(FILTERS):
        args = _random_args(rng, last, addrs)
        filt = _filter(args)
        hits, stats = oracle_query(events, filt)
        routes = {
            "sidecar": (_indexed_stats(events, filt), _INDEXED),
            "bare": ((stats.launches_total, stats.launches_visited,
                      stats.launches_skipped, stats.events_scanned),
                     _SCANNED)}
        for route, (launches, how) in routes.items():
            for limit, count in ((rng.randint(0, max(len(hits) - 1, 0)),
                                  False),
                                 (len(hits) + rng.randint(0, 3), False),
                                 (50, True)):
                extra = ["--count"] if count else ["--limit", str(limit)]
                assert main(["trace", "query", paths[route], *args,
                             *extra]) == 0
                got = capsys.readouterr()
                want = _expected(hits, launches, how, limit, count)
                assert (got.out, got.err) == want, (route, args, extra)


def test_long_frames_rank_kind_by_kind(traces, monkeypatch):
    # a frame too long for the packed rank fields ranks each kind in
    # a pass of its own; the hits must not change
    from repro.trace import query

    paths, events = traces
    monkeypatch.setattr(query, "_RANK_BITS", 0)
    for filt in (QueryFilter(), QueryFilter.parse(classes="memory"),
                 QueryFilter.parse(kinds="branch,mem", warp=1)):
        want, _ = oracle_query(events, filt)
        for path in paths.values():
            hits, _ = run_query(path, filt)
            assert list(hits) == want
