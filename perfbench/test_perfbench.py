"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from ledger import (END_TO_END, PER_LAYER, Checker,  # noqa: E402
                    References, Speedometer, digest, percentile,
                    tail_percentile)
from tracing import PASS, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_matches_inclusive_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    assert percentile(values, 25) == pytest.approx(quartiles[0])
    assert percentile(values, 50) == pytest.approx(statistics.median(values))
    assert percentile(values, 75) == pytest.approx(quartiles[2])
    assert percentile([4.0], 90) == 4.0


class Layer:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.advance(1.0)
        self.inner()
        self.clock.advance(0.5)

    def inner(self):
        self.clock.advance(2.0)


def test_self_times_plus_unattributed_sum_to_pass_wall():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    original_outer = Layer.outer
    tracer.patch(Layer, "outer", "outer_s")
    tracer.patch(Layer, "inner", "inner_s")
    layer = Layer(clock)
    for _ in range(2):
        with tracer.span(PASS):
            clock.advance(0.25)
            layer.outer()
            layer.inner()
    tracer.uninstall()
    assert Layer.outer is original_outer
    assert "outer" not in vars(layer)

    breakdown = tracer.breakdown()
    assert breakdown.mean("outer_s") == pytest.approx(1.5)
    assert breakdown.mean("inner_s") == pytest.approx(4.0)
    assert breakdown.mean("unattributed_s") == pytest.approx(0.25)
    assert breakdown.mean_calls("inner_s") == 2
    total = sum(breakdown.mean(name) for name in breakdown.names())
    assert total == pytest.approx(breakdown.mean_wall())
    assert breakdown.mean_wall() == pytest.approx(5.75)


def test_spans_outside_a_pass_are_not_attributed():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("setup_s"):
        clock.advance(3.0)
    with tracer.span(PASS):
        clock.advance(1.0)
    breakdown = tracer.breakdown()
    assert breakdown.names() == ["unattributed_s"]
    assert breakdown.mean_wall() == pytest.approx(1.0)


def test_speedometer_rescales_and_leaves_out_inline_calibrations():
    speed = Speedometer()
    speed.samples = [(0.0, 0.04, 0.04), (10.0, 10.04, 0.04),
                     (20.0, 20.02, 0.02)]
    # the loop ran at twice the reference time around this interval
    assert speed.seconds(0.04, 10.0) == pytest.approx(9.96 * 0.5)
    # all three calibrations ran inside: left out, and averaged
    assert speed.seconds(0.0, 20.02) == pytest.approx(
        (20.02 - 0.1) * 0.02 / (0.1 / 3))
    assert speed.seconds(0.0, 20.02, inline=False) == pytest.approx(
        20.02 * 0.02 / (0.1 / 3))


def test_digest_mismatch_raises_fail_frac():
    refs = References({"op:a": digest({"cycles": 10}),
                       "op:b": digest({"cycles": 20})})
    checker = Checker()
    for key, value in (("op:a", {"cycles": 10}), ("op:b", {"cycles": 21})):
        problems = []
        refs.expect(key, value, problems)
        checker.record(key, problems)
    assert checker.attempted == 2
    assert checker.failed == 1
    assert checker.fail_frac == 0.5
    assert "op:b" in checker.failures[0]


def test_missing_reference_fails_and_recording_stores():
    problems = []
    References({}).expect("op:new", [1, 2], problems)
    assert problems
    recorder = References({}, record=True)
    problems = []
    recorder.expect("op:new", [1, 2], problems)
    assert not problems and recorder.table["op:new"] == digest([1, 2])


def test_benchmark_json_lists_the_catalogued_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {w["name"] for w in spec["workloads"]} == {
        "profile", "replay", "serve"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "profile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
