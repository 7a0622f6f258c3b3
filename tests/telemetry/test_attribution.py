"""Overhead attribution: bucket accounting and the overhead-study
cross-check."""

from __future__ import annotations

import pytest

from repro.telemetry import (
    BUCKETS,
    TELEMETRY,
    attribute_workload,
    cross_check_instruction_ratio,
    split_wall,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


class TestSplitWall:
    def test_buckets_sum_exactly(self):
        buckets = split_wall(
            2.0, 0.5,
            {"sassi.spill": 30, "sassi.fill": 30,
             "sassi.save_restore": 40, "sassi.param_marshal": 100},
            baseline_instructions=100)
        assert set(buckets) == set(BUCKETS)
        assert sum(buckets.values()) == pytest.approx(2.0, abs=1e-12)
        assert buckets["handler_body"] == 0.5
        # equal instruction weights -> equal shares of the remainder
        assert buckets["baseline"] == pytest.approx(0.5)
        assert buckets["save_restore"] == pytest.approx(0.5)
        assert buckets["param_marshal"] == pytest.approx(0.5)

    def test_handler_body_clamped_to_wall(self):
        buckets = split_wall(1.0, 5.0, {}, baseline_instructions=10)
        assert buckets["handler_body"] == 1.0
        assert sum(buckets.values()) == pytest.approx(1.0)

    def test_no_counters_degrades_to_all_baseline(self):
        buckets = split_wall(1.0, 0.0, {}, baseline_instructions=0)
        assert buckets["baseline"] == pytest.approx(1.0)


class TestAttributeWorkload:
    def test_buckets_sum_to_instrumented_wall_within_1pct(self):
        report = attribute_workload("rodinia/nn", case="memory")
        total = sum(report.wall_buckets.values())
        assert total == pytest.approx(report.instrumented_wall,
                                      rel=0.01)
        assert all(value >= 0 for value in report.wall_buckets.values())
        assert report.slowdown > 1.0
        assert report.instruction_buckets["save_restore"] > 0
        assert report.instruction_buckets["param_marshal"] > 0

    def test_render_mentions_every_bucket(self):
        report = attribute_workload("rodinia/nn", case="memory")
        text = report.render()
        for bucket in BUCKETS:
            assert bucket in text
        assert "rodinia/nn" in text

    def test_cross_checks_against_overhead_study(self):
        """The attribution's instruction ratio must agree with the
        independently measured I column of studies.overhead."""
        from repro.studies.overhead import measure_benchmark

        report = attribute_workload("rodinia/nn", case="memory")
        row = measure_benchmark("rodinia/nn", cases=("memory",),
                                use_cache=False)
        observed = row.cells["memory"].instruction_ratio
        assert cross_check_instruction_ratio(report, observed) < 0.01

    def test_leaves_telemetry_disabled_when_it_was(self):
        assert not TELEMETRY.enabled
        attribute_workload("rodinia/nn", case="memory")
        assert not TELEMETRY.enabled

    def test_leaves_telemetry_disabled_after_a_compile_error(
            self, monkeypatch):
        import repro.studies.overhead as overhead

        class _Failing:
            def compile(self, ir, cache=None):
                raise RuntimeError("compile failed")

        monkeypatch.setattr(overhead, "_handler_for",
                            lambda case, device: _Failing())
        assert not TELEMETRY.enabled
        with pytest.raises(RuntimeError, match="compile failed"):
            attribute_workload("rodinia/nn", case="memory")
        assert not TELEMETRY.enabled


class TestSampledAttribution:
    """Bucket accounting must stay exact when sites are sampled."""

    def test_sampled_buckets_still_sum_exactly(self):
        from repro.sassi.runtime import AdaptiveController, EveryNth

        controller = AdaptiveController(sampling=EveryNth(4))
        report = attribute_workload("rodinia/nn", case="memory",
                                    controller=controller)
        assert set(report.wall_buckets) == set(BUCKETS)
        total = sum(report.wall_buckets.values())
        assert total == pytest.approx(report.instrumented_wall, rel=0.01)
        # skipped firings execute nothing: zero wall, nonzero instrs
        assert report.wall_buckets["sampled_skipped"] == 0.0
        assert report.instruction_buckets["sampled_skipped"] > 0

    def test_skipped_plus_executed_equals_full_rate(self):
        """The ``sampled_skipped`` fix: instruction-level accounting
        must not lose the skipped firings.  Executed injected
        instructions plus the skipped bucket equal the full-rate run's
        injected instructions exactly."""
        from repro.sassi.runtime import AdaptiveController, EveryNth

        def injected(report):
            return (report.instruction_buckets["save_restore"]
                    + report.instruction_buckets["param_marshal"])

        full = attribute_workload("rodinia/nn", case="memory")
        controller = AdaptiveController(sampling=EveryNth(4))
        sampled = attribute_workload("rodinia/nn", case="memory",
                                     controller=controller)
        assert full.instruction_buckets["sampled_skipped"] == 0
        assert injected(sampled) \
            + sampled.instruction_buckets["sampled_skipped"] \
            == injected(full)

    def test_full_rate_controller_changes_nothing(self):
        from repro.sassi.runtime import AdaptiveController

        plain = attribute_workload("rodinia/nn", case="memory")
        controlled = attribute_workload(
            "rodinia/nn", case="memory",
            controller=AdaptiveController())
        assert plain.instruction_buckets == controlled.instruction_buckets
