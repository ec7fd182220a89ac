"""The metrics registry, its latency histograms, the metrics the pipeline
returns with each cell, and logging setup."""

import logging

from repro.diag.log import get_logger, setup_logging
from repro.diag.metrics import (
    BUCKET_BOUNDS,
    LatencyHistogram,
    MetricsRegistry,
    nearest_rank,
)
from repro.pipeline import PipelineOptions, compile_and_run

from tests.runner.helpers import GOOD_SOURCE


class TestRegistry:
    def test_counters_accumulate_and_gauges_overwrite(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 2)
        registry.set_gauge("depth", 5)
        registry.set_gauge("depth", 3)
        assert registry.get("hits") == 3
        assert registry.get("depth") == 3
        assert registry.get("absent", -1) == -1
        assert len(registry) == 2

    def test_as_dict_is_sorted(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        assert list(registry.as_dict()) == ["a", "b"]


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p99_ms"] == 0.0

    def test_single_observation(self):
        histogram = LatencyHistogram()
        histogram.observe(0.003)
        assert histogram.count == 1
        assert histogram.max == 0.003
        # lands in the (0.0025, 0.005] bucket; quantiles stay inside it
        for q in (0.5, 0.95, 0.99):
            assert 0.0 < histogram.quantile(q) <= 0.005

    def test_quantiles_ordered_and_capped_by_max(self):
        histogram = LatencyHistogram()
        for index in range(1000):
            histogram.observe(0.0001 * (index + 1))  # 0.1ms .. 100ms
        p50 = histogram.quantile(0.50)
        p95 = histogram.quantile(0.95)
        p99 = histogram.quantile(0.99)
        assert p50 <= p95 <= p99 <= histogram.max
        # the true p50 is 50ms; bucket interpolation is coarse but sane
        assert 0.025 <= p50 <= 0.1
        assert p99 >= 0.05

    def test_overflow_bucket(self):
        histogram = LatencyHistogram()
        histogram.observe(99.0)  # beyond the last bound
        assert histogram.counts[len(BUCKET_BOUNDS)] == 1
        assert histogram.quantile(0.99) <= histogram.max == 99.0

    def test_mean_in_snapshot(self):
        histogram = LatencyHistogram()
        histogram.observe(0.010)
        histogram.observe(0.030)
        assert abs(histogram.snapshot()["mean_ms"] - 20.0) < 0.001


class TestRegistryHistograms:
    def test_requests_feed_counters_and_histograms(self):
        registry = MetricsRegistry()
        for op, seconds in (("run", 0.01), ("run", 0.02), ("health", 0.001)):
            registry.inc("serve.requests")
            registry.inc(f"serve.requests.{op}")
            registry.observe(f"serve.latency.{op}", seconds)
        values = registry.as_dict()
        assert values["serve.requests"] == 3
        assert values["serve.requests.run"] == 2
        assert values["serve.requests.health"] == 1
        assert registry.histograms["serve.latency.run"].count == 2
        assert registry.histograms["serve.latency.health"].max == 0.001

    def test_error_codes_counted(self):
        registry = MetricsRegistry()
        registry.inc("serve.errors.queue_full")
        registry.inc("serve.errors.queue_full")
        assert registry.get("serve.errors.queue_full") == 2

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        # reading an unseen histogram creates it empty
        assert registry.histogram("serve.queue_wait").snapshot()["count"] == 0
        registry.observe("serve.queue_wait", 0.001)
        snapshot = registry.histogram("serve.queue_wait").snapshot()
        assert list(snapshot) == [
            "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms",
        ]
        assert snapshot["count"] == 1
        assert snapshot["max_ms"] == 1.0

    def test_histograms_kept_out_of_as_dict(self):
        """Per-cell snapshots and the drift baseline carry counters and
        gauges only."""
        registry = MetricsRegistry()
        registry.inc("serve.cache_hits")
        registry.observe("serve.latency.run", 0.01)
        assert registry.as_dict() == {"serve.cache_hits": 1}
        assert len(registry) == 1


class TestNearestRank:
    def test_picks_the_nearest_ranked_sample(self):
        ordered = [0.001 * (i + 1) for i in range(100)]  # 1ms .. 100ms
        assert nearest_rank(ordered, 0.0) == 0.001
        assert nearest_rank(ordered, 0.95) == ordered[94]
        assert nearest_rank(ordered, 1.0) == 0.1

    def test_empty_is_zero(self):
        assert nearest_rank([], 0.5) == 0.0


class TestPipelinePublishes:
    def test_compile_and_run_publishes_cell_metrics(self):
        values = compile_and_run(GOOD_SOURCE, PipelineOptions()).metrics
        assert values["promotion.tags_promoted"] >= 1  # `total` promotes
        assert "licm.hoisted" in values
        assert list(values) == sorted(values)

    def test_promotion_disabled_publishes_no_promotion_gauges(self):
        cell = compile_and_run(GOOD_SOURCE, PipelineOptions(promotion=False))
        assert "promotion.tags_promoted" not in cell.metrics
        assert "promotion.tags_promoted" not in cell.compile_result.metrics

    def test_compile_metrics_exclude_the_interpreter(self):
        cell = compile_and_run(GOOD_SOURCE, PipelineOptions())
        compiled = cell.compile_result.metrics
        assert not any(name.startswith("interp.") for name in compiled)
        # the dynamic counts are the cell's ``counters``, not metrics
        assert cell.metrics == compiled


class TestLogging:
    def test_get_logger_roots_under_repro(self):
        assert get_logger("repro.pipeline").name == "repro.pipeline"
        assert get_logger("__main__").name == "repro.__main__"

    def test_verbosity_levels(self):
        assert setup_logging(-1).level == logging.ERROR
        assert setup_logging(0).level == logging.WARNING
        assert setup_logging(1).level == logging.INFO
        assert setup_logging(2).level == logging.DEBUG
        assert setup_logging(99).level == logging.DEBUG  # clamped
        setup_logging(0)  # leave the default behind for other tests

    def test_setup_is_idempotent(self):
        root = setup_logging(0)
        before = len(root.handlers)
        setup_logging(1)
        setup_logging(0)
        assert len(root.handlers) == before

    def test_messages_reach_the_configured_stream(self):
        import io

        stream = io.StringIO()
        setup_logging(1, stream=stream)
        get_logger("repro.test_metrics").info("hello %d", 42)
        assert "hello 42" in stream.getvalue()
        setup_logging(0)
