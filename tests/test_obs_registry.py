"""Tests for the metrics registry: counters, gauges, histograms,
labeled children, and the dict/JSON/JSONL exports."""

import json
import math

import pytest

from repro.obs import MetricsRegistry
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    DEFAULT_FACTOR,
    DEFAULT_LOWEST,
    Histogram,
)


class TestCounters:
    def test_create_and_increment(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.counter("requests").inc(4)
        assert registry.value("requests") == 5

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("requests").inc(-1)

    def test_labeled_children_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("msgs", kind="ELECT").inc(3)
        registry.counter("msgs", kind="GRAY").inc(1)
        assert registry.value("msgs", kind="ELECT") == 3
        assert registry.value("msgs", kind="GRAY") == 1
        assert registry.value("msgs", kind="NOPE") == 0

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("m", a="1", b="2").inc()
        registry.counter("m", b="2", a="1").inc()
        assert registry.value("m", a="1", b="2") == 2

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")
        with pytest.raises(ValueError):
            registry.histogram("thing")


class TestGauges:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("dirtiness")
        gauge.set(0.5)
        gauge.inc(0.25)
        gauge.dec(0.5)
        assert registry.value("dirtiness") == pytest.approx(0.25)


class TestSnapshot:
    def test_sections_and_qualified_names(self):
        registry = MetricsRegistry()
        registry.counter("sends", kind="A").inc(2)
        registry.gauge("size").set(7)
        registry.histogram("lat").observe(0.001)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"sends{kind=A}": 2}
        assert snapshot["gauges"] == {"size": 7}
        assert snapshot["histograms"]["lat"]["count"] == 1

    def test_to_json_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        assert json.loads(registry.to_json())["counters"]["c"] == 1

    def test_write_jsonl_appends(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = str(tmp_path / "metrics.jsonl")
        registry.write_jsonl(path, run=1)
        registry.counter("c").inc()
        registry.write_jsonl(path, run=2)
        lines = [json.loads(line) for line in open(path)]
        assert [line["run"] for line in lines] == [1, 2]
        assert [line["metrics"]["counters"]["c"] for line in lines] == [1, 2]


class TestHistogramBasics:
    def test_mean_min_max(self):
        histogram = Histogram()
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value)
        assert histogram.mean == pytest.approx(0.002)
        assert histogram.min == 0.001 and histogram.max == 0.003

    def test_negative_clamps_to_zero(self):
        histogram = Histogram()
        histogram.observe(-5.0)
        assert histogram.min == 0.0 and histogram.count == 1

    def test_quantile_range_validation(self):
        histogram = Histogram()
        with pytest.raises(ValueError):
            histogram.quantile(0.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)


class TestQuantileEdgeCases:
    """The satellite cases: empty, single sample, overflow bucket."""

    def test_empty_histogram(self):
        histogram = Histogram()
        for q in (0.01, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == 0.0
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["p50"] == summary["p99"] == summary["max"] == 0.0

    def test_single_sample_every_quantile_is_the_sample(self):
        histogram = Histogram()
        histogram.observe(0.00137)
        for q in (0.01, 0.5, 0.95, 0.99, 1.0):
            assert histogram.quantile(q) == pytest.approx(0.00137)

    def test_single_sample_above_top_bucket_bound(self):
        top = DEFAULT_LOWEST * DEFAULT_FACTOR ** DEFAULT_BUCKETS
        histogram = Histogram()
        histogram.observe(top * 1000)
        assert histogram.counts[-1] == 1
        for q in (0.5, 0.99, 1.0):
            assert histogram.quantile(q) == pytest.approx(top * 1000)

    def test_overflow_bucket_interpolates_toward_observed_max(self):
        top = DEFAULT_LOWEST * DEFAULT_FACTOR ** DEFAULT_BUCKETS
        histogram = Histogram()
        for _ in range(50):
            histogram.observe(top * 100)
        histogram.observe(1e-7)  # one tiny sample in bucket 0
        # The tail quantile must not be stuck at the nominal top bound:
        # the overflow bucket interpolates up to the observed max.
        assert histogram.quantile(0.99) > top
        assert histogram.quantile(0.99) <= histogram.max

    def test_quantiles_are_monotone_in_q(self):
        histogram = Histogram()
        for exponent in range(-6, 4):
            histogram.observe(10.0 ** exponent)
        values = [histogram.quantile(q) for q in (0.1, 0.25, 0.5, 0.9, 0.99, 1.0)]
        assert values == sorted(values)
        assert values[-1] == histogram.max


def _loop_bucket(value, lowest, factor, buckets):
    """The bucket a bucket-by-bucket walk picks: a reference copy of the
    loop ``Histogram.observe`` used before it bisected precomputed
    bounds."""
    value = max(0.0, float(value))
    index = 0
    bound = lowest
    while value > bound and index < buckets:
        bound *= factor
        index += 1
    return index


class TestBucketSearch:
    LAYOUTS = [
        (DEFAULT_LOWEST, DEFAULT_FACTOR, DEFAULT_BUCKETS),
        (1e-3, 1.5, 12),
    ]

    @staticmethod
    def _probes(lowest, factor, buckets):
        probes = [0.0, -0.0, -1.0, -1e-300, math.nan, -math.nan, math.inf,
                  -math.inf, 5e-324, 1.0]
        bound = lowest
        for _ in range(buckets + 1):
            probes += [bound, math.nextafter(bound, 0.0),
                       math.nextafter(bound, math.inf),
                       lowest * factor ** math.log(bound / lowest, factor)]
            bound *= factor
        return probes

    @pytest.mark.parametrize("lowest,factor,buckets", LAYOUTS)
    def test_bisect_matches_the_loop(self, lowest, factor, buckets):
        for probe in self._probes(lowest, factor, buckets):
            histogram = Histogram(lowest=lowest, factor=factor, buckets=buckets)
            histogram.observe(probe)
            expected = _loop_bucket(probe, lowest, factor, buckets)
            assert histogram.counts[expected] == 1, (probe, histogram.counts)

    @pytest.mark.parametrize("lowest,factor", [(0.0, 2.0), (-1e-6, 2.0),
                                               (1e-6, 1.0), (1e-6, 0.5),
                                               (math.nan, 2.0)])
    def test_layouts_without_rising_bounds_are_rejected(self, lowest, factor):
        with pytest.raises(ValueError, match="lowest > 0 and factor > 1"):
            Histogram(lowest=lowest, factor=factor)


class TestOverCapChildren:
    def test_holds_only_registered_children(self):
        registry = MetricsRegistry(max_label_children=1)
        kept = registry.histogram("lat", op="a")
        detached = registry.histogram("lat", op="b")
        assert registry.holds(kept) and registry.holds(registry.counter("c"))
        assert not registry.holds(detached)
        assert not MetricsRegistry().holds(kept)

    def test_every_over_cap_observe_is_counted(self):
        from repro.service import ServiceMetrics

        registry = MetricsRegistry(max_label_children=1)
        metrics = ServiceMetrics(registry)
        for _ in range(3):
            metrics.observe("route", 0.001)
            metrics.observe("dominator", 0.001)
        dropped = registry.value(
            MetricsRegistry.DROPPED_LABELS, family="request_latency_seconds"
        )
        assert dropped == 3
        histograms = registry.snapshot()["histograms"]
        assert list(histograms) == ["request_latency_seconds{op=route}"]
        assert histograms["request_latency_seconds{op=route}"]["count"] == 3
