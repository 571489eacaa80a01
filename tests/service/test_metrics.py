"""Counters, gauges, percentile histograms, and the snapshot shape."""

import json

import pytest

from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_tracks_high_water(self):
        gauge = Gauge()
        gauge.set(4)
        gauge.inc(3)
        gauge.dec(6)
        assert gauge.value == 1
        assert gauge.high_water == 7


class TestHistogram:
    def test_exact_aggregates(self):
        histogram = Histogram()
        for value in [3.0, 1.0, 2.0]:
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["sum"] == 6.0
        assert snapshot["min"] == 1.0
        assert snapshot["max"] == 3.0
        assert snapshot["mean"] == 2.0

    def test_percentiles_on_known_data(self):
        histogram = Histogram()
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        assert histogram.percentile(0.50) in (50.0, 51.0)
        assert histogram.percentile(0.95) in (95.0, 96.0)
        assert histogram.percentile(0.99) in (99.0, 100.0)
        assert histogram.percentile(1.0) == 100.0

    def test_empty_percentile_is_none(self):
        assert Histogram().percentile(0.5) is None
        assert Histogram().snapshot()["p95"] is None

    def test_reservoir_bounded_but_count_exact(self):
        histogram = Histogram(capacity=128, seed=1)
        for value in range(10_000):
            histogram.observe(float(value))
        assert histogram.count == 10_000
        assert len(histogram._reservoir) == 128
        # Percentiles stay sane estimates of the uniform stream.
        p50 = histogram.percentile(0.50)
        assert 3_000 <= p50 <= 7_000

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Histogram(capacity=0)


class TestMetricsRegistry:
    def test_instruments_created_on_first_use(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.gauge("depth").set(3)
        registry.histogram("latency").observe(0.5)
        assert registry.counter("requests") is registry.counter("requests")
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"requests": 1}
        assert snapshot["gauges"]["depth"]["value"] == 3
        assert snapshot["histograms"]["latency"]["count"] == 1

    def test_lookup_of_existing_instrument_constructs_nothing(
        self, monkeypatch
    ):
        import repro.service.metrics as metrics

        built = []

        class CountingHistogram(Histogram):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(metrics, "Histogram", CountingHistogram)
        registry = MetricsRegistry()
        first = registry.histogram("x")
        assert len(built) == 1
        assert registry.histogram("x") is first
        assert len(built) == 1

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.histogram("h").observe(1.5)
        text = json.dumps(registry.snapshot(), sort_keys=True)
        parsed = json.loads(text)
        assert parsed["counters"]["a"] == 2
        assert parsed["histograms"]["h"]["p50"] == 1.5
