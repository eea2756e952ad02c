"""The metrics layer: counters, gauges, histograms, registry, rendering."""

from __future__ import annotations

import math
import threading

import pytest

from repro.observability.export import render_prometheus
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentiles,
)
from repro.util.errors import ValidationError


class TestPercentiles:
    def test_exact_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        got = percentiles(values)
        assert got["p50"] == 3.0
        assert got["p95"] == pytest.approx(4.8)
        assert got["p99"] == pytest.approx(4.96)

    def test_single_sample_is_every_percentile(self):
        got = percentiles([7.0])
        assert got == {"p50": 7.0, "p95": 7.0, "p99": 7.0}

    def test_empty_is_nan(self):
        got = percentiles([])
        assert all(math.isnan(v) for v in got.values())

    def test_order_independent(self):
        assert percentiles([3.0, 1.0, 2.0]) == percentiles([1.0, 2.0, 3.0])


class TestCounter:
    def test_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Counter().inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10.0)
        g.inc(2.0)
        g.dec(5.0)
        assert g.value == 7.0


class TestHistogram:
    def test_counts_land_in_buckets(self):
        h = Histogram(bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(555.5)
        assert list(h.counts) == [1, 1, 1, 1]

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram(bounds=(1.0, 10.0, 100.0))
        h.observe(5.0)
        # one sample: every percentile collapses onto it, never a bucket edge
        assert h.percentile(50) == pytest.approx(5.0)
        assert h.percentile(99) == pytest.approx(5.0)

    def test_percentile_of_empty_is_nan(self):
        assert math.isnan(Histogram(bounds=(1.0,)).percentile(50))

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValidationError):
            Histogram(bounds=(2.0, 1.0))

    def test_summary_has_quantiles(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.004):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 3
        assert summary["p50"] <= summary["p95"] <= summary["p99"]


class TestRegistry:
    def test_same_name_and_labels_share_a_metric(self):
        reg = MetricsRegistry()
        reg.counter("hits", backend="a").inc()
        reg.counter("hits", backend="a").inc()
        reg.counter("hits", backend="b").inc()
        assert reg.value("hits", backend="a") == 2
        assert reg.value("hits", backend="b") == 1

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.counter("x", a=1, b=2).inc()
        reg.counter("x", b=2, a=1).inc()
        assert reg.value("x", a=1, b=2) == 2

    def test_one_kind_per_name(self):
        reg = MetricsRegistry()
        reg.counter("m").inc()
        with pytest.raises(ValidationError):
            reg.gauge("m")

    def test_items_sorted_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        names = [name for name, _, _ in reg.items()]
        assert names == sorted(names)

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.clear()
        assert list(reg.items()) == []

    def test_thread_safe_counting(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(500):
                reg.counter("races").inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.value("races") == 2000


class TestPrometheusRender:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("plan.cache_hits").inc(3)
        reg.gauge("pool.width", backend="thread").set(4)
        text = render_prometheus(reg)
        assert "# TYPE repro_plan_cache_hits counter" in text
        assert "repro_plan_cache_hits 3" in text
        assert 'repro_pool_width{backend="thread"} 4' in text

    def test_histogram_series(self):
        reg = MetricsRegistry()
        h = reg.histogram("chunk.seconds", buckets=(0.01, 0.1))
        h.observe(0.005)
        h.observe(0.05)
        text = render_prometheus(reg)
        assert 'repro_chunk_seconds_bucket{le="0.01"} 1' in text
        assert 'repro_chunk_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_chunk_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_chunk_seconds_count 2" in text
        assert "repro_chunk_seconds_p50" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
