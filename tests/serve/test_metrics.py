"""Service metrics: counters, the latency window, and obs mirroring."""

from repro import obs
from repro.serve.metrics import ServeMetrics


class TestCounters:
    def test_incr_accumulates(self):
        metrics = ServeMetrics()
        metrics.incr("serve.requests")
        metrics.incr("serve.requests", n=2)
        assert metrics.count("serve.requests") == 3
        assert metrics.count("serve.never") == 0

    def test_counters_snapshot_sorted(self):
        metrics = ServeMetrics()
        metrics.incr("serve.zz")
        metrics.incr("serve.aa")
        assert list(metrics.counters()) == ["serve.aa", "serve.zz"]

    def test_mirrored_to_obs(self, tmp_path):
        """A traced service leaves its serve.* counters in the trace
        files -- one name, two sinks."""
        from repro.obs.report import aggregate, iter_events

        directory = obs.configure(tmp_path / "trace")
        try:
            metrics = ServeMetrics()
            metrics.incr("serve.requests", n=4)
            obs.flush()
            data = aggregate(iter_events(directory))
            assert data["counters"]["serve.requests"]["total"] == 4
        finally:
            obs.configure(None)


class TestLatency:
    def test_empty_window(self):
        assert ServeMetrics().latency() == {"count": 0}

    def test_percentiles_over_known_samples(self):
        metrics = ServeMetrics()
        for ms in range(1, 101):           # 1ms .. 100ms
            metrics.observe_latency(ms / 1e3)
        stats = metrics.latency()
        assert stats["count"] == 100
        assert stats["max_ms"] == 100.0
        assert abs(stats["p50_ms"] - 50.0) <= 1.0
        assert abs(stats["p95_ms"] - 95.0) <= 1.0
        assert abs(stats["mean_ms"] - 50.5) < 1e-9
        # Nearest rank ceil(q*n), as `obs report` computes it.
        four = ServeMetrics()
        for ms in (1, 2, 3, 4):
            four.observe_latency(ms / 1e3)
        stats = four.latency()
        assert stats["p50_ms"] == 2.0
        assert stats["p95_ms"] == 4.0

    def test_window_is_bounded(self):
        metrics = ServeMetrics(window=8)
        for i in range(100):
            metrics.observe_latency(float(i))
        stats = metrics.latency()
        assert stats["count"] == 8
        assert stats["max_ms"] == 99.0 * 1e3
        # The window holds only the most recent 8 samples.
        assert stats["p50_ms"] >= 92.0 * 1e3
