"""Unit tests for the metrics registry (repro.obs.metrics)."""

import json

import pytest

from repro.obs import metrics
from repro.obs.metrics import METRICS_SCHEMA, MetricsRegistry, bucket_exponent


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Every test runs against its own module-level registry."""
    prev = metrics.swap_registry()
    try:
        yield
    finally:
        metrics.swap_registry(prev)


class TestBucketExponent:
    @pytest.mark.parametrize(
        "value, exponent",
        [
            (-5, 0),
            (0, 0),
            (1, 1),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (1024, 10),
            (1025, 11),
        ],
    )
    def test_integer_buckets(self, value, exponent):
        assert bucket_exponent(value) == exponent

    @pytest.mark.parametrize("value, exponent", [(0.5, 1), (1.5, 1), (2.5, 2), (7.9, 3)])
    def test_float_buckets(self, value, exponent):
        assert bucket_exponent(value) == exponent

    def test_bucket_covers_its_value(self):
        """Bucket e covers (2**(e-1), 2**e] for ints >= 2; 1 shares bucket 1."""
        assert bucket_exponent(1) == 1
        for value in range(2, 300):
            e = bucket_exponent(value)
            assert 2 ** (e - 1) < value <= 2**e


class TestRegistry:
    def test_counter_semantics(self):
        reg = MetricsRegistry()
        reg.counter_add("hits")
        reg.counter_add("hits", 4)
        assert reg.counters == {"hits": 5}

    def test_gauge_is_high_water_mark(self):
        reg = MetricsRegistry()
        reg.gauge_max("depth", 3)
        reg.gauge_max("depth", 1)
        reg.gauge_max("depth", 7)
        assert reg.gauges == {"depth": 7}

    def test_histogram_exact_summary(self):
        reg = MetricsRegistry()
        for v in (1, 2, 3, 100):
            reg.observe("cycles", v)
        hist = reg.to_dict()["histograms"]["cycles"]
        assert hist["count"] == 4
        assert hist["sum"] == 106
        assert hist["min"] == 1 and hist["max"] == 100
        # bucket keys are strings (JSON-safe) and sorted
        assert list(hist["buckets"]) == ["1", "2", "7"]
        assert hist["buckets"] == {"1": 2, "2": 1, "7": 1}

    def test_merge_all_kinds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter_add("n", 2)
        b.counter_add("n", 3)
        a.gauge_max("g", 10)
        b.gauge_max("g", 4)
        a.observe("h", 8)
        b.observe("h", 16)
        a.timer_add("t", 100)
        b.timer_add("t", 200)
        a.merge(b)
        payload = a.to_dict()
        assert payload["counters"] == {"n": 5}
        assert payload["gauges"] == {"g": 10}
        assert payload["histograms"]["h"]["count"] == 2
        assert payload["histograms"]["h"]["sum"] == 24
        assert payload["timers"]["t"] == {"calls": 2, "seconds": 3e-7}

    def test_deterministic_export_drops_timers(self):
        reg = MetricsRegistry()
        reg.counter_add("n")
        reg.timer_add("stage", 12345)
        full = reg.to_dict()
        det = reg.to_dict(deterministic_only=True)
        assert "timers" in full
        assert "timers" not in det
        assert det["schema_version"] == METRICS_SCHEMA

    def test_round_trip_survives_json(self):
        reg = MetricsRegistry()
        reg.counter_add("n", 7)
        reg.gauge_max("g", 3)
        reg.observe("h", 5)
        payload = reg.to_dict(deterministic_only=True)
        back = MetricsRegistry.from_dict(json.loads(json.dumps(payload)))
        assert back.to_dict(deterministic_only=True) == payload

    def test_from_dict_rejects_wrong_schema(self):
        payload = MetricsRegistry().to_dict()
        payload["schema_version"] = METRICS_SCHEMA + 1
        with pytest.raises(ValueError, match="schema"):
            MetricsRegistry.from_dict(payload)
        with pytest.raises(ValueError, match="schema"):
            MetricsRegistry().merge_payload(payload)

    def test_merged_folds_payloads(self):
        payloads = []
        for value in (1, 2, 3):
            reg = MetricsRegistry()
            reg.counter_add("n", value)
            payloads.append(reg.to_dict(deterministic_only=True))
        merged = MetricsRegistry.merged(payloads)
        assert merged.counters == {"n": 6}

    def test_is_empty(self):
        reg = MetricsRegistry()
        assert reg.is_empty()
        reg.counter_add("n")
        assert not reg.is_empty()


class TestModuleRegistry:
    def test_module_functions_hit_installed_registry(self):
        metrics.counter_add("a", 2)
        metrics.gauge_max("b", 9)
        metrics.observe("c", 4)
        payload = metrics.metrics_dict(deterministic_only=True)
        assert payload["counters"] == {"a": 2}
        assert payload["gauges"] == {"b": 9}
        assert payload["histograms"]["c"]["count"] == 1

    def test_swap_registry_isolates(self):
        metrics.counter_add("outer")
        prev = metrics.swap_registry()
        metrics.counter_add("inner")
        inner = metrics.registry().to_dict()["counters"]
        metrics.swap_registry(prev)
        assert inner == {"inner": 1}
        assert metrics.registry().counters == {"outer": 1}

    def test_reset_clears_everything(self):
        metrics.counter_add("n")
        metrics.timer_add("t", 1)
        metrics.reset()
        assert metrics.registry().is_empty()

    def test_capture_yields_delta_and_merges_back(self):
        metrics.counter_add("n", 10)
        with metrics.capture() as delta:
            metrics.counter_add("n", 3)
            metrics.timer_add("t", 500)
        # the delta holds only what the block recorded, without timers
        assert delta["counters"] == {"n": 3}
        assert "timers" not in delta
        assert delta["schema_version"] == METRICS_SCHEMA
        # the parent registry now holds the total, timers included
        assert metrics.registry().counters == {"n": 13}
        assert metrics.registry().timers["t"] == [1, 500]

    def test_capture_exposes_only_the_block_timers(self):
        metrics.timer_add("pre.existing", 100)
        cap = metrics.capture()
        with cap:
            metrics.timer_add("inside", 200)
            metrics.timer_add("pre.existing", 300)
        # re-entry of a pre-existing timer shows only the block's calls
        assert cap.timers == {
            "inside": {"calls": 1, "seconds": 2e-7},
            "pre.existing": {"calls": 1, "seconds": 3e-7},
        }
        assert metrics.registry().timers["pre.existing"] == [2, 400]

    def test_capture_merges_back_on_exception(self):
        with pytest.raises(RuntimeError):
            with metrics.capture() as delta:
                metrics.counter_add("n")
                raise RuntimeError("boom")
        assert delta["counters"] == {"n": 1}
        assert metrics.registry().counters == {"n": 1}
