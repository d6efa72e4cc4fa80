"""Edge cases the diff engine leans on: quantile bounds and hardened
deserialization for QuantileSketch, whether it arrives as a fleet
sketch or as a hub histogram.

The cross-run diff gates on ``quantile_bounds`` intervals, so these pin
the degenerate shapes — empty, single observation, all-equal, spilled,
underflow — and the bounds-contain-truth contract that makes "within
sketch error" an honest verdict.
"""

import pytest

from repro.obs.archive import RunSnapshot
from repro.obs.compare import distribution_bounds
from repro.obs.hub import MetricsHub
from repro.obs.sketch import SKETCH_RELATIVE_ERROR, QuantileSketch, percentile


def hub_histogram() -> QuantileSketch:
    """A fresh hub-side histogram (``MetricsHub.histogram``)."""
    return MetricsHub("edges").histogram("h")


class TestSketchQuantileBounds:
    def test_empty_is_zero_width_zero(self):
        assert QuantileSketch().quantile_bounds(0.5) == (0.0, 0.0)

    def test_single_observation_exact(self):
        sketch = QuantileSketch()
        sketch.observe(0.003)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert sketch.quantile_bounds(q) == (0.003, 0.003)

    def test_all_equal_stream_exact(self):
        sketch = QuantileSketch()
        for _ in range(1000):
            sketch.observe(7.0)
        assert sketch.quantile_bounds(0.99) == (7.0, 7.0)

    def test_bounds_contain_truth(self):
        values = [0.0001 * (1 + i % 97) for i in range(5000)]
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        for q in (0.1, 0.5, 0.9, 0.99):
            lo, hi = sketch.quantile_bounds(q)
            truth = percentile(values, q * 100.0)
            assert lo <= truth <= hi, (q, lo, truth, hi)

    def test_width_respects_documented_error(self):
        sketch = QuantileSketch()
        for i in range(1000):
            sketch.observe(0.001 * (1 + i % 50))
        lo, hi = sketch.quantile_bounds(0.99)
        assert lo >= hi / (1.0 + SKETCH_RELATIVE_ERROR) - 1e-12

    def test_underflow_values_bounded(self):
        sketch = QuantileSketch()
        sketch.observe(0.0)
        sketch.observe(0.0)
        sketch.observe(1.0)
        lo, hi = sketch.quantile_bounds(0.5)
        assert lo <= 0.0 <= hi

    def test_lo_clamped_to_minimum(self):
        sketch = QuantileSketch()
        sketch.observe(1.0)
        sketch.observe(1.001)  # same bucket as 1.0's upper region
        lo, hi = sketch.quantile_bounds(0.99)
        assert lo >= 1.0  # never below the observed minimum


class TestSketchFromDictHardening:
    def roundtrip(self, sketch, drop=()):
        data = sketch.as_dict()
        for key in drop:
            data.pop(key, None)
        return QuantileSketch.from_dict(data)

    def build(self, values):
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        return sketch

    def test_full_round_trip(self):
        sketch = self.build([0.001, 0.002, 0.004, 0.0])
        loaded = self.roundtrip(sketch)
        assert loaded.count == sketch.count
        assert loaded.minimum == sketch.minimum
        assert loaded.maximum == sketch.maximum
        assert loaded.quantile(0.5) == sketch.quantile(0.5)

    def test_missing_min_derives_conservative(self):
        sketch = self.build([0.5, 1.0, 2.0])
        loaded = self.roundtrip(sketch, drop=("min",))
        assert loaded.minimum <= sketch.minimum
        lo, hi = loaded.quantile_bounds(0.5)
        assert lo <= sketch.quantile(0.5) <= hi or lo <= hi

    def test_missing_max_derives_upper_edge(self):
        sketch = self.build([0.5, 1.0, 2.0])
        loaded = self.roundtrip(sketch, drop=("max",))
        assert loaded.maximum >= sketch.maximum

    def test_missing_min_with_underflow_is_zero(self):
        sketch = self.build([0.0, 1.0])
        loaded = self.roundtrip(sketch, drop=("min",))
        assert loaded.minimum == 0.0

    def test_empty_payload(self):
        loaded = QuantileSketch.from_dict({})
        assert loaded.count == 0
        assert loaded.quantile_bounds(0.5) == (0.0, 0.0)


class TestHistogramQuantileBounds:
    def test_empty_is_zero_width_zero(self):
        assert hub_histogram().quantile_bounds(0.5) == (0.0, 0.0)

    def test_single_observation_exact(self):
        hist = hub_histogram()
        hist.observe(0.003)
        assert hist.quantile_bounds(0.99) == (0.003, 0.003)

    def test_all_equal_exact(self):
        hist = hub_histogram()
        for _ in range(100):
            hist.observe(2.5)
        assert hist.quantile_bounds(0.5) == (2.5, 2.5)

    def test_bounds_contain_truth(self):
        values = [0.001 * (1 + i % 31) for i in range(2000)]
        hist = hub_histogram()
        for value in values:
            hist.observe(value)
        for q in (0.1, 0.5, 0.9, 0.99):
            lo, hi = hist.quantile_bounds(q)
            truth = percentile(values, q * 100.0)
            assert lo <= truth <= hi, (q, lo, truth, hi)

    def test_zero_and_negative_bounded(self):
        hist = hub_histogram()
        hist.observe(0.0)
        hist.observe(0.0)
        hist.observe(5.0)
        lo, hi = hist.quantile_bounds(0.25)
        assert lo <= 0.0 <= hi


class TestHistogramFromDictHardening:
    def build(self, values):
        hist = hub_histogram()
        for value in values:
            hist.observe(value)
        return hist

    def roundtrip(self, hist, drop=()):
        data = hist.as_dict()
        for key in drop:
            data.pop(key, None)
        return QuantileSketch.from_dict(data)

    def test_missing_min_never_overstates(self):
        hist = self.build([0.5, 1.0, 4.0])
        loaded = self.roundtrip(hist, drop=("min",))
        assert loaded.minimum <= hist.minimum

    def test_missing_max_never_understates(self):
        hist = self.build([0.5, 1.0, 4.0])
        loaded = self.roundtrip(hist, drop=("max",))
        assert loaded.maximum >= hist.maximum

    def test_missing_extremes_keep_bounds_honest(self):
        values = [0.001 * (1 + i % 13) for i in range(500)]
        hist = self.build(values)
        loaded = self.roundtrip(hist, drop=("min", "max"))
        for q in (0.5, 0.99):
            lo, hi = loaded.quantile_bounds(q)
            truth = percentile(values, q * 100.0)
            assert lo <= truth <= hi

    def test_underflow_bucket_min_is_zero(self):
        hist = self.build([0.0, 1.0])
        loaded = self.roundtrip(hist, drop=("min",))
        assert loaded.minimum == 0.0

    def test_empty_payload(self):
        loaded = QuantileSketch.from_dict({})
        assert loaded.count == 0
        assert loaded.quantile_bounds(0.5) == (0.0, 0.0)


class TestMixedDiffShapes:
    """The distribution-evidence shapes diff pairwise sanely: a fleet
    sketch, a hub histogram (both parsed by one ``from_dict`` under one
    interval rule), and an exact sample series."""

    def evidence(self, values):
        sketch = QuantileSketch()
        hist = hub_histogram()
        for value in values:
            sketch.observe(value)
            hist.observe(value)
        snapshot = RunSnapshot(kind="obs-run", name="shapes")
        snapshot.signals["sketches"]["fleet"] = sketch.as_dict()
        snapshot.signals["histograms"]["hub"] = hist.as_dict()
        snapshot.signals["samples"]["exact"] = list(values)
        return snapshot

    @pytest.mark.parametrize("q", [0.5, 0.99])
    def test_same_data_intervals_overlap_pairwise(self, q):
        values = [0.001 * (1 + i % 11) for i in range(300)]
        snapshot = self.evidence(values)
        intervals = [
            distribution_bounds(snapshot, name, q)
            for name in ("fleet", "hub", "exact")
        ]
        # One type, one rule: both tables answer the same interval.
        assert intervals[0] == intervals[1]
        for a_lo, a_hi in intervals:
            for b_lo, b_hi in intervals:
                assert a_lo <= b_hi and b_lo <= a_hi, (
                    "same-data evidence shapes must overlap"
                )

    def test_shifted_data_separates_cleanly(self):
        base_values = [0.001 * (1 + i % 11) for i in range(300)]
        cur_values = [v * 4.0 for v in base_values]  # beyond any slop
        base = self.evidence(base_values)
        cur = self.evidence(cur_values)
        for base_name, cur_name in (
            ("fleet", "fleet"), ("hub", "hub"), ("fleet", "hub"),
            ("exact", "hub"),
        ):
            _, base_hi = distribution_bounds(base, base_name, 0.99)
            cur_lo, _ = distribution_bounds(cur, cur_name, 0.99)
            assert cur_lo > base_hi, "4x shift must clear the error bounds"
