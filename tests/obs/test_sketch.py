"""Contracts of repro.obs.sketch.QuantileSketch, the one distribution type.

Pinned here: estimates are never low and at most 2**(1/8) - 1 high, the
max is exact, non-finite observations are refused, and payloads from
another bucket layout are refused instead of misread.  Merge-order
independence is pinned in tests/fleet/test_aggregate.py (sketch merges)
and tests/obs/test_hub.py (hub rollups); exactness of campaign
aggregates up to 65,536 samples in tests/fleet/test_aggregate.py.
"""

import math
import random

import pytest

from repro.obs.sketch import (
    SKETCH_RELATIVE_ERROR,
    SKETCH_SUBBUCKETS,
    QuantileSketch,
)


def fill(values) -> QuantileSketch:
    sketch = QuantileSketch()
    for value in values:
        sketch.observe(value)
    return sketch


def order_statistic(ordered, q):
    """The ``ceil(q * n)``-th smallest value (the rank the sketch answers)."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class TestErrorBound:
    def test_relative_error_is_one_sub_bucket(self):
        assert SKETCH_RELATIVE_ERROR == 2.0 ** (1.0 / SKETCH_SUBBUCKETS) - 1.0

    def test_estimates_never_low_and_at_most_one_sub_bucket_high(self):
        rng = random.Random(13)
        values = [rng.lognormvariate(-7.0, 2.0) for _ in range(5000)]
        ordered = sorted(values)
        sketch = fill(values)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999):
            truth = order_statistic(ordered, q)
            estimate = sketch.quantile(q)
            assert truth <= estimate <= truth * (1.0 + SKETCH_RELATIVE_ERROR), q

    def test_worst_case_sits_just_above_a_bucket_edge(self):
        # A value a hair above a bucket's lower edge is reported as that
        # bucket's upper edge: the full 2**(1/8) - 1, never more.
        for index in range(-90, 10):
            low_edge = QuantileSketch.bucket_upper_bound(index - 1)
            value = low_edge * (1.0 + 1e-12)
            sketch = fill([value, 1e6])
            estimate = sketch.quantile(0.5)
            assert value <= estimate <= value * (1.0 + SKETCH_RELATIVE_ERROR)


class TestExactMax:
    def test_max_is_exact_after_merges(self):
        rng = random.Random(5)
        chunks = [[rng.uniform(1e-5, 3e-3) for _ in range(200)] for _ in range(4)]
        merged = QuantileSketch()
        for chunk in chunks:
            merged.merge(fill(chunk))
        true_max = max(max(chunk) for chunk in chunks)
        assert merged.maximum == true_max
        assert merged.quantile(1.0) == true_max
        assert merged.as_dict()["max"] == true_max
        assert QuantileSketch.from_dict(merged.as_dict()).quantile(1.0) == true_max


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_observe_rejects(self, bad):
        sketch = QuantileSketch()
        with pytest.raises(ValueError, match="finite"):
            sketch.observe(bad)
        assert sketch.count == 0
        assert sketch.as_dict() == QuantileSketch().as_dict()

    def test_inf_cannot_hide_in_the_underflow_bucket(self):
        # Once inf was counted as underflow: p100 came out as 1.0905
        # while the max was inf, and the bounds excluded the true value.
        sketch = fill([1.0])
        with pytest.raises(ValueError):
            sketch.observe(math.inf)
        assert sketch.quantile(1.0) == 1.0
        assert sketch.quantile_bounds(1.0) == (1.0, 1.0)


class TestFormatGuard:
    def test_one_bucket_per_octave_payload_rejected(self):
        # A recovery_latency histogram as the one-bucket-per-octave
        # layout wrote it: "21" meant [2**-10, 2**-9).  Read as a sketch
        # index it would land near 1.8 instead of ~0.0015.
        legacy = {
            "buckets": {"21": 8}, "count": 8, "max": 0.0018,
            "mean": 0.0014500000000000003, "min": 0.0011000000000000003,
            "p50": 0.0018, "p99": 0.0018, "total": 0.011600000000000003,
        }
        with pytest.raises(ValueError, match="relative_error"):
            QuantileSketch.from_dict(legacy)

    def test_other_relative_error_rejected(self):
        payload = fill([1e-3, 2e-3]).as_dict()
        payload["relative_error"] = 2.0 ** (1.0 / 16) - 1.0
        with pytest.raises(ValueError, match="bucket layout"):
            QuantileSketch.from_dict(payload)

    def test_empty_payload_accepted(self):
        assert QuantileSketch.from_dict({}).count == 0

    def test_own_payload_round_trips(self):
        sketch = fill([0.0, 1e-4, 3e-3, 3e-3])
        assert QuantileSketch.from_dict(sketch.as_dict()).as_dict() == sketch.as_dict()
