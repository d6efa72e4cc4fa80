"""The one distribution type: a mergeable log-bucket quantile sketch.

Every distribution the repo reports goes through :class:`QuantileSketch`:
the hub's per-SA ``recovery_latency`` histograms, their campaign
rollups, and the fleet aggregate's convergence-time spill past the
exact cap.  Bucket edges are process-wide constants
(:data:`SKETCH_SUBBUCKETS` log2-uniform slices per octave), so sketches
from any SA, task, shard or run merge by plain vector addition, and one
error rule (:data:`SKETCH_RELATIVE_ERROR`) covers every quantile the
diff and trend layers read back.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Mapping, Sequence

#: Sub-buckets per octave in :class:`QuantileSketch` — 8 log2-uniform
#: slices per power of two, giving a guaranteed relative error of at
#: most 2**(1/8) - 1 (~9.05%) per quantile.
SKETCH_SUBBUCKETS = 8

#: Exclusive upper edges of the sub-buckets within one octave, as
#: mantissa multipliers in [1, 2].
_MANTISSA_EDGES = tuple(
    2.0 ** (k / SKETCH_SUBBUCKETS) for k in range(SKETCH_SUBBUCKETS + 1)
)

#: Guaranteed worst-case relative error of a sketch quantile.
SKETCH_RELATIVE_ERROR = 2.0 ** (1.0 / SKETCH_SUBBUCKETS) - 1.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``.

    Raises:
        ValueError: on an empty sequence or ``q`` outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


class QuantileSketch:
    """Streaming quantiles over finite values in bounded memory.

    A sparse log-bucket histogram with :data:`SKETCH_SUBBUCKETS` slices
    per octave: bucket edges are the process-wide constants
    ``2**(i/8)``, so ``merge`` is vector addition — associative and
    commutative by construction.

    :meth:`quantile` returns the *upper edge* of the bucket holding the
    ``ceil(q * count)``-th order statistic, clamped to the observed
    maximum: a conservative estimate that never understates and is
    within :data:`SKETCH_RELATIVE_ERROR` of the true order statistic.
    Non-positive values count toward ranks via an underflow bucket
    answered by the exact minimum.  Non-finite values are rejected:
    ``inf`` has no bucket and ``nan`` no rank.
    """

    __slots__ = ("counts", "underflow", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        #: sparse bucket table: global bucket index -> count.
        self.counts: dict[int, int] = {}
        self.underflow = 0
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    @staticmethod
    def bucket_index(x: float) -> int:
        """Global bucket index of positive ``x`` (octave * 8 + slice)."""
        mantissa, exponent = math.frexp(x)  # x = m * 2**e, m in [0.5, 1)
        octave = exponent - 1
        slice_index = bisect_right(_MANTISSA_EDGES, 2.0 * mantissa) - 1
        if slice_index >= SKETCH_SUBBUCKETS:  # mantissa exactly 2.0 cannot
            slice_index = SKETCH_SUBBUCKETS - 1  # happen, but stay safe
        return octave * SKETCH_SUBBUCKETS + slice_index

    @staticmethod
    def bucket_upper_bound(index: int) -> float:
        """Exclusive upper edge of global bucket ``index``."""
        octave, slice_index = divmod(index, SKETCH_SUBBUCKETS)
        return _MANTISSA_EDGES[slice_index + 1] * 2.0 ** octave

    def observe(self, x: float) -> None:
        """Record one finite value (``ValueError`` on ``inf`` / ``nan``)."""
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"sketch observations must be finite, got {x}")
        if x > 0.0:
            index = self.bucket_index(x)
            self.counts[index] = self.counts.get(index, 0) + 1
        else:
            self.underflow += 1
        self.count += 1
        self.total += x
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in (vector addition on the fixed buckets)."""
        for index, bucket_count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + bucket_count
        self.underflow += other.underflow
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Conservative ``q``-quantile (``q`` in [0, 1]); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = self.underflow
        if seen >= rank and self.underflow:
            return self.minimum
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                return min(self.bucket_upper_bound(index), self.maximum)
        return self.maximum

    def quantile_bounds(self, q: float) -> tuple[float, float]:
        """``(lo, hi)`` bounds containing the true ``q``-quantile.

        ``hi`` is the conservative :meth:`quantile`; ``lo`` divides out
        the documented :data:`SKETCH_RELATIVE_ERROR` (<=9.05%), clamped
        to the observed minimum.  Degenerate cases are exact: empty ->
        ``(0.0, 0.0)``; a single observation or an all-equal stream
        (min == max) -> the value itself with zero width.  Cross-run
        diffing gates on these bounds, which is what makes sketch noise
        unable to fake a regression.
        """
        if self.count == 0:
            return (0.0, 0.0)
        if self.minimum == self.maximum:
            return (self.maximum, self.maximum)
        high = self.quantile(q)
        if high <= 0.0:
            # Underflow-resolved quantile: the exact minimum answered.
            return (min(self.minimum, high), high)
        low = max(high / (1.0 + SKETCH_RELATIVE_ERROR), self.minimum)
        return (min(low, high), high)

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "underflow": self.underflow,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
            "relative_error": SKETCH_RELATIVE_ERROR,
            # Sparse encoding: only occupied buckets, index -> count.
            "buckets": {
                str(index): self.counts[index] for index in sorted(self.counts)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuantileSketch":
        """Rebuild from :meth:`as_dict` output (exact round-trip).

        A non-empty payload must carry this build's ``relative_error``:
        bucket indices only mean something under one bucket layout, and
        a payload from another layout (the retired one-bucket-per-octave
        histogram, whose ``"21"`` was ``[2**-10, 2**-9)``) would
        otherwise be silently misread.  The empty payload ``{}`` loads
        as an empty sketch.

        Payloads missing ``min``/``max`` (trimmed exports) derive honest
        extremes from the occupied bucket edges: the derived min is a
        bucket *lower* edge (never overstates), the derived max a bucket
        *upper* edge (never understates), so quantiles and diff bounds
        stay conservative.
        """
        if data and data.get("relative_error") != SKETCH_RELATIVE_ERROR:
            raise ValueError(
                "not a QuantileSketch payload for this bucket layout: "
                f"relative_error={data.get('relative_error')!r}, expected "
                f"{SKETCH_RELATIVE_ERROR!r}"
            )
        sketch = cls()
        for index, bucket_count in data.get("buckets", {}).items():
            sketch.counts[int(index)] = int(bucket_count)
        sketch.underflow = int(data.get("underflow", 0))
        sketch.count = int(data.get("count", 0))
        sketch.total = float(data.get("total", 0.0))
        if sketch.count:
            if "min" in data:
                sketch.minimum = float(data["min"])
            elif sketch.underflow:
                sketch.minimum = 0.0
            elif sketch.counts:
                sketch.minimum = cls.bucket_upper_bound(
                    min(sketch.counts) - 1
                )
            else:
                sketch.minimum = 0.0
            if "max" in data:
                sketch.maximum = float(data["max"])
            elif sketch.counts:
                sketch.maximum = cls.bucket_upper_bound(max(sketch.counts))
            else:
                sketch.maximum = sketch.minimum
        return sketch
