"""The metrics registry: one hub per run, instruments by name.

:class:`MetricsHub` is the single place a run's health signals live.
Components never own instrument objects across module boundaries — they
ask the hub (``hub.counter("replay_discards")``) and the hub returns the
one live instrument for that name, creating it on first use.  Five
instrument kinds cover everything the controller and the exporters need:

* :class:`HubCounter` — monotonic event count (``inc``).
* :class:`Gauge` — last-write-wins level (``set``); the
  :class:`~repro.obs.sampler.Sampler` snapshots gauges into time series.
* :class:`EwmaGauge` — exponentially weighted moving average over
  observations; the controller's smoothed loss signal.
* :class:`~repro.obs.sketch.QuantileSketch` — the histogram: fixed
  log-bucket edges, constant memory no matter how many observations
  (recovery latencies), merged by vector addition.
* :class:`TimeSeries` — ``(time, value)`` samples; the sampler's
  output.

**Labels and fan-in.**  A multiplexing driver (the gateway) gives each
SA its own *sub-hub* (``hub.sub("sa3")``): the same instrument API, but
every name is prefixed ``"sa3/"`` and registered in the *root* hub, so
one export walks every SA's signals.  :meth:`MetricsHub.rollup` is the
label fan-in: it sums same-suffix instruments across labels into the
unlabeled base name, which is what campaign-level aggregation stores.

**The zero-overhead-off invariant.**  :class:`NullHub` is the disabled
hub: ``enabled`` is pinned ``False`` (flipping it on raises, exactly like
:class:`~repro.sim.trace.NullTraceRecorder`), and every factory method
returns a shared no-op instrument.  Wiring code must check
``hub.enabled`` *once, at build time* and attach nothing when it is
off — not guard per-event call sites — so a disabled-hub run schedules
the same events, draws the same random numbers, and produces
byte-identical results to a build that predates the hub.  The parity
tests in ``tests/obs/test_parity.py`` and the CI engine perf gate pin
this.

The module-level *ambient* hub (:func:`default_hub` / :func:`use_hub`)
is how batch drivers reach engines built deep inside scenario helpers:
the fleet runner installs a hub around a task, and every
``build_protocol`` / ``Gateway`` call inside the scenario picks it up —
the same pattern as ``Engine.default_hard_event_limit``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.obs.sketch import QuantileSketch

#: Default smoothing factor for :class:`EwmaGauge` (weight of the newest
#: observation; ~0.25 tracks a regime shift within a handful of samples
#: without chasing single-packet noise).
DEFAULT_EWMA_ALPHA = 0.25


class HubCounter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A named last-write-wins level."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class EwmaGauge:
    """Exponentially weighted moving average of observed values.

    The first observation primes the average (no bias toward an
    arbitrary zero start); after that
    ``value := alpha * x + (1 - alpha) * value``.
    """

    __slots__ = ("name", "alpha", "value", "observations")

    def __init__(self, name: str, alpha: float = DEFAULT_EWMA_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.name = name
        self.alpha = alpha
        self.value = 0.0
        self.observations = 0

    def observe(self, x: float) -> None:
        if self.observations == 0:
            self.value = float(x)
        else:
            self.value += self.alpha * (float(x) - self.value)
        self.observations += 1


@dataclass
class TimeSeries:
    """(time, value) samples in insertion order."""

    name: str
    samples: list[tuple[float, float]] = field(default_factory=list)

    def sample(self, time: float, value: float) -> None:
        """Append one sample."""
        self.samples.append((time, value))

    @property
    def values(self) -> list[float]:
        """All sampled values in order."""
        return [value for _, value in self.samples]

    @property
    def times(self) -> list[float]:
        """All sample times in order."""
        return [time for time, _ in self.samples]

    def last_value(self, default: float = 0.0) -> float:
        """The most recent sampled value (``default`` when empty)."""
        return self.samples[-1][1] if self.samples else default


class _Registry:
    """The shared instrument tables behind a hub and all its sub-hubs."""

    __slots__ = ("counters", "gauges", "ewmas", "histograms", "series", "labels")

    def __init__(self) -> None:
        self.counters: dict[str, HubCounter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.ewmas: dict[str, EwmaGauge] = {}
        self.histograms: dict[str, QuantileSketch] = {}
        self.series: dict[str, TimeSeries] = {}
        self.labels: list[str] = []


def split_label(name: str) -> tuple[str, str]:
    """Split a registered name into ``(label, base)``.

    ``"sa3/loss_ewma"`` -> ``("sa3", "loss_ewma")``; an unlabeled name
    has label ``""``.  Nested labels keep everything before the final
    separator (``"gw/sa3/x"`` -> ``("gw/sa3", "x")``).
    """
    label, sep, base = name.rpartition("/")
    if not sep:
        return "", name
    return label, base


class MetricsHub:
    """The run-wide metric registry (see module docstring).

    Args:
        name: run label carried into the manifest (purely descriptive).

    Sub-hubs share the root's registry; only the name prefix differs.
    ``enabled`` is a plain class attribute so the *null* subclass can pin
    it — wiring code checks it once at build time and attaches nothing
    when it is False.
    """

    enabled = True

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._registry = _Registry()
        self._prefix = ""

    # ------------------------------------------------------------------
    # Sub-hubs (labels)
    # ------------------------------------------------------------------
    def sub(self, label: str) -> "MetricsHub":
        """A view of this hub with every name prefixed ``"<label>/"``."""
        if not label or "/" in label:
            raise ValueError(f"label must be non-empty and '/'-free, got {label!r}")
        child = MetricsHub.__new__(MetricsHub)
        child.name = self.name
        child._registry = self._registry
        child._prefix = f"{self._prefix}{label}/"
        full = child._prefix[:-1]
        if full not in self._registry.labels:
            self._registry.labels.append(full)
        return child

    @property
    def label(self) -> str:
        """This hub's label prefix ('' for the root)."""
        return self._prefix[:-1] if self._prefix else ""

    @property
    def labels(self) -> list[str]:
        """Every label registered under the root, in creation order."""
        return list(self._registry.labels)

    # ------------------------------------------------------------------
    # Instrument factories (get-or-create by name)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> HubCounter:
        full = self._prefix + name
        table = self._registry.counters
        found = table.get(full)
        if found is None:
            found = table[full] = HubCounter(full)
        return found

    def gauge(self, name: str) -> Gauge:
        full = self._prefix + name
        table = self._registry.gauges
        found = table.get(full)
        if found is None:
            found = table[full] = Gauge(full)
        return found

    def ewma(self, name: str, alpha: float = DEFAULT_EWMA_ALPHA) -> EwmaGauge:
        full = self._prefix + name
        table = self._registry.ewmas
        found = table.get(full)
        if found is None:
            found = table[full] = EwmaGauge(full, alpha=alpha)
        return found

    def histogram(self, name: str) -> QuantileSketch:
        full = self._prefix + name
        table = self._registry.histograms
        found = table.get(full)
        if found is None:
            found = table[full] = QuantileSketch()
        return found

    def series(self, name: str) -> TimeSeries:
        full = self._prefix + name
        table = self._registry.series
        found = table.get(full)
        if found is None:
            found = table[full] = TimeSeries(full)
        return found

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def iter_instruments(self) -> Iterator[tuple[str, str, Any]]:
        """Yield ``(kind, name, instrument)`` for everything registered,
        sorted by name within each kind."""
        registry = self._registry
        for name in sorted(registry.counters):
            yield "counter", name, registry.counters[name]
        for name in sorted(registry.gauges):
            yield "gauge", name, registry.gauges[name]
        for name in sorted(registry.ewmas):
            yield "ewma", name, registry.ewmas[name]
        for name in sorted(registry.histograms):
            yield "histogram", name, registry.histograms[name]
        for name in sorted(registry.series):
            yield "series", name, registry.series[name]

    def as_dict(self) -> dict[str, Any]:
        """Full JSON-safe export of every registered instrument."""
        registry = self._registry
        return {
            "name": self.name,
            "labels": list(registry.labels),
            "counters": {
                name: c.value for name, c in sorted(registry.counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(registry.gauges.items())
            },
            "ewmas": {
                name: {"value": e.value, "alpha": e.alpha,
                       "observations": e.observations}
                for name, e in sorted(registry.ewmas.items())
            },
            "histograms": {
                name: h.as_dict()
                for name, h in sorted(registry.histograms.items())
            },
            "series": {
                name: [list(sample) for sample in ts.samples]
                for name, ts in sorted(registry.series.items())
            },
        }

    def rollup(self) -> dict[str, Any]:
        """Label fan-in: sum per-label instruments into their base names.

        Counters sum; gauges and EWMA gauges report the max across
        labels (the fleet-health question is "how bad is the worst
        SA"); histograms merge bucket-wise, in sorted name order so the
        float ``total`` does not depend on which SA registered first.
        Unlabeled instruments pass through.  The result is JSON-safe and
        is what the fleet runner stores per task.
        """
        counters: dict[str, int] = {}
        for name, counter in self._registry.counters.items():
            base = split_label(name)[1]
            counters[base] = counters.get(base, 0) + counter.value
        worst: dict[str, float] = {}
        for name, gauge in self._registry.gauges.items():
            base = split_label(name)[1]
            worst[base] = max(worst.get(base, -math.inf), gauge.value)
        for name, ewma in self._registry.ewmas.items():
            base = split_label(name)[1]
            worst[base] = max(worst.get(base, -math.inf), ewma.value)
        merged: dict[str, QuantileSketch] = {}
        histograms = self._registry.histograms
        for name in sorted(histograms):
            base = split_label(name)[1]
            if base not in merged:
                merged[base] = QuantileSketch()
            merged[base].merge(histograms[name])
        return {
            "labels": len(self._registry.labels),
            "counters": dict(sorted(counters.items())),
            "worst_gauges": dict(sorted(worst.items())),
            "histograms": {
                name: merged[name].as_dict() for name in sorted(merged)
            },
        }


class _NullInstrument:
    """One shared do-nothing instrument standing in for every kind."""

    __slots__ = ()
    name = ""
    value = 0
    count = 0
    alpha = DEFAULT_EWMA_ALPHA
    observations = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, x: float) -> None:
        pass

    def sample(self, time: float, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullHub(MetricsHub):
    """The disabled hub — pinned off, shared no-op instruments.

    ``enabled`` refuses to flip on (silently dropping a run's metrics
    after components already skipped probe attachment would be worse
    than an error).  All factories return one shared null instrument;
    ``sub`` returns ``self``; exports are empty.  One instance
    (:data:`NULL_HUB`) serves every disabled run in the process.
    """

    def __init__(self) -> None:
        super().__init__(name="null")

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return False

    @enabled.setter
    def enabled(self, value: bool) -> None:
        if value:
            raise ValueError(
                "NullHub cannot be enabled; build the run with a real "
                "MetricsHub instead"
            )

    def sub(self, label: str) -> "MetricsHub":
        return self

    def counter(self, name: str) -> HubCounter:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def ewma(self, name: str, alpha: float = DEFAULT_EWMA_ALPHA) -> EwmaGauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str) -> QuantileSketch:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def series(self, name: str) -> TimeSeries:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]


#: Shared disabled hub (stateless, so one instance serves every run).
NULL_HUB = NullHub()

#: The ambient hub batch drivers install around scenario execution.
_default_hub: MetricsHub = NULL_HUB


def default_hub() -> MetricsHub:
    """The hub ``build_protocol`` / ``Gateway`` use when none is passed."""
    return _default_hub


def merge_rollups(rollups: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold per-task :meth:`MetricsHub.rollup` dicts into one aggregate.

    The campaign-level reduction the fleet runner applies over every
    executed task: counters sum, worst-gauges take the max (worst task
    wins), histograms merge bucket-wise via the fixed shared buckets.
    ``tasks`` counts the rollups folded in; a rollup that is itself a
    merge contributes its own ``tasks`` count, so the fold is
    associative — incremental consumers (the progress stream's
    snapshots) can merge merged outputs without double counting.
    """
    merged: dict[str, Any] = {
        "tasks": 0, "labels": 0, "counters": {}, "worst_gauges": {},
    }
    histograms: dict[str, QuantileSketch] = {}
    for rollup in rollups:
        merged["tasks"] += rollup.get("tasks", 1)
        merged["labels"] += rollup.get("labels", 0)
        for name, value in rollup.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in rollup.get("worst_gauges", {}).items():
            merged["worst_gauges"][name] = max(
                merged["worst_gauges"].get(name, -math.inf), value
            )
        for name, data in rollup.get("histograms", {}).items():
            incoming = QuantileSketch.from_dict(data)
            if name in histograms:
                histograms[name].merge(incoming)
            else:
                histograms[name] = incoming
    merged["counters"] = dict(sorted(merged["counters"].items()))
    merged["worst_gauges"] = dict(sorted(merged["worst_gauges"].items()))
    merged["histograms"] = {
        name: histograms[name].as_dict() for name in sorted(histograms)
    }
    return merged


@contextmanager
def use_hub(hub: MetricsHub) -> Iterator[MetricsHub]:
    """Install ``hub`` as the ambient default for the ``with`` block.

    This is how the fleet runner reaches engines built deep inside
    scenario helpers without threading a ``hub`` argument through every
    scenario signature.  Not async/thread-safe — the fleet's workers are
    processes, so a module global is exactly as shared as it should be.
    """
    global _default_hub
    previous = _default_hub
    _default_hub = hub
    try:
        yield hub
    finally:
        _default_hub = previous
