"""Metrics registry: named counters, gauges, and histograms.

Engines publish the quantities the paper's evaluation keys on — memory
transactions, lane slots, atomics, updated vertices per iteration, wave
counts — into a :class:`MetricsRegistry` instead of growing ad-hoc fields
on ``RunResult``.  A registry lives on every :class:`~repro.telemetry.Tracer`
(``tracer.metrics``); the :data:`NULL_METRICS` twin on the null tracer
swallows publishes for free, so instrumented code never branches.

Conventions
-----------
Metric names are dotted, ``<namespace>.<quantity>``:

- ``engine.*`` — engine-agnostic run aggregates (``engine.iterations``,
  ``engine.load_transactions``, ``engine.store_transactions``,
  ``engine.active_lane_slots``, ``engine.total_lane_slots``,
  ``engine.shared_atomics``, ``engine.global_atomics``, and the
  per-iteration histogram ``engine.updated_vertices``);
- ``cusha.*`` / ``vwc.*`` / ``csr.*`` / ``streamed.*`` — engine-specific
  extras (wave size and count, chunk counts, reduction ops);
- ``analysis.violations*`` — preflight validation outcomes (total, per
  severity, per violation kind);
- ``analysis.perf.*`` — drift-gate outcomes (``stages_checked``,
  ``fields_checked``, ``drift_violations`` counters and the
  ``analysis.perf.iterations.<engine>`` gauges).

A registry is safe to share between threads: creating an instrument and
every update of its value happen under the registry's lock.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "publish_kernel_stats",
]


class Counter:
    """Monotonically increasing integer/float count."""

    __slots__ = ("name", "value", "_lock")
    metric_type = "counter"

    def __init__(self, name: str, lock=None) -> None:
        self.name = name
        self.value = 0
        self._lock = lock or threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        with self._lock:
            self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (e.g. the chosen wave size or |N|)."""

    __slots__ = ("name", "value", "_lock")
    metric_type = "gauge"

    def __init__(self, name: str, lock=None) -> None:
        self.name = name
        self.value: int | float | None = None
        self._lock = lock or threading.Lock()

    def set(self, value: int | float) -> None:
        with self._lock:
            self.value = value

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming summary with power-of-two buckets.

    Bucket ``k`` counts observations in ``(2**(k-1), 2**k]`` (bucket 0
    counts values <= 1), which is plenty for the heavy-tailed per-iteration
    quantities (updated vertices, window sizes) this repo tracks.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "_lock")
    metric_type = "histogram"

    def __init__(self, name: str, lock=None) -> None:
        self.name = name
        self._lock = lock or threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: int | float) -> None:
        k = 0 if value <= 1 else math.ceil(math.log2(value))
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self.buckets[k] = self.buckets.get(k, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Get-or-create home of named instruments."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        inst = self._metrics.get(name)
        if inst is None:
            with self._lock:
                inst = self._metrics.get(name)
                if inst is None:
                    inst = self._metrics[name] = cls(name, self._lock)
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {inst.metric_type}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str):
        return self._metrics.get(name)

    def as_dict(self) -> dict[str, dict]:
        """Snapshot of every instrument, JSON-serializable; consistent
        under concurrent updates (they wait on the same lock)."""
        with self._lock:
            return {n: m.as_dict() for n, m in sorted(self._metrics.items())}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(self.names())


# ----------------------------------------------------------------------
# Null twins (the NullTracer's registry)
# ----------------------------------------------------------------------

class _NullInstrument:
    __slots__ = ()
    name = ""
    value = 0

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def as_dict(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Accepts every publish and records nothing."""

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def names(self) -> list[str]:
        return []

    def get(self, name: str) -> None:
        return None

    def as_dict(self) -> dict:
        return {}

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False

    def __iter__(self):
        return iter(())


NULL_METRICS = NullMetricsRegistry()


def publish_kernel_stats(registry, stats, *, prefix: str = "engine") -> None:
    """Publish a :class:`~repro.gpu.stats.KernelStats` aggregate as counters."""
    registry.counter(f"{prefix}.load_transactions").inc(stats.load_transactions)
    registry.counter(f"{prefix}.store_transactions").inc(stats.store_transactions)
    registry.counter(f"{prefix}.active_lane_slots").inc(stats.active_lane_slots)
    registry.counter(f"{prefix}.total_lane_slots").inc(stats.total_lane_slots)
    registry.counter(f"{prefix}.shared_atomics").inc(stats.shared_atomics)
    registry.counter(f"{prefix}.global_atomics").inc(stats.global_atomics)
