"""Flow metrics: counters, gauges, and histograms with mergeable snapshots.

The registry names the quantities the flow's hot engines already track
implicitly — placer refinement iterations, router spills/rip-ups, STA
levelization passes, checkpoint hits/misses, audit findings — and makes
them observable per session.  Canonical metric names are listed in
``docs/architecture.md`` ("Observability").

Like tracing (see :mod:`repro.obs.trace`), metrics are **opt-in and free
when off**: the default registry is :data:`NULL_METRICS`, whose
instruments are shared no-op singletons, so an increment on a hot path
costs one session lookup and one method call on an empty body.

Snapshots are plain dicts, picklable, and mergeable: the parallel engine
ships each worker's snapshot home in its trace bundle and folds it into
the session registry (counters and histograms add; gauges keep the value
of the later merge — they are last-writer-wins by nature).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.session import current, scope

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "current_metrics",
    "use_metrics",
    "counter",
    "gauge",
    "histogram",
]

# Default histogram bucket upper bounds (values land in the first bucket
# whose bound is >= value; an implicit +inf bucket catches the rest).
# Log-ish spacing spans sub-millisecond kernels to minute-long stages.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0)

# Canonical counter names of the checkpoint/store subsystem (the full
# metric table lives in docs/architecture.md).  Stage hit/miss counters
# also emit per-stage variants suffixed ``.<stage>``.
CHECKPOINT_COUNTERS: Tuple[str, ...] = (
    "checkpoint.hits",          # whole-entry store loads that verified
    "checkpoint.misses",        # absent, stale-schema, or corrupt loads
    "checkpoint.stage_hits",    # flow stages restored from the store
    "checkpoint.stage_misses",  # flow stages that had to compute
    "store.repairs",            # fsck quarantines/evictions/sweeps
    "store.evictions",          # gc LRU evictions
    "store.lock_timeouts",      # advisory write locks abandoned
    "store.degraded",           # store flips to cache-off (ENOSPC etc.)
)

# Canonical counter names of the design-space-exploration engine
# (:mod:`repro.dse`), plus the ``dse.frontier_size`` gauge.
DSE_COUNTERS: Tuple[str, ...] = (
    "dse.evaluations",          # sweep points actually evaluated
    "dse.rounds",               # propose/evaluate/refine rounds run
    "dse.dedup_skips",          # proposals collapsed onto evaluated keys
    "dse.cache_hits",           # warm whole-run results + frontier-replay
                                # stage checkpoint hits
)


class Counter:
    """Monotonically non-decreasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (e.g. current utilization target)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram of observed values (plus count/sum)."""

    __slots__ = ("name", "bounds", "_counts", "_n", "_sum", "_lock")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_BOUNDS):
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        self._counts = [0] * (len(self.bounds) + 1)   # +1: the +inf bucket
        self._n = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # First bucket whose upper bound is >= value; past the last
        # bound, the trailing +inf bucket.
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._n += 1
            self._sum += value

    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return self._sum

    @property
    def counts(self) -> List[int]:
        return list(self._counts)


class MetricsRegistry:
    """Named instruments, created on first use, snapshot/merge-able."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BOUNDS) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name, bounds)
        return inst

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict, picklable view of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: {"bounds": list(h.bounds), "counts": h.counts,
                    "count": h.count, "sum": h.total}
                for n, h in sorted(histograms.items())},
        }

    def merge_snapshot(self, snap: Dict[str, object]) -> None:
        """Fold another registry's snapshot in (worker -> session)."""
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, data in snap.get("histograms", {}).items():
            hist = self.histogram(name, data.get("bounds", DEFAULT_BOUNDS))
            counts = data.get("counts", [])
            with hist._lock:
                for i, c in enumerate(counts):
                    if i < len(hist._counts):
                        hist._counts[i] += int(c)
                hist._n += int(data.get("count", 0))
                hist._sum += float(data.get("sum", 0.0))


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


class _NullMetrics(MetricsRegistry):
    """Default registry: every instrument is a shared no-op singleton."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BOUNDS) -> Histogram:
        return self._null_histogram

    def merge_snapshot(self, snap: Dict[str, object]) -> None:
        return None


NULL_METRICS = _NullMetrics()


def current_metrics() -> MetricsRegistry:
    """The registry obs-instrumented code counts into."""
    registry = current().metrics
    return NULL_METRICS if registry is None else registry


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope a registry: the session's for the block, the previous after."""
    with scope(metrics=registry):
        yield registry


def counter(name: str) -> Counter:
    """The active registry's counter (no-op singleton when disabled)."""
    return current_metrics().counter(name)


def gauge(name: str) -> Gauge:
    return current_metrics().gauge(name)


def histogram(name: str,
              bounds: Sequence[float] = DEFAULT_BOUNDS) -> Histogram:
    return current_metrics().histogram(name, bounds)
