"""Opt-in per-stage profiling: wall clock, CPU time, peak RSS, allocations.

A :class:`Profiler` samples every supervised stage attempt (the
supervisor calls :meth:`Profiler.sample` around the stage body): wall
time from the monotonic clock, CPU time from :func:`time.process_time`
(whole-process, so a stage body running on the supervisor's timeout
thread is still charged), and peak resident set size from
``resource.getrusage`` — the high-water mark the kernel reports for the
process, normalized to kilobytes.  With ``malloc=True`` the profiler
additionally runs :mod:`tracemalloc` and records the per-stage peak of
Python-level allocations (much slower; off by default and off under
``repro --profile``).

Like the tracer, the default profiler is :data:`NULL_PROFILER` and
sampling through it costs one shared no-op context manager.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from threading import Lock
from typing import Dict, Iterator, List, Optional, Tuple

from repro.session import current, scope

try:
    import resource
except ImportError:                      # pragma: no cover - non-POSIX
    resource = None

__all__ = [
    "ProfileSample",
    "Profiler",
    "NULL_PROFILER",
    "current_profiler",
    "use_profiler",
]

# ru_maxrss is kilobytes on Linux, bytes on macOS.
_RSS_TO_KB = 1024 if sys.platform == "darwin" else 1


def peak_rss_kb() -> float:
    """The process's resident-set high-water mark, in kB (0 if unknown)."""
    if resource is None:
        return 0.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _RSS_TO_KB


@dataclass
class ProfileSample:
    """One profiled stage attempt."""

    stage: str
    run: str = ""
    attempt: int = 1
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_kb: float = 0.0           # process high-water mark at exit
    py_alloc_peak_kb: float = 0.0      # tracemalloc peak, malloc=True only

    def to_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "run": self.run,
            "attempt": self.attempt,
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "peak_rss_kb": round(self.peak_rss_kb, 1),
            "py_alloc_peak_kb": round(self.py_alloc_peak_kb, 1),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProfileSample":
        return cls(
            stage=str(data.get("stage", "")),
            run=str(data.get("run", "")),
            attempt=int(data.get("attempt", 1)),
            wall_s=float(data.get("wall_s", 0.0)),
            cpu_s=float(data.get("cpu_s", 0.0)),
            peak_rss_kb=float(data.get("peak_rss_kb", 0.0)),
            py_alloc_peak_kb=float(data.get("py_alloc_peak_kb", 0.0)),
        )


class _NullSampleContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SAMPLE_CONTEXT = _NullSampleContext()


class Profiler:
    """Collects :class:`ProfileSample` rows per supervised stage attempt."""

    enabled = True

    def __init__(self, malloc: bool = False):
        self.malloc = malloc
        self.samples: List[ProfileSample] = []
        self._lock = Lock()
        self._malloc_started_here = False
        if malloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._malloc_started_here = True

    def close(self) -> None:
        """Stop tracemalloc if this profiler started it."""
        if self._malloc_started_here and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._malloc_started_here = False

    @contextmanager
    def sample(self, stage: str, run: str = "",
               attempt: int = 1) -> Iterator[None]:
        """Measure one stage attempt (used by the stage supervisor)."""
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        if self.malloc and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        try:
            yield
        finally:
            alloc_peak = 0.0
            if self.malloc and tracemalloc.is_tracing():
                _, peak = tracemalloc.get_traced_memory()
                alloc_peak = peak / 1024.0
            row = ProfileSample(
                stage=stage,
                run=run,
                attempt=attempt,
                wall_s=time.perf_counter() - wall0,
                cpu_s=time.process_time() - cpu0,
                peak_rss_kb=peak_rss_kb(),
                py_alloc_peak_kb=alloc_peak,
            )
            with self._lock:
                self.samples.append(row)

    # -- aggregation -------------------------------------------------------

    def merge_rows(self, rows: List[Dict[str, object]]) -> None:
        """Fold serialized samples from a worker bundle in."""
        parsed = [ProfileSample.from_dict(r) for r in rows]
        with self._lock:
            self.samples.extend(parsed)

    def rows(self) -> List[Dict[str, object]]:
        with self._lock:
            return [s.to_dict() for s in self.samples]

    def by_stage(self) -> Dict[str, Dict[str, float]]:
        """Aggregate per stage: summed wall/CPU, max RSS/alloc, attempts."""
        agg: Dict[str, Dict[str, float]] = {}
        with self._lock:
            samples = list(self.samples)
        for s in samples:
            row = agg.setdefault(s.stage, {
                "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_kb": 0.0,
                "py_alloc_peak_kb": 0.0, "attempts": 0})
            row["wall_s"] += s.wall_s
            row["cpu_s"] += s.cpu_s
            row["peak_rss_kb"] = max(row["peak_rss_kb"], s.peak_rss_kb)
            row["py_alloc_peak_kb"] = max(row["py_alloc_peak_kb"],
                                          s.py_alloc_peak_kb)
            row["attempts"] += 1
        return agg

    def stage_table(self, order: Optional[Tuple[str, ...]] = None
                    ) -> List[Dict[str, object]]:
        """Per-stage rows for ``format_table`` (``repro --profile``)."""
        agg = self.by_stage()
        stages = list(order) if order is not None else sorted(agg)
        rows = []
        for stage in stages:
            data = agg.get(stage)
            if data is None:
                continue
            rows.append({
                "stage": stage,
                "wall (s)": round(data["wall_s"], 3),
                "cpu (s)": round(data["cpu_s"], 3),
                "peak RSS (MB)": round(data["peak_rss_kb"] / 1024.0, 1),
                "attempts": int(data["attempts"]),
            })
        return rows


class _NullProfiler(Profiler):
    """Default profiler: sampling is a shared no-op context manager."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(malloc=False)

    def sample(self, stage: str, run: str = "",
               attempt: int = 1):  # type: ignore[override]
        return _NULL_SAMPLE_CONTEXT

    def merge_rows(self, rows: List[Dict[str, object]]) -> None:
        return None


NULL_PROFILER = _NullProfiler()


def current_profiler() -> Profiler:
    """The profiler the stage supervisor samples into."""
    profiler = current().profiler
    return NULL_PROFILER if profiler is None else profiler


@contextmanager
def use_profiler(profiler: Profiler) -> Iterator[Profiler]:
    """Scope a profiler: the session's for the block, the previous after."""
    with scope(profiler=profiler):
        yield profiler
