"""Flow observability: span tracing, metrics, and profiling hooks.

Three cooperating, individually opt-in layers, all free when off:

* :mod:`repro.obs.trace` — nested spans with monotonic start/duration
  and stage/design attributes, recorded by the stage supervisor (one
  span per stage attempt, retries/timeouts annotated as events) and by
  named hot-kernel timers inside placement, routing, and STA.  Exports
  plain JSON and the Chrome ``traceEvents`` format; worker-side spans
  travel through the shared checkpoint store as :class:`TraceBundle`\\ s
  and merge into one session trace with per-process clock offsets.
* :mod:`repro.obs.metrics` — counters/gauges/histograms for placer
  iterations, router spills/rip-ups, STA levelization passes,
  checkpoint hits/misses, and audit findings.
* :mod:`repro.obs.profile` — per-stage wall/CPU time and peak RSS
  (optionally tracemalloc peaks), sampled by the supervisor.

Each layer is a field of the run session (:mod:`repro.session`);
``use_tracer``/``use_metrics``/``use_profiler`` scope one for a block.
``repro --profile`` and ``repro trace <experiment>`` scope all three;
``scripts/trace_overhead.py`` keeps the tracer's cost under the
documented overhead budget.
"""

from repro.obs.metrics import (          # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    current_metrics,
    use_metrics,
)
from repro.obs.profile import (          # noqa: F401
    NULL_PROFILER,
    Profiler,
    ProfileSample,
    current_profiler,
    use_profiler,
)
from repro.obs.trace import (            # noqa: F401
    NULL_TRACER,
    Span,
    SpanEvent,
    TraceBundle,
    Tracer,
    current_tracer,
    kernel,
    use_tracer,
)


def observability_on() -> bool:
    """True when any obs layer (tracer or profiler) is active."""
    from repro.obs import profile as _profile
    from repro.obs import trace as _trace

    return _trace.current_tracer().enabled or \
        _profile.current_profiler().enabled
