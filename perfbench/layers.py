"""Per-layer measurement from outside the program.

The traced run wraps each layer's public entry point (the table
``ENTRY_POINTS``) with a timer that records calls, total time and self
time (total minus the time of wrapped calls nested inside it, on the
same thread).  The wrappers are installed only for a traced pass and
removed afterwards, so untraced passes run the program untouched.

Work counters and kernel/stage spans come from the program's own
metrics registry and tracer: installed through ``use_metrics`` /
``use_tracer`` for in-process pairs, and read back from the job record
and ``GET /jobs/<key>/trace`` for service jobs (the service installs a
fresh registry and tracer per job).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping


class EntryPointError(RuntimeError):
    """A declared entry point is gone, or was never called."""


@dataclass(frozen=True)
class EntryPoint:
    label: str     # layer label the timings accumulate under
    module: str    # module whose namespace holds the patched name
    attr: str      # "function" or "Class.method"


# Names bound with ``from ... import`` in the flow are patched where the
# flow looks them up (``repro.flow.design_flow``); methods are patched on
# their class, which every caller shares.
ENTRY_POINTS = (
    EntryPoint("circuits", "repro.flow.design_flow", "generate_benchmark"),
    EntryPoint("synth", "repro.synth.synthesis", "Synthesizer.run"),
    EntryPoint("place", "repro.place.placer", "Placer.run"),
    EntryPoint("opt", "repro.opt.optimizer", "Optimizer.run"),
    EntryPoint("opt.cts", "repro.flow.design_flow", "synthesize_clock_tree"),
    EntryPoint("timing", "repro.timing.sta", "TimingAnalyzer.run"),
    EntryPoint("route", "repro.route.router", "GlobalRouter.run"),
    EntryPoint("power", "repro.flow.design_flow", "analyze_power"),
    EntryPoint("check", "repro.flow.design_flow", "check_placement"),
    EntryPoint("check", "repro.flow.design_flow", "check_routing"),
    EntryPoint("check", "repro.flow.design_flow", "check_timing"),
    EntryPoint("check", "repro.flow.design_flow", "check_power"),
    EntryPoint("store.read", "repro.runtime.checkpoint",
               "CheckpointStore.load"),
    EntryPoint("store.write", "repro.runtime.checkpoint",
               "CheckpointStore.store"),
    EntryPoint("client", "repro.service.client", "ServiceClient.submit"),
    EntryPoint("client", "repro.service.client", "ServiceClient.job"),
)

# Labels every traced pass of a workload must have called at least once.
# The timed service jobs reuse the cold job's netlist, synthesis and
# placement from the store, so they never generate, synthesize or place.
_FLOW_LABELS = ("circuits", "synth", "place", "opt", "opt.cts", "timing",
                "route", "power", "check")
REQUIRED_CALLS: Dict[str, tuple] = {
    "ldpc": _FLOW_LABELS,
    "m256": _FLOW_LABELS,
    "service": ("opt", "timing", "route", "power", "check", "store.read",
                "store.write", "client"),
}

# Flow stages as the supervisor names its spans (``stage:<name>``).
FLOW_STAGES = ("prepare", "synthesis", "layout", "post_route", "signoff",
               "power", "audit")


class Recorder:
    """Calls, total and self seconds per label, plus bytes written."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.bytes_written = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, label: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.calls[label] += 1
                    self.total_s[label] += elapsed
                    self.self_s[label] += elapsed - children[0]
            if label == "store.write" and isinstance(result, Path):
                try:
                    size = result.stat().st_size
                except OSError:
                    size = 0
                with self._lock:
                    self.bytes_written += size
            return result

        return timed


def _resolve(entry: EntryPoint):
    """(owner, name, original) of one entry point; raises if gone."""
    try:
        owner = importlib.import_module(entry.module)
    except ImportError as exc:
        raise EntryPointError(
            f"entry point module {entry.module} does not import: {exc}"
        ) from exc
    *path, name = entry.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or name not in vars(owner) or \
            not callable(vars(owner)[name]):
        raise EntryPointError(
            f"entry point {entry.module}:{entry.attr} no longer resolves")
    return owner, name, vars(owner)[name]


@contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every entry point for the duration of the block."""
    resolved = [(_resolve(entry), entry.label) for entry in ENTRY_POINTS]
    try:
        for (owner, name, original), label in resolved:
            setattr(owner, name, recorder.wrap(label, original))
        yield recorder
    finally:
        for (owner, name, original), _ in reversed(resolved):
            setattr(owner, name, original)


def require_calls(workload: str, recorder: Recorder) -> None:
    missing = [label for label in REQUIRED_CALLS[workload]
               if recorder.calls.get(label, 0) == 0]
    if missing:
        raise EntryPointError(
            f"workload {workload!r} never called entry point(s) "
            f"{missing}; the benchmark no longer measures those layers")


def span_totals(spans: Iterable[Mapping[str, object]]) -> Dict[str, float]:
    """Summed seconds per span name, from span dicts or Span objects."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        if not isinstance(span, Mapping):
            span = {"name": span.name, "dur_us": span.dur_us}
        totals[str(span["name"])] += float(span["dur_us"]) / 1e6
    return totals


def layer_metrics(recorder: Recorder, counters: Mapping[str, int],
                  spans: Mapping[str, float], exec_s: float,
                  overhead_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``counters`` are the program's counters, ``spans`` its span totals
    (seconds per span name); ``exec_s`` and ``overhead_s`` split the
    client-observed job latencies of a service session (0 for pairs).
    """
    calls, self_s, total_s = recorder.calls, recorder.self_s, \
        recorder.total_s
    hits = int(counters.get("checkpoint.stage_hits", 0))
    misses = int(counters.get("checkpoint.stage_misses", 0))
    out: Dict[str, float] = {
        "timing.sta_calls": calls["timing"],
        "timing.sta_s": self_s["timing"],
        "timing.levelization_passes":
            int(counters.get("sta.levelization_passes", 0)),
        "timing.propagate_s": spans.get("sta.propagate", 0.0),
        "timing.levelize_s": spans.get("sta.levelize", 0.0),
        "opt.calls": calls["opt"],
        "opt.self_s": self_s["opt"],
        "opt.cts_s": total_s["opt.cts"],
        "place.calls": calls["place"],
        "place.self_s": self_s["place"],
        "place.iterations": int(counters.get("placer.iterations", 0)),
        "place.kernel_s": sum(v for k, v in spans.items()
                              if k.startswith("place.")),
        "route.calls": calls["route"],
        "route.self_s": self_s["route"],
        "route.spills": int(counters.get("router.spills", 0)),
        "route.ripups": int(counters.get("router.ripups", 0)),
        "route.congestion_retries":
            int(counters.get("supervisor.retries", 0)),
        "power.calls": calls["power"],
        "power.self_s": self_s["power"],
        "check.audit_s": self_s["check"],
        "check.findings": int(counters.get("audit.findings", 0)),
        "runtime.store_reads": calls["store.read"],
        "runtime.store_read_s": total_s["store.read"],
        "runtime.store_writes": calls["store.write"],
        "runtime.store_write_s": total_s["store.write"],
        "runtime.store_bytes_written": recorder.bytes_written,
        "runtime.stage_hits": hits,
        "runtime.stage_misses": misses,
        "runtime.stage_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "service.requests": calls["client"],
        "service.exec_s": exec_s,
        "service.overhead_s": overhead_s,
        "circuits.generate_s": total_s["circuits"],
        "synth.calls": calls["synth"],
        "synth.self_s": self_s["synth"],
    }
    for stage in FLOW_STAGES:
        out[f"flow.stage_s.{stage}"] = spans.get(f"stage:{stage}", 0.0)
    return out
