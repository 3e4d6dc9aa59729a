"""The metrics ``BENCHMARK.json`` declares, and what it cannot hold.

``END_TO_END`` metrics are printed by untraced runs (``--trace 0``) on
every workload; ``PER_LAYER`` metrics by traced runs (``--trace 1``).
Both are read from ``BENCHMARK.json`` at the repository root, the one
place their names, units, directions and bounds are written.  A
per-layer metric of a layer that a workload never enters reads 0 there.

``MOVES`` records, for each per-layer metric, the end-to-end metric and
workload it should move (``metric@workload``): the prediction a change
to that layer has to confirm or refute.  ``BENCHMARK.json`` has no key
for it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

BENCHMARK: Mapping[str, object] = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
END_TO_END: List[Mapping[str, object]] = BENCHMARK["end_to_end"]
PER_LAYER: List[Mapping[str, object]] = BENCHMARK["per_layer"]

_PAIR = ("op_s_p50@ldpc", "op_s_p50@m256")
_LDPC = ("op_s_p50@ldpc",)
_M256 = ("op_s_p50@m256",)
_SVC = ("op_s_p50@service",)
_FLOW = _PAIR + _SVC

MOVES: Dict[str, Tuple[str, ...]] = {
    "timing.sta_calls": _LDPC + _SVC,
    "timing.sta_s": _LDPC + _SVC,
    "timing.levelization_passes": _LDPC + _SVC,
    "timing.propagate_s": _LDPC + _SVC,
    "timing.levelize_s": _LDPC + _SVC,
    "opt.calls": _LDPC,
    "opt.self_s": _LDPC,
    "opt.cts_s": _LDPC,
    "place.calls": _M256,
    "place.self_s": _M256,
    "place.iterations": _M256,
    "place.kernel_s": _M256,
    "route.calls": _LDPC + _SVC,
    "route.self_s": _LDPC + _SVC,
    "route.spills": _LDPC,
    "route.ripups": _LDPC,
    "route.congestion_retries": _LDPC,
    "power.calls": _M256 + _SVC,
    "power.self_s": _M256 + _SVC,
    "check.audit_s": _SVC,
    "check.findings": (),
    "runtime.store_reads": _SVC,
    "runtime.store_read_s": _SVC,
    "runtime.store_writes": _SVC,
    "runtime.store_write_s": _SVC,
    "runtime.store_bytes_written": _SVC,
    "runtime.stage_hits": _SVC,
    "runtime.stage_misses": _SVC,
    "runtime.stage_hit_ratio": _SVC,
    "service.requests": _SVC,
    "service.exec_s": _SVC,
    "service.overhead_s": _SVC,
    "service.job_s_p50.dup": _SVC,
    "service.job_s_p50.reroute": _SVC,
    "service.job_s_p50.repower": _SVC,
    # the cold job is the untimed start of each session
    "service.job_s_p50.cold": (),
    "service.jobs_per_min": _SVC,
    "circuits.generate_s": _PAIR,
    "synth.calls": _PAIR,
    "synth.self_s": _PAIR,
    "cells.library_s": ("setup_s@ldpc", "setup_s@m256", "setup_s@service"),
    "flow.stage_s.prepare": _FLOW,
    "flow.stage_s.synthesis": _FLOW,
    "flow.stage_s.layout": _FLOW,
    "flow.stage_s.post_route": _FLOW,
    "flow.stage_s.signoff": _FLOW,
    "flow.stage_s.power": _FLOW,
    "flow.stage_s.audit": _FLOW,
    # abs(measured T-MI total-power change - paper Table 4 value): the
    # model's error against its reference (0 on service: no pair)
    "flow.paper_gap_pp": (),
    "obs.trace_overhead_pct": (),
}

# Per-layer counts that are a pure function of the seed: a traced run
# asserts they repeat exactly across its traced passes.
DETERMINISTIC_COUNTS: Tuple[str, ...] = (
    "timing.sta_calls", "timing.levelization_passes", "opt.calls",
    "place.calls", "place.iterations", "route.calls", "route.spills",
    "route.ripups", "route.congestion_retries", "power.calls",
    "check.findings", "runtime.store_reads", "runtime.store_writes",
    "runtime.stage_hits", "runtime.stage_misses", "synth.calls",
)
