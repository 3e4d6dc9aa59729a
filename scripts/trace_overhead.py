#!/usr/bin/env python3
"""Measure the tracer's overhead on a full flow: traced vs untraced.

Runs the same seeded flow ``--repeats`` times with observability off and
``--repeats`` times with the full stack on (tracer + metrics registry +
profiler — the session ``repro --profile`` runs under), compares **best-of-N**
wall clocks (the minimum is the least noise-sensitive estimator for a
deterministic workload), and exits nonzero when the relative overhead
exceeds ``--budget-pct`` (default 5 %, the budget documented in
``docs/architecture.md``, "Observability").

The library is characterized once up front and an untimed warm-up run
absorbs import costs, so both modes measure only the flow itself.

Usage:  python scripts/trace_overhead.py [--circuit fpu] [--scale 0.05]
            [--repeats 3] [--budget-pct 5.0] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.flow.design_flow import (         # noqa: E402
    FlowConfig,
    library_for,
    run_flow,
)
from repro.obs import MetricsRegistry, Profiler, Tracer  # noqa: E402
from repro.session import scope                            # noqa: E402


def best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="fpu",
                        choices=["fpu", "aes", "ldpc", "des", "m256"])
    parser.add_argument("--node", default="45nm", choices=["45nm", "7nm"])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--budget-pct", type=float, default=5.0,
                        help="maximum tolerated overhead, percent")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the measurement as JSON to PATH")
    args = parser.parse_args(argv)

    config = FlowConfig(circuit=args.circuit, node_name=args.node,
                        scale=args.scale)
    library_for(config.node_name, config.is_3d)   # characterize up front

    n_spans = {}

    def untraced():
        run_flow(config)

    def traced():
        with scope(tracer=Tracer(), metrics=MetricsRegistry(),
                   profiler=Profiler()) as session:
            run_flow(config)
            session.profiler.close()
        n_spans["n"] = len(session.tracer.snapshot())

    untraced()                                     # untimed warm-up
    base_s = best_of(args.repeats, untraced)
    traced_s = best_of(args.repeats, traced)
    overhead_pct = (traced_s - base_s) / base_s * 100.0

    payload = {
        "circuit": args.circuit,
        "node": args.node,
        "scale": args.scale,
        "repeats": args.repeats,
        "untraced_best_s": round(base_s, 4),
        "traced_best_s": round(traced_s, 4),
        "overhead_pct": round(overhead_pct, 2),
        "budget_pct": args.budget_pct,
        "spans_per_run": n_spans.get("n", 0),
        "within_budget": overhead_pct <= args.budget_pct,
    }
    print(f"untraced best-of-{args.repeats}: {base_s:.3f} s")
    print(f"traced   best-of-{args.repeats}: {traced_s:.3f} s "
          f"({n_spans.get('n', 0)} spans/run)")
    print(f"overhead: {overhead_pct:+.2f} % (budget {args.budget_pct} %)")
    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    if not payload["within_budget"]:
        print("tracer overhead exceeds budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
