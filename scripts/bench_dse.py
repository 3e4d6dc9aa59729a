#!/usr/bin/env python3
"""Benchmark the DSE engine against naive per-point reruns.

Explores an overlap-heavy two-axis grid — ``router_detour_coeff``
(layout-stage knob) x ``pi_activity`` (power-stage knob) — whose points
share every stage up to placement, two ways:

* ``naive`` — the status quo before the engine: one isolated
  ``run_flow`` per grid point with cold caches (no stage store, no
  dedup), the way a shell loop over ``repro export-layout`` would;
* ``dse`` — one ``DseEngine`` exploration: points lower into the
  deduplicated task planner and share warm stage checkpoints through
  the session store, so a layout-knob change recomputes only
  layout→power and a power-knob change only the power stage.

Both modes must produce identical objective vectors per point — that
equality is asserted, and recorded in the report as the determinism
evidence next to the speedup.

Usage:  python scripts/bench_dse.py [--out BENCH_dse.json]
        [--circuit fpu] [--scale 0.06] [--check]

``--check`` exits 1 if the engine is not faster than naive — the CI
regression gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

DETOUR_VALUES = (0.3, 0.5, 0.7)
ACTIVITY_VALUES = (0.1, 0.2, 0.3)


def _naive(points, objectives) -> tuple:
    """One cold, isolated flow per point: no store, no memo, no dedup."""
    from repro.flow.design_flow import run_flow
    from repro.session import Session, scope

    vectors = []
    start = time.perf_counter()
    for config in points:
        with scope(Session()):
            result = run_flow(config)
        vectors.append([objective.value(result)
                        for objective in objectives])
    return time.perf_counter() - start, vectors


def _engine(space, names) -> tuple:
    from repro.dse import DseEngine
    from repro.session import Session, scope

    start = time.perf_counter()
    with scope(Session()):
        result = DseEngine(space, objectives=names).explore()
    wall = time.perf_counter() - start
    vectors = [[point.objectives[name] for name in names]
               for point in result.points]
    return wall, vectors, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(REPO / "BENCH_dse.json"))
    parser.add_argument("--circuit", default="fpu")
    parser.add_argument("--scale", type=float, default=0.06)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the engine beats naive")
    args = parser.parse_args(argv)

    from repro.dse import Axis, SweepSpace
    from repro.dse.cost import resolve_objectives
    from repro.flow.design_flow import FlowConfig

    names = ["power", "wirelength"]
    objectives = resolve_objectives(names)
    base = FlowConfig(circuit=args.circuit, scale=args.scale)
    space = SweepSpace(base, [
        Axis(name="router_detour_coeff", values=DETOUR_VALUES),
        Axis(name="pi_activity", values=ACTIVITY_VALUES),
    ])
    points = [space.config_for(a) for a in space.assignments()]
    print(f"grid: {space.size} points "
          f"({args.circuit} scale {args.scale:g}, "
          f"router_detour_coeff x pi_activity)", file=sys.stderr)

    naive_wall, naive_vectors = _naive(points, objectives)
    print(f"naive per-point reruns: {naive_wall:.2f} s", file=sys.stderr)
    dse_wall, dse_vectors, result = _engine(space, names)
    print(f"dse engine:             {dse_wall:.2f} s "
          f"({result.cache_hits} stage checkpoint hits on frontier "
          f"replay)", file=sys.stderr)

    if naive_vectors != dse_vectors:
        raise SystemExit("objective vectors diverge between naive and "
                         "engine runs — determinism broken")

    speedup = naive_wall / dse_wall if dse_wall > 0 else float("inf")
    report = {
        "schema": 1,
        "config": {"circuit": args.circuit, "scale": args.scale,
                   "axes": space.to_dict()["axes"],
                   "objectives": names},
        "points": space.size,
        "naive_wall_s": round(naive_wall, 3),
        "dse_wall_s": round(dse_wall, 3),
        "speedup": round(speedup, 2),
        "vectors_identical": True,
        "frontier": json.loads(result.to_json())["frontier"],
        "cache_hits": result.cache_hits,
    }
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"speedup {speedup:.2f}x; wrote {out}", file=sys.stderr)
    if args.check and speedup <= 1.0:
        print("REGRESSION: engine not faster than naive reruns",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
