#!/usr/bin/env python3
"""Chaos-test the checkpoint store under the filesystem fault matrix.

Runs a small flow-task graph on a two-worker pool against ONE shared
checkpoint store while every worker injects the full filesystem fault
matrix — torn write, bit-flip, ENOSPC (degrading that worker's store to
cache-off), and stale lock.  The run itself must complete: damaged or
missing checkpoints cost reuse, never correctness.  Afterwards:

* the produced row digests must be byte-identical to a fresh sequential
  run of the same configurations (no store at all);
* ``repro store fsck`` must detect every corrupt entry the chaos left
  behind, quarantine it, and — after ``--purge-corrupt`` — report the
  store clean (exit 0).

Usage:  python scripts/chaos_store.py [--jobs N] [--scale S]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cli import main as cli_main                      # noqa: E402
from repro.experiments import runner                        # noqa: E402
from repro.flow.design_flow import FlowConfig, run_flow     # noqa: E402
from repro.parallel import TaskGraph, flow_task             # noqa: E402
from repro.runtime.checkpoint import CheckpointStore        # noqa: E402
from repro.runtime.faults import FsFaultSpec                # noqa: E402
from repro.session import Session, scope                    # noqa: E402

# Each worker re-installs this plan per task: its first store write is
# torn, its second bit-flipped, the first lock acquisition is skipped,
# and the fourth write hits ENOSPC — flipping that worker's store to
# cache-off for the rest of the session.
FAULT_MATRIX = (
    FsFaultSpec(kind="torn_write", op="store", times=1),
    FsFaultSpec(kind="bit_flip", op="store", skip=1, times=1),
    FsFaultSpec(kind="stale_lock", op="lock", times=1),
    FsFaultSpec(kind="enospc", op="store", skip=3, times=1),
)


def _configs(scale: float):
    return [FlowConfig(circuit=circuit, scale=scale, is_3d=is_3d)
            for circuit in ("fpu", "des")
            for is_3d in (False, True)]


def _digest(rows) -> str:
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True, default=str).encode()
    ).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--scale", type=float, default=0.06)
    args = parser.parse_args(argv)
    configs = _configs(args.scale)

    print(f"[chaos] sequential reference: {len(configs)} flow run(s)")
    with scope(Session()):
        reference = _digest([run_flow(config).summary_row()
                             for config in configs])

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as store_dir:
        print(f"[chaos] fault-injected -j {args.jobs} session "
              f"({len(FAULT_MATRIX)} fault kind(s) per worker task)")
        store = CheckpointStore(Path(store_dir))
        with scope(Session(store=store)):
            graph = TaskGraph([flow_task(config) for config in configs])
            report = runner.prefetch(graph, jobs=args.jobs,
                                     worker_faults=FAULT_MATRIX)
            failed = [r for r in report.records if r.status != "ok"]
            if failed:
                for record in failed:
                    print(f"[chaos] FAILED task {record.label}: "
                          f"{record.error}: {record.message}",
                          file=sys.stderr)
                return 1
            chaotic = _digest([runner.cached_flow(config).summary_row()
                               for config in configs])

        if chaotic != reference:
            print("[chaos] row digests DIFFER from sequential",
                  file=sys.stderr)
            return 1
        print(f"[chaos] row digests identical to sequential ({reference[:16]})")

        stats = store.stats()
        print(f"[chaos] store after the run: {stats['entries']} entries, "
              f"{stats['corrupt_files']} already quarantined")

        # First pass detects and quarantines everything the faults tore
        # or flipped; the purge pass reclaims the quarantine; the final
        # CLI pass must then report a clean store (exit 0).
        first = store.fsck()
        print(f"[chaos] fsck: {first.quarantined} quarantined, "
              f"{first.evicted_stale_schema} evicted, "
              f"{first.swept_tmp} tmp / {first.swept_locks} lock(s) swept")
        if first.quarantined + stats["corrupt_files"] == 0:
            print("[chaos] no corruption detected — the fault matrix "
                  "did not bite", file=sys.stderr)
            return 1
        if cli_main(["--checkpoint-dir", store_dir,
                     "store", "fsck", "--purge-corrupt"]) not in (0, 1):
            print("[chaos] fsck --purge-corrupt reported I/O errors",
                  file=sys.stderr)
            return 1
        final = cli_main(["--checkpoint-dir", store_dir, "store", "fsck"])
        if final != 0:
            print(f"[chaos] store not clean after repair (exit {final})",
                  file=sys.stderr)
            return 1

    print("[chaos] ok: run completed under fault matrix, rows identical, "
          "store repaired to clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
