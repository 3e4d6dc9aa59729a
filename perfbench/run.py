"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload ldpc|m256|service --seed N \
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with every observability
layer off; ``--trace 1`` measures the per-layer metrics (see
``perfbench/spec.py``).  The run pins itself to one CPU beside a host
speed probe, and gives its end-to-end times at the reference host speed
(see ``perfbench/hostspeed.py``).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the host fingerprint and the raw samples.  Problems found by the
output checks go to standard error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Cold starts in fresh interpreters, besides the run's own; setup_s is
# the median of all of them.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setups(workload: str, work_dir: Path):
    """``(setup_s, start, end)`` of cold starts in fresh interpreters;
    start and end are ``time.monotonic()`` around each."""
    samples = []
    for i in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.coldstart", workload,
             str(work_dir / f"probe-{i}")],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT_S)
        samples.append((json.loads(done.stdout.strip().splitlines()[-1])
                        ["setup_s"], start, time.monotonic()))
    return samples


def run(args, started, work_dir: Path, speed) -> int:
    """One run; ``started`` is the load average and the usable CPUs read
    before the run pinned itself to ``speed.cpu``."""
    from perfbench import coldstart, host, layers, spec, workloads

    workload = workloads.WORKLOADS[args.workload]
    start = time.monotonic()
    setup_s, library_s, service = coldstart.cold_start(
        time.perf_counter(), workload.name, work_dir / "service")
    setups = [(setup_s, start, time.monotonic())]
    problems = []
    detail = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            if service is not None:
                service.stop()
                service = None
            untraced, traced, recorders = workloads.trace_rounds(
                workload, args.seed, args.seconds, work_dir)
            for outcome in untraced + traced:
                outcome.slowdown = speed.slowdown(outcome.start,
                                                  outcome.end)
            metrics, problems = workloads.per_layer(
                workload, untraced, traced, recorders, library_s)
            outcomes = untraced + traced
            detail["untraced_s"] = [o.wall_s for o in untraced]
            detail["traced_s"] = [o.wall_s for o in traced]
            detail["slowdown"] = [o.slowdown for o in untraced + traced]
            declared = spec.PER_LAYER
        else:
            outcomes = workloads.measure(
                workload, args.seed, args.seconds, service)
            if service is not None:
                service.stop()
                service = None
            setups += probe_setups(workload.name, work_dir)
            for outcome in outcomes:
                outcome.slowdown = speed.slowdown(outcome.start,
                                                  outcome.end)
            setup_ref = [s / speed.slowdown(a, b) for s, a, b in setups]
            metrics = workloads.end_to_end(outcomes,
                                           statistics.median(setup_ref))
            detail["op_s"] = [o.wall_s for o in outcomes]
            detail["op_ref_s"] = [o.ref_s for o in outcomes]
            detail["slowdown"] = [o.slowdown for o in outcomes]
            if workload.name == "service":
                detail["job_s"] = {cls: [s for o in outcomes
                                         for s in o.job_s[cls]]
                                   for cls in workloads.JOB_CLASSES}
            detail["setup_s"] = [s for s, _, _ in setups]
            detail["setup_ref_s"] = setup_ref
            declared = spec.END_TO_END
    except layers.EntryPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if service is not None:
            service.stop()

    for outcome in outcomes:
        problems += outcome.problems
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    failed = sum(o.failed for o in outcomes)
    detail["ops"] = len(outcomes)
    print("host: " + json.dumps(host.fingerprint(*started, speed.cpu),
                                sort_keys=True))
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              f"from a full checkout of the repository", file=sys.stderr)
        return 2
    from perfbench import host, hostspeed

    started = (os.getloadavg(), host.usable_cpus())
    work_dir = ROOT / "perfbench" / ".work" / str(os.getpid())
    host.scrub_environment(work_dir / "tmp")
    speed = None
    try:
        speed = hostspeed.HostSpeed(hostspeed.pin_to_one_cpu(),
                                    work_dir / "hostspeed.txt")
        return run(args, started, work_dir, speed)
    finally:
        if speed is not None:
            speed.stop()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
