"""The three workloads and their operations.

* ``ldpc`` / ``m256``: one operation is one cold
  ``run_iso_performance_comparison`` pair (2D, then T-MI at the 2D
  clock) at the golden Table 4 scale, with no checkpoint store bound.
  Every pair of a run uses the benchmark seed as the netlist seed.
* ``service``: one operation is the warm part of a client session
  against an in-process one-worker service whose store starts empty
  each run.  A session starts with an untimed ``cold`` job (a new
  netlist seed), which fills the stage store; the operation is the
  five jobs after it, from one closed-loop client (one outstanding
  job): ``reroute`` (only ``router_detour_coeff`` changed), ``dup`` (an
  exact repeat of an earlier job of the session), ``repower`` (only the
  activities changed), ``dup``, ``dup``.  The parameters and the
  repeated jobs are drawn from the seed.

An untraced run repeats operations until the next one would end past
``--seconds``.  A traced run makes one untraced and two traced passes
of the run's first operation, then further rounds of one untraced and
one traced pass while they fit, so its per-layer counts are a function
of the seed alone and every traced pass is checked against another.

Every operation records its interval, so that its wall time can be put
at the reference host speed (``Outcome.ref_s``, see
``perfbench/hostspeed.py``); the end-to-end times are those.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import checks, layers, spec

# The timed jobs of a session, after its untimed cold job.  Not a
# measured traffic mix: each incremental class once, plus three
# duplicates, so the store reads and the audit that every warm job pays
# (about 95% of a duplicate) are about half of the operation and a
# change to them shows in ``op_s_p50@service``.  The cold job is
# untimed because the pair workloads already time a cold flow.
SESSION = ("reroute", "dup", "repower", "dup", "dup")
JOB_CLASSES = ("dup", "reroute", "repower", "cold")

# Traced passes a traced run makes at least, so that every pass's
# deterministic counts are compared with another pass's.
MIN_TRACED_PASSES = 2

# Client poll interval: a warm duplicate job takes ~0.3 s, so the
# client's 50 ms default would quantize its latency.
POLL_S = 0.005
JOB_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    circuit: str
    scale: float


WORKLOADS: Dict[str, Workload] = {
    "ldpc": Workload("ldpc", "ldpc", 0.12),
    "m256": Workload("m256", "m256", 0.06),
    "service": Workload("service", "aes", 0.25),
}


@dataclass
class Outcome:
    """One operation: its wall time, what it delivered, what failed."""

    wall_s: float
    # the operation's interval in ``time.monotonic()`` seconds, and the
    # host's slowdown over it (``perfbench.hostspeed``)
    start: float = 0.0
    end: float = 0.0
    slowdown: float = 1.0
    cells: int = 0
    attempted: int = 1
    problems: List[str] = field(default_factory=list)
    failed: int = 0
    # pairs: paper gap; sessions: per-class latencies and service split
    paper_gap_pp: float = 0.0
    job_s: Dict[str, List[float]] = field(default_factory=dict)
    exec_s: float = 0.0
    overhead_s: float = 0.0
    # traced passes only: program counters and span totals
    counters: Dict[str, int] = field(default_factory=dict)
    spans: Dict[str, float] = field(default_factory=dict)

    @property
    def ref_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s / self.slowdown


# -- pairs ----------------------------------------------------------------

def run_pair(workload: Workload, seed: int, traced: bool = False
             ) -> Outcome:
    from repro.experiments.runner import default_scale
    from repro.experiments.table04_45nm_summary import PAPER
    from repro.flow.compare import run_iso_performance_comparison
    from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer

    tracer, registry = Tracer(), MetricsRegistry()
    mono_start = time.monotonic()
    start = time.perf_counter()
    try:
        if traced:
            with use_tracer(tracer), use_metrics(registry):
                pair = run_iso_performance_comparison(
                    workload.circuit, scale=workload.scale, seed=seed)
        else:
            pair = run_iso_performance_comparison(
                workload.circuit, scale=workload.scale, seed=seed)
    except Exception as exc:            # the op failed; the run goes on
        return Outcome(wall_s=time.perf_counter() - start,
                       start=mono_start, end=time.monotonic(), failed=1,
                       problems=[f"pair raised {type(exc).__name__}: "
                                 f"{exc}"])
    wall_s = time.perf_counter() - start
    mono_end = time.monotonic()
    problems = checks.check_pair(pair)
    if seed == checks.GOLDEN_SEED and \
            workload.scale == default_scale(workload.circuit):
        golden = checks.golden_row(workload.circuit)
        if golden is None:
            problems.append(f"no table4 golden row for {workload.circuit}")
        else:
            problems += checks.check_golden_row(golden, pair.summary_row())
    outcome = Outcome(
        wall_s=wall_s, start=mono_start, end=mono_end,
        cells=pair.result_2d.n_cells + pair.result_3d.n_cells,
        problems=problems,
        failed=int(bool(problems)),
        paper_gap_pp=abs(pair.power_diff("total_mw")
                         - PAPER[workload.circuit][2]),
    )
    if traced:
        outcome.counters = dict(registry.snapshot()["counters"])
        outcome.spans = dict(layers.span_totals(tracer.snapshot()))
    return outcome


# -- service sessions -----------------------------------------------------

def session_jobs(workload: Workload, seed: int, index: int
                 ) -> List[Tuple[str, Dict[str, object]]]:
    """The ``(class, params)`` jobs of session ``index``, from the seed:
    the untimed cold job, then the jobs of ``SESSION``."""
    from repro.flow.design_flow import FlowConfig

    rng = random.Random(f"perfbench-service:{seed}:{index}")
    defaults = FlowConfig(circuit=workload.circuit)
    cold = {"circuit": workload.circuit, "scale": workload.scale,
            "is_3d": True, "seed": 1 + seed * 1000 + index}
    reroute = dict(cold)
    while reroute.get("router_detour_coeff",
                      defaults.router_detour_coeff) == \
            defaults.router_detour_coeff:
        reroute["router_detour_coeff"] = round(rng.uniform(0.1, 1.2), 3)
    repower = dict(cold)
    while (repower.get("pi_activity", defaults.pi_activity),
           repower.get("seq_activity", defaults.seq_activity)) == \
            (defaults.pi_activity, defaults.seq_activity):
        repower["pi_activity"] = round(rng.uniform(0.05, 0.4), 3)
        repower["seq_activity"] = round(rng.uniform(0.02, 0.2), 3)
    fresh = {"cold": cold, "reroute": reroute, "repower": repower}
    jobs: List[Tuple[str, Dict[str, object]]] = [("cold", cold)]
    for job_class in SESSION:
        if job_class == "dup":
            earlier = [params for cls, params in jobs if cls != "dup"]
            jobs.append(("dup", dict(rng.choice(earlier))))
        else:
            jobs.append((job_class, fresh[job_class]))
    return jobs


class ServiceSession:
    """Runs sessions against one service, remembering first results."""

    def __init__(self, service) -> None:
        from repro.service import ServiceClient

        self.service = service
        self.client = ServiceClient(service.url, timeout_s=JOB_TIMEOUT_S)
        self.first_results: Dict[str, str] = {}

    def _job(self, job_class: str, params: Dict[str, object],
             outcome: Outcome) -> Optional[Tuple[Dict[str, object], float]]:
        """Submit one job and wait for it; checks go into ``outcome``.

        Returns the finished record and the client-observed latency, from
        submit to the finished record; None if the client raised.
        """
        start = time.perf_counter()
        try:
            accepted = self.client.submit("flow", params)
            record = self.client.wait(accepted["key"],
                                      timeout_s=JOB_TIMEOUT_S,
                                      poll_s=POLL_S)
        except Exception as exc:        # the job failed; the run goes on
            outcome.failed += 1
            outcome.problems.append(
                f"{job_class} job raised {type(exc).__name__}: {exc}")
            return None
        latency = time.perf_counter() - start
        key = record["key"]
        problems = checks.check_job(job_class, record,
                                    self.first_results.get(key))
        if record["runs"] != accepted["runs"] + 1:
            problems.append(f"{job_class} job {key} did not run once for "
                            f"its submission")
        if record.get("state") == "done":
            self.first_results.setdefault(
                key, checks.canonical(record["result"]))
        if problems:
            outcome.failed += 1
            outcome.problems += problems
        outcome.job_s[job_class].append(latency)
        return record, latency

    def run(self, jobs, recorder: Optional[layers.Recorder] = None
            ) -> Outcome:
        """One session: the first job (the cold job that fills the store)
        untimed, then the timed jobs.  Every job is checked; wall time,
        cells, counters and spans are those of the timed jobs.

        With a ``recorder`` the timed jobs run with the entry points
        wrapped, and each job's trace is read right after it finishes (a
        later duplicate of the key would replace it), outside its latency.
        """
        outcome = Outcome(wall_s=0.0, attempted=len(jobs))
        outcome.job_s = {cls: [] for cls in JOB_CLASSES}
        self._job(*jobs[0], outcome)
        outcome.start = time.monotonic()
        spans: List[Dict[str, object]] = []
        with layers.instrument(recorder) if recorder else nullcontext():
            for job_class, params in jobs[1:]:
                finished = self._job(job_class, params, outcome)
                if finished is None:
                    continue
                record, latency = finished
                exec_s = float(record["history"][-1]["wall_s"])
                outcome.wall_s += latency
                outcome.exec_s += exec_s
                outcome.overhead_s += latency - exec_s
                if record.get("state") == "done":
                    outcome.cells += int(record["result"]["n_cells"])
                for name, value in (record.get("metrics") or {}).items():
                    outcome.counters[name] = \
                        outcome.counters.get(name, 0) + int(value)
                if recorder is not None:
                    spans += self.client.trace(record["key"])["trace"][
                        "spans"]
        outcome.end = time.monotonic()
        outcome.spans = dict(layers.span_totals(spans))
        return outcome


# -- run loops ------------------------------------------------------------

def repeat(operation: Callable[[int], Outcome], seconds: float
           ) -> List[Outcome]:
    """Run ``operation(i)`` for i = 0, 1, ... until the next one would
    end past ``seconds``, judged by how long the last one took; at
    least once."""
    start = time.perf_counter()
    outcomes: List[Outcome] = []
    while True:
        op_start = time.perf_counter()
        outcomes.append(operation(len(outcomes)))
        now = time.perf_counter()
        if now - start + (now - op_start) > seconds:
            return outcomes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seed: int, seconds: float,
            service=None) -> List[Outcome]:
    """The untraced run: operations until the time is up."""
    if workload.name == "service":
        session = ServiceSession(service)
        return repeat(lambda i: session.run(
            session_jobs(workload, seed, i)), seconds)
    return repeat(lambda i: run_pair(workload, seed), seconds)


def end_to_end(outcomes: List[Outcome], setup_s: float
               ) -> Dict[str, float]:
    """The end-to-end metrics; times at the reference host speed."""
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(o.ref_s for o in outcomes),
        "cells_per_s": statistics.median(o.cells / o.ref_s if o.wall_s
                                         else 0.0 for o in outcomes),
        "peak_rss_mb": peak_rss_mb(),
    }


def trace_rounds(workload: Workload, seed: int, seconds: float,
                 work_dir: Path
                 ) -> Tuple[List[Outcome], List[Outcome],
                            List[layers.Recorder]]:
    """Passes of the first operation: one untraced, ``MIN_TRACED_PASSES``
    traced, then rounds of one untraced and one traced pass until the
    next round would end past ``seconds``.

    Returns the untraced outcomes, the traced outcomes and one recorder
    per traced pass.
    """
    from perfbench.coldstart import start_service

    untraced: List[Outcome] = []
    traced: List[Outcome] = []
    recorders: List[layers.Recorder] = []
    took: Dict[bool, float] = {}      # seconds of the last pass, by trace
    start = time.perf_counter()

    def one(trace: bool) -> Outcome:
        pass_start = time.perf_counter()
        recorder = layers.Recorder()
        if workload.name == "service":
            service = start_service(
                work_dir / f"trace-service-{len(untraced) + len(traced)}")
            try:
                outcome = ServiceSession(service).run(
                    session_jobs(workload, seed, 0),
                    recorder if trace else None)
            finally:
                service.stop()
        elif trace:
            with layers.instrument(recorder):
                outcome = run_pair(workload, seed, traced=True)
        else:
            outcome = run_pair(workload, seed)
        if trace:
            recorders.append(recorder)
        took[trace] = time.perf_counter() - pass_start
        return outcome

    untraced.append(one(False))
    while len(traced) < MIN_TRACED_PASSES:
        traced.append(one(True))
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + took[False] + took[True] > seconds:
            return untraced, traced, recorders
        untraced.append(one(False))
        traced.append(one(True))


def per_layer(workload: Workload, untraced: List[Outcome],
              traced: List[Outcome], recorders: List[layers.Recorder],
              library_s: float) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of a traced run, and any determinism problems.

    Times are medians over the traced passes, counts those of the first
    traced pass; every traced pass must repeat the counts exactly.
    """
    passes = []
    for outcome, recorder in zip(traced, recorders):
        layers.require_calls(workload.name, recorder)
        passes.append(layers.layer_metrics(
            recorder, outcome.counters, outcome.spans, outcome.exec_s,
            outcome.overhead_s))
    problems = []
    for name in spec.DETERMINISTIC_COUNTS:
        values = {p[name] for p in passes}
        if len(values) > 1:
            problems.append(f"count {name} differs across traced passes: "
                            f"{sorted(values)}")
    metrics = {}
    for name in passes[0]:
        if name in spec.DETERMINISTIC_COUNTS:
            metrics[name] = passes[0][name]
        else:
            metrics[name] = statistics.median(p[name] for p in passes)
    base = statistics.median(o.ref_s for o in untraced)
    metrics["obs.trace_overhead_pct"] = 100.0 * (
        statistics.median(o.ref_s for o in traced) - base) / base
    metrics["flow.paper_gap_pp"] = untraced[0].paper_gap_pp
    metrics["cells.library_s"] = library_s
    jobs = len(SESSION) * len(untraced) if workload.name == "service" \
        else 0
    for job_class in JOB_CLASSES:
        samples = [s for o in untraced for s in o.job_s.get(job_class, [])]
        metrics[f"service.job_s_p50.{job_class}"] = \
            statistics.median(samples) if samples else 0.0
    metrics["service.jobs_per_min"] = \
        60.0 * jobs / sum(o.wall_s for o in untraced) if jobs else 0.0
    return metrics, problems
