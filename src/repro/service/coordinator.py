"""The service coordinator: one worker draining the job queue.

The coordinator owns the service's long-lived runtime state — the
shared :class:`~repro.runtime.checkpoint.CheckpointStore`, the
:class:`~repro.service.queue.JobQueue`, the job count — and a single
worker thread that executes jobs one at a time.  Inside a job the
session may fan out (``jobs=N`` worker processes via
:func:`repro.experiments.runner.prefetch`); across jobs the coordinator
serializes, which is what lets N concurrent duplicate submissions race
to exactly one execution.

The worker thread runs in a copy of the context that started the
service, and every job executes under its own **session**
(:mod:`repro.session`) derived from it: the service store, fresh memos
(a job derives its result from the store, never from what the host
process happened to memoize), keep-going on, a fresh tracer + metrics
registry, and a fresh stage supervisor with the starting session's
policies; the fault plan and profiler carry over.  Leaving the scope —
by any exception, ``KeyboardInterrupt`` included — restores the previous
session.  Afterwards the per-job counters (notably
``checkpoint.stage_hits`` / ``stage_misses`` — the cache-hit proof for
duplicate submissions) land on the job record, the trace and result
documents persist into the store, and the job's registry merges into
the service-wide aggregate served by ``GET /metrics``.

Failure taxonomy → job state:

* the executor raised — ``failed`` (the error class/message on the
  record; a non-Repro exception is flagged as a bug);
* keep-going failure records exist (a row degraded, a worker crashed
  mid-job) or the store fell to cache-off (ENOSPC & friends) —
  ``degraded``: the result is still served, with the reason attached;
* otherwise ``done``.
"""

from __future__ import annotations

import contextvars
import importlib
import json
import logging
import threading
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, ServiceError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.supervisor import current_supervisor
from repro.service import jobs as jobs_mod
from repro.service.jobs import (
    KIND_AUDIT,
    KIND_DSE,
    KIND_EXPERIMENT,
    KIND_FLOW,
    KIND_GOLDENS,
    STATE_DEGRADED,
    STATE_DONE,
    STATE_FAILED,
    JobRecord,
    RunSummary,
)
from repro.service.queue import JobQueue
from repro.session import scope

logger = logging.getLogger(__name__)

#: how long ``stop()`` waits for an in-flight job before giving up.
STOP_PATIENCE_S = 120.0


class Coordinator:
    """Drain the job queue on one worker thread (see module docstring)."""

    def __init__(self,
                 store: CheckpointStore,
                 queue: JobQueue,
                 jobs: int = 1,
                 worker_faults: Sequence = (),
                 fault_label_filter: Optional[str] = None,
                 max_crash_retries: int = 2):
        self.store = store
        self.queue = queue
        self.jobs = max(1, int(jobs))
        self.worker_faults = tuple(worker_faults)
        self.fault_label_filter = fault_label_filter
        self.max_crash_retries = max_crash_retries
        #: service-wide aggregate registry behind ``GET /metrics``.
        self.registry = obs_metrics.MetricsRegistry()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._traces: Dict[str, object] = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(target=contextvars.copy_context().run,
                                        args=(self._drain,),
                                        name="repro-service-coordinator",
                                        daemon=True)
        self._thread.start()

    def stop(self, patience_s: float = STOP_PATIENCE_S) -> bool:
        """Stop draining; returns True once the worker has exited.

        The in-flight job (if any) finishes first — jobs are never
        abandoned half-run — bounded by ``patience_s``.
        """
        self._stop.set()
        thread = self._thread
        if thread is None:
            return True
        thread.join(patience_s)
        alive = thread.is_alive()
        if alive:
            logger.error("coordinator did not stop within %.0f s",
                         patience_s)
        else:
            self._thread = None
        return not alive

    def pause(self) -> None:
        """Hold the queue: queued jobs stay queued (used by maintenance
        windows and the concurrency tests; the running job finishes)."""
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- submission --------------------------------------------------------

    def submit(self, kind: str, params: Optional[Dict[str, object]]
               ) -> Tuple[JobRecord, bool]:
        """Normalize, key, and enqueue one submission."""
        kind, normalized = jobs_mod.normalize(kind, params)
        key = jobs_mod.job_key(kind, normalized)
        record, coalesced = self.queue.submit(kind, key, normalized)
        self.registry.counter("service.jobs_submitted").inc()
        if coalesced:
            self.registry.counter("service.job_dedup_hits").inc()
        elif record.runs > 0:
            self.registry.counter("service.jobs_requeued").inc()
        return record, coalesced

    # -- results -----------------------------------------------------------

    def result_for(self, record: JobRecord) -> Optional[object]:
        """The job's result document (memory first, then the store —
        finished jobs survive a service restart through the store)."""
        if record.result is not None:
            return record.result
        if not record.finished:
            return None
        stored = self.store.load(jobs_mod.result_key(record.key))
        if stored is not None:
            record.result = stored
        return record.result

    def trace_for(self, record: JobRecord) -> Optional[object]:
        trace = self._traces.get(record.key)
        if trace is None:
            trace = self.store.load(jobs_mod.trace_key(record.key))
        return trace

    def metrics_snapshot(self) -> Dict[str, object]:
        snapshot = self.registry.snapshot()
        snapshot["queue_depth"] = self.queue.depth()
        snapshot["jobs"] = len(self.queue.jobs())
        snapshot["store"] = {
            "root": str(self.store.root),
            "degraded": self.store.degraded,
        }
        return snapshot

    # -- the drain loop ----------------------------------------------------

    def _drain(self) -> None:
        while not self._stop.is_set():
            if self._paused.is_set():
                time.sleep(0.02)
                continue
            record = self.queue.next_job(timeout_s=0.2)
            if record is None:
                continue
            self._execute(record)

    def _execute(self, record: JobRecord) -> None:
        """Run one job under its own session and classify the outcome."""
        start = time.perf_counter()
        tracer = obs_trace.Tracer()
        registry = obs_metrics.MetricsRegistry()
        payload = None
        error: Optional[BaseException] = None
        extra_failures: List[Dict[str, str]] = []
        # Fresh memos: results the host process memoized earlier would
        # otherwise satisfy the job silently (and mask injected worker
        # failures), and the job's own must not leak back.
        with scope(store=self.store, comparisons={}, flows={},
                   failed_tasks={}, keep_going=True, errors=[],
                   tracer=tracer, metrics=registry,
                   supervisor=current_supervisor().fresh(),
                   collectors=()) as job:
            try:
                payload, extra_failures = self._run_kind(record)
            except Exception as exc:       # ReproError and genuine bugs
                error = exc
        failures = [asdict(row_error) for row_error in job.errors]
        failures.extend(extra_failures)

        wall_s = time.perf_counter() - start
        counters = registry.snapshot()["counters"]
        record.metrics = {name: int(value)
                          for name, value in sorted(counters.items())}
        record.failures = failures
        if error is not None:
            record.error = type(error).__name__
            record.message = str(error)
            if not isinstance(error, ReproError):
                record.message = f"bug: {record.message}"
                logger.exception("job %s hit a non-Repro exception",
                                 record.key, exc_info=error)
            state = STATE_FAILED
        else:
            record.result = payload
            record.error = None
            record.message = ""
            if self.store.degraded:
                state = STATE_DEGRADED
                record.degraded_reason = (
                    f"store cache-off: {self.store.degraded}")
            elif failures:
                state = STATE_DEGRADED
                record.degraded_reason = (
                    f"{len(failures)} keep-going failure record(s)")
            else:
                state = STATE_DONE
                record.degraded_reason = ""
            # Persist result + trace so a restarted service still serves
            # this job (best-effort: a degraded store no-ops these).
            self.store.try_store(jobs_mod.result_key(record.key), payload)
        trace_doc = tracer.to_dict()
        self._traces[record.key] = trace_doc
        while len(self._traces) > 64:      # bound the in-memory traces
            self._traces.pop(next(iter(self._traces)))
        self.store.try_store(jobs_mod.trace_key(record.key), trace_doc)

        record.history.append(RunSummary(
            run=record.runs,
            state=state,
            wall_s=round(wall_s, 6),
            stage_hits=int(counters.get("checkpoint.stage_hits", 0)),
            stage_misses=int(counters.get("checkpoint.stage_misses", 0)),
            error=record.error,
        ).to_dict())
        self.registry.merge_snapshot(registry.snapshot())
        self.registry.counter(f"service.jobs_{state}").inc()
        self.registry.histogram("service.job_wall_s").observe(wall_s)
        self.queue.update(record, state)
        logger.info("job %s (%s) -> %s in %.2f s", record.key[:12],
                    record.kind, state, wall_s)

    # -- per-kind executors ------------------------------------------------

    def _run_kind(self, record: JobRecord
                  ) -> Tuple[object, List[Dict[str, str]]]:
        if record.kind == KIND_FLOW:
            return self._run_flow(record.params)
        if record.kind == KIND_EXPERIMENT:
            return self._run_experiment(record.params)
        if record.kind == KIND_DSE:
            return self._run_dse(record.params)
        if record.kind == KIND_AUDIT:
            return self._run_audit(record.params)
        if record.kind == KIND_GOLDENS:
            return self._run_goldens(record.params)
        raise ServiceError(f"unknown job kind {record.kind!r}")

    def _run_flow(self, params: Dict[str, object]
                  ) -> Tuple[object, List[Dict[str, str]]]:
        """One flow run through the stage-level checkpoint cache.

        Deliberately *not* routed through the whole-run memo: replaying
        ``run_flow`` against warm stage checkpoints is what lets a
        duplicate submission prove itself with ``stage_hits > 0`` and
        zero misses while still re-deriving a byte-identical result.
        """
        from repro.experiments.runner import flow_key
        from repro.flow.design_flow import run_flow
        from repro.flow.export import layout_to_dict

        config = jobs_mod.flow_config(params)
        result = run_flow(config)
        payload = layout_to_dict(result)
        payload["flow_key"] = flow_key(config)
        return payload, []

    def _run_experiment(self, params: Dict[str, object]
                        ) -> Tuple[object, List[Dict[str, str]]]:
        from repro.check.goldens import row_digest
        from repro.experiments import EXPERIMENTS, runner
        from repro.parallel import TaskGraph

        experiment_id = params["id"]
        kwargs = dict(params.get("kwargs") or {})
        module = importlib.import_module(
            f"repro.experiments.{EXPERIMENTS[experiment_id]}")
        declare = getattr(module, "declare_tasks", None)
        engine_summary = None
        if declare is not None:
            graph = TaskGraph(declare(**kwargs))
            if graph.tasks or graph.deferred:
                report = runner.prefetch(
                    graph, jobs=self.jobs,
                    worker_faults=self.worker_faults,
                    fault_label_filter=self.fault_label_filter,
                    max_crash_retries=self.max_crash_retries)
                engine_summary = report.summary()
        rows = module.run(**kwargs)
        return {
            "id": experiment_id,
            "rows": rows,
            "row_digest": row_digest(rows),
            "engine": engine_summary,
        }, []

    def _run_dse(self, params: Dict[str, object]
                 ) -> Tuple[object, List[Dict[str, str]]]:
        from repro.dse import Axis, DseEngine, SweepSpace, make_strategy

        space = SweepSpace(
            jobs_mod.flow_config(params["base"]),
            [Axis(name=name, values=tuple(values))
             for name, values in sorted(params["axes"].items())])
        engine = DseEngine(
            space,
            objectives=params["objectives"],
            strategy=make_strategy(params["strategy"]),
            budget=params.get("budget"),
            jobs=self.jobs,
        )
        result = engine.explore()
        failures = [{"label": json.dumps(f.assignment, sort_keys=True),
                     "error": f.error, "message": f.message}
                    for f in result.failures]
        return json.loads(result.to_json()), failures

    def _run_audit(self, params: Dict[str, object]
                   ) -> Tuple[object, List[Dict[str, str]]]:
        from repro.check import audit as audit_mod
        from repro.check.findings import AuditReport
        from repro.flow.compare import run_iso_performance_comparison

        report = AuditReport()
        with audit_mod.capture_artifacts() as bucket:
            for circuit in params["circuits"]:
                start = len(bucket)
                run_iso_performance_comparison(
                    circuit, node_name=params["node"],
                    scale=params["scale"],
                    target_clock_ns=params.get("clock"))
                report.merge(audit_mod.audit_pair(bucket[start],
                                                  bucket[start + 1]))
        summary = report.summary()
        return {
            "summary": summary,
            "ok": report.ok,
            "findings": [finding.row() for finding in report.findings],
        }, []

    def _run_goldens(self, params: Dict[str, object]
                     ) -> Tuple[object, List[Dict[str, str]]]:
        from repro.check import goldens as goldens_mod
        from repro.experiments import EXPERIMENTS

        results: Dict[str, object] = {}
        ok = True
        for experiment_id in params["ids"]:
            module = importlib.import_module(
                f"repro.experiments.{EXPERIMENTS[experiment_id]}")
            rows = module.run()
            diff = goldens_mod.check_golden(experiment_id, rows)
            ok = ok and diff.ok
            results[experiment_id] = {
                "status": diff.status,
                "ok": diff.ok,
                "message": diff.message,
                "deviations": [d.describe() for d in diff.deviations
                               if not d.within],
            }
        return {"experiments": results, "ok": ok}, []
