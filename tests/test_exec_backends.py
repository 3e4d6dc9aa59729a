"""Parity and selection tests for where the engine runs tasks.

The contract: inline (``jobs=1``) and the process pool (``jobs>1``) are
pure execution strategies — same task graph in, byte-identical
experiment rows out, results exchanged through the same checkpoint
store.  This extends the jobs=1 vs jobs=2 determinism idiom of
``test_parallel_pool.py``.
"""

from __future__ import annotations

import json
import os

from repro.experiments import runner
from repro.experiments import table04_45nm_summary as table4
from repro.flow.design_flow import FlowConfig
from repro.parallel import ParallelEngine, TaskGraph, flow_task
from repro.runtime.checkpoint import CheckpointStore

SCALE = 0.04


def _rows_via(jobs: int):
    """Prefetch the shared-run table4 graph on ``jobs`` workers, then
    assemble the rows; returns (rows_digest, engine_report)."""
    runner.clear_caches()
    graph = TaskGraph(table4.declare_tasks(circuits=("fpu",), scale=SCALE))
    report = runner.prefetch(graph, jobs=jobs)
    rows = table4.run(circuits=("fpu",), scale=SCALE)
    digest = json.dumps(rows, sort_keys=True, default=str)
    return digest, report


def test_backends_produce_identical_rows():
    digest_serial, report_serial = _rows_via(jobs=1)
    digest_process, report_process = _rows_via(jobs=2)

    assert digest_serial == digest_process
    for report in (report_serial, report_process):
        assert report.n_ok == len(report.records) == 1

    # jobs=1 executes in this very process; jobs=2 dispatches to pool
    # workers
    parent = os.getpid()
    assert report_serial.records[0].pid == parent
    assert report_process.records[0].pid != parent


def test_backend_results_flow_through_shared_store(monkeypatch):
    # After a process-pool prefetch the rows assemble without any
    # recompute: the cached_* layer sees every task result.
    digest, report = _rows_via(jobs=2)
    assert report.records[0].status == "ok"

    def recompute(*args, **kwargs):
        raise AssertionError("row assembly recomputed a prefetched run")

    monkeypatch.setattr(runner, "run_iso_performance_comparison", recompute)
    monkeypatch.setattr(runner, "run_flow", recompute)
    rows_again = table4.run(circuits=("fpu",), scale=SCALE)
    assert json.dumps(rows_again, sort_keys=True, default=str) == digest


def test_make_backend_selection_rules(tmp_path):
    # Where tasks run follows from jobs alone: 1 runs inline in this
    # process, more run on worker processes.  A task whose result is
    # already in the store returns at once, carrying the pid it ran in.
    store = CheckpointStore(tmp_path)
    specs = [flow_task(FlowConfig(circuit="fpu", scale=s))
             for s in (0.04, 0.05)]
    for spec in specs:
        store.store(spec.key, "warm")
    parent = os.getpid()
    inline = ParallelEngine(store=store, jobs=1,
                            warm_libraries=False).execute(TaskGraph(specs))
    pooled = ParallelEngine(store=store, jobs=2,
                            warm_libraries=False).execute(TaskGraph(specs))
    assert all(r.cached for r in inline.records + pooled.records)
    assert {r.pid for r in inline.records} == {parent}
    assert parent not in {r.pid for r in pooled.records}
