"""Concurrency and fault-injection tests for the repro service.

Three promises are pinned here, all observed over real HTTP:

* N concurrent identical submissions race to exactly **one** execution
  (the canonical job key coalesces them while the job is live);
* a sick disk (ENOSPC, torn writes) degrades the service to cache-off
  — jobs keep completing and the API keeps answering 200s, never 500s;
* a worker process killed mid-job surfaces as a keep-going failure
  record inside the job result instead of taking the service down.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.experiments import runner
from repro.obs import trace as obs_trace
from repro.runtime import faults
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import ALWAYS, FaultSpec, FsFaultSpec
from repro.runtime.supervisor import current_supervisor
from repro.service import (
    STATE_DEGRADED,
    STATE_DONE,
    Coordinator,
    JobQueue,
    ServiceClient,
)
from repro.session import scope

SCALE = 0.04


def _crash_worker(result):
    # kills the worker process outright — the coordinator only ever
    # sees a broken pool, like an OOM kill or segfault.
    os._exit(137)


# -- concurrent duplicate submissions --------------------------------------

def test_concurrent_duplicates_race_to_one_execution(service_factory):
    """Eight clients submit the same flow job at the same moment; the
    service runs it once and every client gets the same record."""
    service = service_factory()
    client = ServiceClient(service.url)

    # Hold the queue so every submission lands while the job is live.
    service.coordinator.pause()

    results = [None] * 8
    barrier = threading.Barrier(len(results))

    def _submit(i):
        barrier.wait()
        results[i] = ServiceClient(service.url).submit(
            "flow", {"circuit": "aes", "scale": SCALE})

    threads = [threading.Thread(target=_submit, args=(i,))
               for i in range(len(results))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    keys = {r["key"] for r in results}
    assert len(keys) == 1
    # exactly one submission created the job; the rest coalesced
    assert sum(1 for r in results if not r["coalesced"]) == 1

    service.coordinator.resume()
    record = client.wait(keys.pop(), timeout_s=120)
    assert record["state"] == STATE_DONE
    assert record["runs"] == 1
    assert record["submissions"] == len(results)

    counters = client.metrics()["counters"]
    assert counters["service.jobs_submitted"] == len(results)
    assert counters["service.job_dedup_hits"] == len(results) - 1


# -- store fault injection -------------------------------------------------

def test_enospc_degrades_jobs_instead_of_500s(service_factory):
    """A full disk flips the service store to cache-off; jobs still
    complete (state ``degraded``, result served from memory) and every
    endpoint keeps answering 200.  The plan is in the session the
    service starts under, so its jobs run with it."""
    with faults.inject(FsFaultSpec(kind="enospc", op="store",
                                   times=ALWAYS)):
        service = service_factory()
        client = ServiceClient(service.url)
        accepted = client.submit("flow", {"circuit": "fpu",
                                          "scale": SCALE})
        record = client.wait(accepted["key"], timeout_s=120)
        assert record["state"] == STATE_DEGRADED
        assert "cache-off" in record["degraded_reason"]
        assert "ENOSPC" in record["degraded_reason"]
        # the flow itself succeeded: the result is complete and served
        assert record["result"]["power_mw"]["total"] > 0
        assert record["error"] is None

        # the API stays healthy and *says* it is degraded
        health = client.health()
        assert health["ok"] is True
        assert "ENOSPC" in health["store_degraded"]
        assert client.metrics()["store"]["degraded"] != ""
        assert client.store_stats()["degraded"] != ""

        # a second job on the degraded store still completes — it just
        # cannot use stage checkpoints any more
        replay = client.run("flow", {"circuit": "fpu", "scale": SCALE},
                            timeout_s=120)
        assert replay["state"] == STATE_DEGRADED
        assert replay["history"][-1]["stage_hits"] == 0


def test_torn_write_does_not_fail_jobs(service_factory):
    """A torn checkpoint write (crash mid-write) quarantines the entry;
    the job completes and the store stays healthy."""
    with faults.inject(FsFaultSpec(kind="torn_write", op="store")) as plan:
        service = service_factory()
        client = ServiceClient(service.url)
        record = client.run("flow", {"circuit": "des", "scale": SCALE},
                            timeout_s=120)
        assert plan.fs_fired("torn_write") == 1
    assert record["state"] == STATE_DONE
    assert client.health()["store_degraded"] == ""

    # the replay must not trust the torn entry: it either re-derives the
    # stage (a miss) or reads a good later checkpoint — and the result
    # is byte-identical either way
    replay = client.run("flow", {"circuit": "des", "scale": SCALE},
                        timeout_s=120)
    assert replay["state"] == STATE_DONE
    assert (json.dumps(replay["result"], sort_keys=True)
            == json.dumps(record["result"], sort_keys=True))
    # fsck still reports a consistent store over HTTP
    fsck = client.store_fsck()
    assert fsck["ok"] >= 1


# -- scoped-session isolation ----------------------------------------------

def test_job_ignores_and_preserves_host_process_memos(service_factory):
    """An embedded service must never let host-process memoized results
    satisfy a job (regression: a warm host memo once masked an injected
    worker crash), nor leak the job's own inserts back into the host."""
    poison = object()   # would blow up row assembly if ever used
    key = runner.comparison_key("fpu", "45nm", SCALE, {})
    # The service starts under the host session, poisoned memo and all.
    with scope(comparisons={key: poison}, flows={}) as host:
        service = service_factory()
        client = ServiceClient(service.url)
        record = client.run(
            "experiment",
            {"id": "table4", "kwargs": {"circuits": ["fpu"],
                                        "scale": SCALE}},
            timeout_s=180)
        assert record["state"] == STATE_DONE
        assert record["error"] is None
        assert record["result"]["rows"]

    # the host memo is exactly as we left it: the poisoned entry is
    # still there and the job's real result did not leak in
    assert host.comparisons == {key: poison}
    assert host.flows == {}


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
def test_interrupted_job_leaves_the_host_session_untouched(
        tmp_path, monkeypatch, interrupt):
    """A job killed by KeyboardInterrupt/SystemExit propagates it, and
    the host is left on its own store, keep-going flag, memos and
    tracer — not the service's."""
    coordinator = Coordinator(CheckpointStore(tmp_path / "service"),
                              JobQueue())
    record, _ = coordinator.submit("flow", {"circuit": "fpu",
                                            "scale": SCALE})

    def interrupted(record):
        assert runner.persistent_store() is coordinator.store
        runner.cached_comparison("fpu", scale=SCALE)   # fills job memos
        raise interrupt()

    monkeypatch.setattr(coordinator, "_run_kind", interrupted)
    monkeypatch.setattr(runner, "run_iso_performance_comparison",
                        lambda circuit, **kwargs: "job-result")
    host_store = CheckpointStore(tmp_path / "host")
    tracer = obs_trace.Tracer()
    memo = {"host-key": "host-result"}
    with scope(store=host_store, keep_going=False, comparisons=memo,
               tracer=tracer):
        with pytest.raises(interrupt):
            coordinator._execute(record)
        assert runner.persistent_store() is host_store
        assert not runner.keep_going_enabled()
        assert memo == {"host-key": "host-result"}
        assert obs_trace.current_tracer() is tracer


def test_service_jobs_journal_on_their_own_supervisor(service_factory):
    """Every job runs on a fresh stage supervisor: the host's journal
    does not grow by a record per stage per job."""
    host_journal = current_supervisor().journal
    before = len(host_journal.records)
    service = service_factory()
    client = ServiceClient(service.url)
    for circuit in ("fpu", "fpu", "des"):
        record = client.run("flow", {"circuit": circuit, "scale": SCALE},
                            timeout_s=120)
        assert record["state"] == STATE_DONE
    assert len(host_journal.records) == before


# -- worker crash mid-job --------------------------------------------------

def test_worker_kill_surfaces_failure_record_in_job(service_factory):
    """Kill the worker process on every synthesis attempt: the job
    degrades and carries the WorkerCrashError record; the service and
    its coordinator survive to run the next job."""
    crash = FaultSpec(stage="synthesis", factory=_crash_worker,
                      times=ALWAYS)
    service = service_factory(jobs=2, worker_faults=(crash,),
                              max_crash_retries=1)
    client = ServiceClient(service.url)

    record = client.run(
        "experiment",
        {"id": "table4", "kwargs": {"circuits": ["fpu"], "scale": SCALE}},
        timeout_s=180)
    assert record["state"] == STATE_DEGRADED
    assert record["failures"], "expected a keep-going failure record"
    assert any("WorkerCrash" in f["error"] for f in record["failures"])
    # keep-going assembled the rows anyway; the crashed row is marked
    rows = record["result"]["rows"]
    assert len(rows) == 1
    assert "error" in json.dumps(rows[0]).lower()

    # the coordinator survived the crashed pool: next job is clean
    # (the faults only match this test's injected plan while installed,
    # but the service's worker_faults config persists — use a flow job,
    # which does not go through the worker pool)
    clean = client.run("flow", {"circuit": "fpu", "scale": SCALE},
                       timeout_s=120)
    assert clean["state"] == STATE_DONE
    assert service.coordinator.running is True
