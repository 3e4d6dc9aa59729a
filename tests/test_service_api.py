"""Black-box tests for the repro-as-a-service HTTP API.

Everything here goes over a real socket: the service boots on an
ephemeral port (see the ``service_session`` fixture) and the tests only
use :class:`repro.service.ServiceClient` / raw urllib — no reaching
into the coordinator's internals.  The one white-box exception is the
orphaned-worker check at the end, which is precisely about what the
black box must *not* leak.
"""

from __future__ import annotations

import json
import multiprocessing
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.service import (
    JOB_KINDS,
    STATE_DEGRADED,
    STATE_DONE,
    STATE_FAILED,
    ServiceClient,
    job_key,
    normalize,
)

SCALE = 0.04   # tiny circuits: whole flow in well under a second


# -- liveness & routing ----------------------------------------------------

def test_healthz_reports_live_coordinator(service_client):
    health = service_client.health()
    assert health["ok"] is True
    assert health["coordinator_running"] is True
    assert health["store_degraded"] == ""


def test_unknown_route_is_404_with_json_body(service_session):
    request = urllib.request.Request(f"{service_session.url}/nope")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=10)
    assert err.value.code == 404
    body = json.loads(err.value.read().decode())
    assert body["error"] == "NotFound"


def test_unknown_job_key_is_404(service_client):
    with pytest.raises(ServiceError, match="404"):
        service_client.job("0" * 64)


def test_unknown_kind_and_bad_params_are_400(service_client):
    with pytest.raises(ServiceError, match="400"):
        service_client.submit("frobnicate", {})
    with pytest.raises(ServiceError, match="400"):
        service_client.submit("flow", {"circuit": "not-a-circuit"})
    with pytest.raises(ServiceError, match="400"):
        service_client.submit("flow", {"circuit": "fpu",
                                       "no_such_field": 1})
    # A field FlowConfig dropped: rejected by name, not queued.
    with pytest.raises(ServiceError, match="400.*kernel_backend"):
        service_client.submit("flow", {"circuit": "fpu",
                                       "kernel_backend": "numpy"})
    with pytest.raises(ServiceError, match="400"):
        service_client.submit("experiment", {"id": "table99"})
    with pytest.raises(ServiceError, match="400"):
        service_client.submit("dse", {"circuit": "fpu", "axes": {}})


def test_journaled_stale_params_fail_as_service_errors(service_factory,
                                                       tmp_path):
    # A journal written before the field was dropped: one queued flow
    # job and one queued DSE job whose params still carry it.  Replay
    # must fail both cleanly (ServiceError), not as a "bug:" TypeError.
    _, params = normalize("flow", {"circuit": "fpu", "scale": SCALE})
    flow_params = dict(params, kernel_backend="python")
    dse_params = {"base": dict(flow_params),
                  "axes": {"pin_cap_scale": [0.8, 1.0]},
                  "objectives": ["power", "delay"], "strategy": "grid",
                  "budget": None}
    journal = tmp_path / "queue" / "jobs.jsonl"
    journal.parent.mkdir(parents=True)
    lines = []
    for key, kind, job_params in (("a" * 64, "flow", flow_params),
                                  ("b" * 64, "dse", dse_params)):
        lines.append(json.dumps({
            "t": 0.0, "event": "submit", "params": job_params,
            "job": {"key": key, "kind": kind, "state": "queued",
                    "submissions": 1, "runs": 0}}))
    journal.write_text("\n".join(lines) + "\n")

    service = service_factory(data_dir=tmp_path)
    client = ServiceClient(service.url)
    for key in ("a" * 64, "b" * 64):
        record = client.wait(key, timeout_s=60)
        assert record["state"] == STATE_FAILED
        assert record["error"] == "ServiceError"
        assert "kernel_backend" in record["message"]
        assert not record["message"].startswith("bug:")


def test_non_json_body_is_400(service_session):
    request = urllib.request.Request(
        f"{service_session.url}/jobs", data=b"not json",
        method="POST", headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=10)
    assert err.value.code == 400


# -- job lifecycle ---------------------------------------------------------

def test_flow_job_lifecycle(service_client):
    accepted = service_client.submit(
        "flow", {"circuit": "fpu", "scale": SCALE})
    assert accepted["state"] == "queued"
    assert accepted["coalesced"] is False
    assert len(accepted["key"]) == 64    # sha256 hex

    record = service_client.wait(accepted["key"], timeout_s=120)
    assert record["state"] == STATE_DONE
    assert record["error"] is None
    assert record["failures"] == []
    assert record["runs"] == 1
    assert record["wall_s"] > 0

    result = record["result"]
    assert result["circuit"] == "fpu"
    assert result["flow_key"]
    assert result["power_mw"]["total"] > 0

    # the full FlowConfig round-trips through normalization
    assert record["params"]["circuit"] == "fpu"
    assert record["params"]["scale"] == SCALE

    # the job shows up in the listing (summaries carry no result blob)
    listed = [j for j in service_client.jobs()
              if j["key"] == accepted["key"]]
    assert len(listed) == 1
    assert listed[0]["state"] == STATE_DONE
    assert "result" not in listed[0]


def test_duplicate_submission_is_cache_hit(service_client):
    """The acceptance criterion, end to end over HTTP.

    Two identical flow submissions — spelled differently — produce the
    same canonical job key, and the second run completes purely from
    warm stage checkpoints: ``stage_hits > 0`` and zero misses, with a
    byte-identical result payload.
    """
    first = service_client.submit(
        "flow", {"circuit": "des", "scale": SCALE})
    record_1 = service_client.wait(first["key"], timeout_s=120)
    assert record_1["state"] == STATE_DONE
    result_1 = json.dumps(record_1["result"], sort_keys=True)

    # same work, different spelling: string scale, explicit default
    second = service_client.submit(
        "flow", {"circuit": "des", "scale": str(SCALE),
                 "node_name": "45nm"})
    assert second["key"] == first["key"]

    record_2 = service_client.wait(second["key"], timeout_s=120)
    assert record_2["state"] == STATE_DONE
    assert record_2["runs"] == 2
    assert record_2["submissions"] == 2

    replay = record_2["history"][-1]
    assert replay["stage_hits"] > 0
    assert replay["stage_misses"] == 0

    result_2 = json.dumps(record_2["result"], sort_keys=True)
    assert result_2 == result_1


def test_experiment_job_returns_rows_and_digest(service_client):
    record = service_client.run(
        "experiment",
        {"id": "table4", "kwargs": {"circuits": ["fpu"], "scale": SCALE}},
        timeout_s=180)
    assert record["state"] == STATE_DONE
    result = record["result"]
    assert result["id"] == "table4"
    assert len(result["rows"]) == 1
    assert result["rows"][0]["circuit"] == "FPU"
    assert len(result["row_digest"]) == 64
    assert result["engine"]["tasks"] >= 1


def test_dse_job_explores_the_space(service_client):
    record = service_client.run(
        "dse",
        {"circuit": "aes", "base": {"circuit": "aes", "scale": SCALE},
         "axes": {"target_utilization": [0.65, 0.7]}},
        timeout_s=180)
    assert record["state"] == STATE_DONE
    result = record["result"]
    assert result["evaluations"] == 2
    assert result["frontier"]["indices"]
    assert result["failures"] == []


def test_audit_job_reports_findings(service_client):
    record = service_client.run(
        "audit", {"circuits": ["fpu"], "scale": SCALE}, timeout_s=180)
    assert record["state"] == STATE_DONE
    result = record["result"]
    assert result["ok"] is True
    assert result["summary"]["checks"] > 0


def test_failed_job_carries_the_error(service_client):
    # A target utilization below the floorplanner's floor passes
    # normalization (it is a legal FlowConfig) but raises a
    # PlacementError at execution time.
    record = service_client.run(
        "flow", {"circuit": "fpu", "scale": SCALE,
                 "target_utilization": 0.01}, timeout_s=120)
    assert record["state"] == STATE_FAILED
    assert record["error"]
    assert record["result"] is None
    assert not record["message"].startswith("bug:")


def test_trace_endpoint_serves_job_spans(service_client):
    accepted = service_client.submit(
        "flow", {"circuit": "fpu", "scale": SCALE})
    service_client.wait(accepted["key"], timeout_s=120)
    trace = service_client.trace(accepted["key"])
    assert trace["key"] == accepted["key"]
    assert trace["trace"]["n_spans"] > 0
    names = {span["name"] for span in trace["trace"]["spans"]}
    assert any(name.startswith("stage:") or "flow" in name
               for name in names)


def test_metrics_aggregate_across_jobs(service_client):
    service_client.run("flow", {"circuit": "fpu", "scale": SCALE},
                       timeout_s=120)
    metrics = service_client.metrics()
    counters = metrics["counters"]
    assert counters["service.jobs_submitted"] >= 1
    assert counters["service.jobs_done"] >= 1
    assert metrics["store"]["degraded"] == ""
    assert metrics["queue_depth"] == 0
    hist = metrics["histograms"]["service.job_wall_s"]
    assert hist["count"] >= 1


def test_store_endpoints(service_client):
    service_client.run("flow", {"circuit": "fpu", "scale": SCALE},
                       timeout_s=120)
    stats = service_client.store_stats()
    assert stats["entries"] > 0
    assert stats["degraded"] == ""
    fsck = service_client.store_fsck()
    assert fsck["ok"] == stats["entries"]
    assert fsck["quarantined"] == 0


# -- normalization (the key discipline, checked without the server) --------

def test_job_key_is_spelling_invariant():
    _, params_a = normalize("flow", {"circuit": "fpu", "scale": 0.05})
    _, params_b = normalize("flow", {"scale": "0.05", "circuit": "fpu",
                                     "node_name": "45nm"})
    assert params_a == params_b
    assert job_key("flow", params_a) == job_key("flow", params_b)


def test_job_kinds_are_distinct_keyspaces():
    _, flow_params = normalize("flow", {"circuit": "fpu"})
    keys = {job_key(kind, flow_params) for kind in JOB_KINDS}
    assert len(keys) == len(JOB_KINDS)


# -- shutdown hygiene ------------------------------------------------------

def test_clean_shutdown_leaves_no_orphans(service_factory):
    """A started service stops completely: socket closed, coordinator
    thread joined, no worker processes left behind."""
    service = service_factory(jobs=2)
    client = ServiceClient(service.url)
    record = client.run("flow", {"circuit": "ldpc", "scale": SCALE},
                        timeout_s=120)
    assert record["state"] in (STATE_DONE, STATE_DEGRADED)
    url = service.url
    service.stop()
    assert service.coordinator.running is False
    assert multiprocessing.active_children() == []
    with pytest.raises(ServiceError, match="failed"):
        ServiceClient(url, timeout_s=2).health()


@pytest.mark.slow
def test_many_job_soak(service_factory):
    """A burst of heterogeneous jobs all finish, dedupe, and aggregate."""
    service = service_factory()
    client = ServiceClient(service.url)
    keys = []
    for circuit in ("fpu", "des", "fpu", "aes"):
        keys.append(client.submit(
            "flow", {"circuit": circuit, "scale": SCALE})["key"])
    keys.append(client.submit(
        "experiment",
        {"id": "table4", "kwargs": {"circuits": ["fpu"],
                                    "scale": SCALE}})["key"])
    # table2 is characterization-only: the cheapest real golden.
    keys.append(client.submit("goldens-diff", {"ids": ["table2"]})["key"])
    states = {key: client.wait(key, timeout_s=300)["state"]
              for key in set(keys)}
    assert set(states.values()) == {STATE_DONE}
    # fpu was submitted twice: 5 unique keys from 6 submissions
    assert len(set(keys)) == 5
    counters = client.metrics()["counters"]
    assert counters["service.jobs_submitted"] == 6
    assert counters["service.jobs_done"] >= 5
