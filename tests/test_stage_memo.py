"""Stage-level incremental memoization: digest chains, warm-store
reuse, partial recompute on a router-only change, and whatif reports."""

import dataclasses
import json

from repro.flow import stagecache
from repro.flow.design_flow import FlowConfig, run_flow
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.supervisor import (
    StagePolicy,
    StageSupervisor,
    use_supervisor,
)
from repro.session import scope

SMALL = dict(circuit="fpu", scale=0.06)

# The supervised stages whose payloads persist (placement persists via
# per-attempt keys inside the layout loop).
PERSISTED = ("synthesis", "layout", "post_route", "signoff", "power")


def _row_bytes(result):
    return json.dumps(result.summary_row(), sort_keys=True, default=str)


def _stage_counters(registry):
    return {name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith("checkpoint.stage_")}


# -- digest chain ----------------------------------------------------------

def test_every_config_field_reaches_the_digest_chain():
    """Adding a FlowConfig field without wiring it into STAGE_PARAMS
    would silently serve stale checkpoints for runs varying it."""
    fields = {f.name for f in dataclasses.fields(FlowConfig)}
    covered = {name for params in stagecache.STAGE_PARAMS.values()
               for name in params}
    assert covered == fields


def test_digest_chain_isolates_parameters():
    base = stagecache.stage_digests(FlowConfig(**SMALL))

    # A power-only knob leaves everything up to signoff intact.
    power_only = stagecache.stage_digests(
        FlowConfig(pi_activity=0.3, **SMALL))
    for stage in ("prepare", "synthesis", "placement", "layout",
                  "post_route", "signoff"):
        assert power_only[stage] == base[stage]
    assert power_only["power"] != base["power"]

    # A router-only knob invalidates layout onward, placement survives.
    routed = stagecache.stage_digests(
        FlowConfig(router_detour_coeff=0.5, **SMALL))
    for stage in ("prepare", "synthesis", "placement"):
        assert routed[stage] == base[stage]
    for stage in ("layout", "post_route", "signoff", "power"):
        assert routed[stage] != base[stage]

    # A library knob at the chain root invalidates everything.
    scaled = stagecache.stage_digests(
        FlowConfig(pin_cap_scale=1.1, **SMALL))
    assert all(scaled[stage] != base[stage] for stage in base)


def test_placement_attempt_keys_distinguish_attempts():
    digest = stagecache.stage_digests(FlowConfig(**SMALL))["placement"]
    k1 = stagecache.placement_attempt_key(digest, 0.80, 1)
    k2 = stagecache.placement_attempt_key(digest, 0.52, 2)
    assert k1 != k2
    assert k1 == stagecache.placement_attempt_key(digest, 0.80, 1)


# -- warm-store reuse ------------------------------------------------------

def test_warm_rerun_hits_every_persisted_stage(tmp_path):
    with scope(store=CheckpointStore(tmp_path)):
        first = run_flow(FlowConfig(**SMALL))
        with obs_metrics.use_metrics(obs_metrics.MetricsRegistry()) as reg:
            second = run_flow(FlowConfig(**SMALL))
        counters = _stage_counters(reg)
        for stage in PERSISTED:
            assert counters.get(f"checkpoint.stage_hits.{stage}") == 1
        assert counters.get("checkpoint.stage_misses", 0) == 0
        assert _row_bytes(second) == _row_bytes(first)


def test_timed_stage_thread_keeps_the_session(tmp_path):
    """Under a stage timeout the body runs on the supervisor's thread,
    in a copy of the caller's context: the cold run's kernel spans hang
    under their attempt spans, and a warm rerun still reads the
    session's store (stage hits counted into the session's registry)."""
    timed = StageSupervisor(default_policy=StagePolicy(timeout_s=600))
    with scope(store=CheckpointStore(tmp_path)), use_supervisor(timed):
        with obs_trace.use_tracer(obs_trace.Tracer()) as tracer:
            first = run_flow(FlowConfig(**SMALL))
        with obs_metrics.use_metrics(obs_metrics.MetricsRegistry()) as reg:
            second = run_flow(FlowConfig(**SMALL))
    counters = _stage_counters(reg)
    for stage in PERSISTED:
        assert counters.get(f"checkpoint.stage_hits.{stage}") == 1
    assert _row_bytes(second) == _row_bytes(first)

    spans = tracer.snapshot()
    by_id = {span.span_id: span for span in spans}
    kernels = [span for span in spans if span.category == "kernel"]
    assert kernels
    for span in kernels:
        parent = by_id[span.parent_id]
        while parent.category == "kernel":
            parent = by_id[parent.parent_id]
        assert parent.category == "stage"


def test_router_param_change_reuses_synthesis_and_placement(tmp_path):
    """The acceptance scenario: with a warm base run, changing only a
    router parameter re-executes routing/STA/power but reuses the
    synthesis and placement checkpoints, with rows byte-identical to a
    fresh sequential run."""
    changed_config = FlowConfig(router_detour_coeff=0.50, **SMALL)

    # Reference: the changed config, fresh and sequential (no store).
    reference = _row_bytes(run_flow(changed_config))

    with scope(store=CheckpointStore(tmp_path)):
        run_flow(FlowConfig(**SMALL))            # warm base run
        with obs_metrics.use_metrics(obs_metrics.MetricsRegistry()) as reg:
            incremental = run_flow(changed_config)

        counters = _stage_counters(reg)
        assert counters.get("checkpoint.stage_hits.synthesis") == 1
        assert counters.get("checkpoint.stage_hits.placement") == 1
        for stage in ("layout", "post_route", "signoff", "power"):
            assert counters.get(f"checkpoint.stage_misses.{stage}") == 1
            assert f"checkpoint.stage_hits.{stage}" not in counters
        assert _row_bytes(incremental) == reference


def test_without_store_is_pass_through():
    with obs_metrics.use_metrics(obs_metrics.MetricsRegistry()) as reg:
        run_flow(FlowConfig(**SMALL))
    assert not _stage_counters(reg)


# -- whatif ----------------------------------------------------------------

def test_whatif_reports_reuse_boundary_and_warmth(tmp_path):
    store = CheckpointStore(tmp_path)
    with scope(store=store):
        base = FlowConfig(**SMALL)
        changed = FlowConfig(router_detour_coeff=0.5, **SMALL)
        run_flow(base)                           # warm the base stages

        rows = {row["stage"]: row
                for row in stagecache.whatif(base, changed, store=store)}
        assert rows["synthesis"]["reused"] and rows["synthesis"]["warm"]
        assert rows["placement"]["reused"] and rows["placement"]["warm"]
        for stage in ("layout", "post_route", "signoff", "power"):
            assert not rows[stage]["reused"]
            assert rows[stage]["warm"] is False  # changed digests: cold
        assert rows["prepare"]["warm"] is None   # never persisted
        assert not rows["audit"]["reused"]       # always re-verified

        # After actually running the changed config, its stages are warm.
        run_flow(changed)
        rows = {row["stage"]: row
                for row in stagecache.whatif(base, changed, store=store)}
        assert all(rows[stage]["warm"] for stage in PERSISTED)
