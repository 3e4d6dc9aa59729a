"""Tests of the benchmark itself: spec, checks, instrumentation, smoke.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from perfbench import checks, hostspeed, layers, spec, workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def test_every_per_layer_metric_predicts_declared_end_to_end_metrics():
    per_layer = {m["name"] for m in spec.PER_LAYER}
    assert set(spec.MOVES) == per_layer
    assert set(spec.DETERMINISTIC_COUNTS) <= per_layer
    declared = {f"{m['name']}@{w}" for m, w in
                product(spec.END_TO_END, WORKLOAD_NAMES)}
    for name, targets in spec.MOVES.items():
        assert set(targets) <= declared, name
    bounds = {m["name"]: m["bound"] for m in spec.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())


# -- output checks --------------------------------------------------------

def test_golden_row_check_accepts_the_golden_and_rejects_a_perturbation():
    golden = checks.golden_row("ldpc")
    row = dict(golden["rows"][0])
    assert checks.check_golden_row(golden, row) == []

    total = float(row["total power"].rstrip("%"))
    perturbed = dict(row, **{"total power": f"{total + 5.0:+.1f}%"})
    problems = checks.check_golden_row(golden, perturbed)
    assert problems and "total power" in " ".join(problems)

    renamed = dict(row, circuit="LDPC2")
    assert checks.check_golden_row(golden, renamed)


def _record(result, **metrics):
    return {"key": "k", "state": "done", "result": result,
            "metrics": metrics, "message": ""}


def test_dup_check_requires_a_byte_identical_result():
    result = {"n_cells": 10, "power_mw": {"total": 0.125}}
    first = checks.canonical(result)
    hit = {"checkpoint.stage_hits.synthesis": 1}
    assert checks.check_job("dup", _record(result, **hit), first) == []

    perturbed = {"n_cells": 10, "power_mw": {"total": 0.12500000000000003}}
    problems = checks.check_job("dup", _record(perturbed, **hit), first)
    assert problems and "differs" in problems[0]


def test_job_checks_enforce_each_class_hit_pattern():
    result = {"n_cells": 1}
    assert checks.check_job("dup", _record(
        result, **{"checkpoint.stage_misses.power": 1}), None)
    assert checks.check_job("repower", _record(
        result, **{"checkpoint.stage_misses.power": 1}), None) == []
    assert checks.check_job("repower", _record(
        result, **{"checkpoint.stage_misses.power": 1,
                   "checkpoint.stage_misses.signoff": 1}), None)
    assert checks.check_job("reroute", _record(
        result, **{"checkpoint.stage_hits.synthesis": 1,
                   "checkpoint.stage_hits.placement": 2}), None) == []
    assert checks.check_job("reroute", _record(
        result, **{"checkpoint.stage_hits.synthesis": 1}), None)
    assert checks.check_job("cold", _record(
        result, **{"checkpoint.stage_hits.synthesis": 1}), None)
    failed = dict(_record(result), state="failed")
    assert checks.check_job("cold", failed, None)


# -- service job sequence ---------------------------------------------------

def test_session_jobs_are_seeded_and_change_one_knob_per_class():
    workload = workloads.WORKLOADS["service"]
    jobs = workloads.session_jobs(workload, 7, 0)
    assert jobs == workloads.session_jobs(workload, 7, 0)
    assert jobs != workloads.session_jobs(workload, 8, 0)
    assert [cls for cls, _ in jobs] == ["cold", *workloads.SESSION]
    params = {cls: p for cls, p in jobs if cls != "dup"}
    cold = params["cold"]
    assert {k for k in params["reroute"] if params["reroute"][k] !=
            cold.get(k)} == {"router_detour_coeff"}
    assert {k for k in params["repower"] if params["repower"][k] !=
            cold.get(k)} == {"pi_activity", "seq_activity"}
    for i, (cls, p) in enumerate(jobs):
        if cls == "dup":
            assert p in [q for c, q in jobs[:i] if c != "dup"]
    seeds = {workloads.session_jobs(workload, 7, i)[0][1]["seed"]
             for i in range(50)}
    assert len(seeds) == 50


# -- instrumentation --------------------------------------------------------

def test_instrument_wraps_and_restores_every_entry_point():
    originals = [layers._resolve(e)[2] for e in layers.ENTRY_POINTS]
    recorder = layers.Recorder()
    with layers.instrument(recorder):
        wrapped = [layers._resolve(e)[2] for e in layers.ENTRY_POINTS]
        assert all(w is not o for w, o in zip(wrapped, originals))
    assert [layers._resolve(e)[2] for e in layers.ENTRY_POINTS] == originals


def test_recorder_self_time_excludes_nested_calls():
    recorder = layers.Recorder()
    inner = recorder.wrap("inner", lambda: sum(range(20000)))
    outer = recorder.wrap("outer", lambda: inner() + inner())
    outer()
    assert recorder.calls == {"outer": 1, "inner": 2}
    assert recorder.self_s["outer"] == pytest.approx(
        recorder.total_s["outer"] - recorder.total_s["inner"])


def test_missing_entry_point_fails_loudly(monkeypatch):
    monkeypatch.setattr(layers, "ENTRY_POINTS", layers.ENTRY_POINTS + (
        layers.EntryPoint("timing", "repro.timing.sta",
                          "TimingAnalyzer.run_gone"),))
    with pytest.raises(layers.EntryPointError, match="no longer resolves"):
        with layers.instrument(layers.Recorder()):
            pass


def _determinism_problems(*sta_calls):
    """per_layer's problems for traced passes with these STA call counts."""
    traced, recorders = [], []
    for calls in sta_calls:
        recorder = layers.Recorder()
        for label in layers.REQUIRED_CALLS["ldpc"]:
            recorder.calls[label] = 1
        recorder.calls["timing"] = calls
        traced.append(workloads.Outcome(wall_s=1.0))
        recorders.append(recorder)
    _, problems = workloads.per_layer(
        workloads.WORKLOADS["ldpc"], [workloads.Outcome(wall_s=1.0)],
        traced, recorders, library_s=0.1)
    return problems


def test_traced_passes_must_repeat_their_counts():
    assert _determinism_problems(5, 5) == []
    problems = _determinism_problems(5, 6)
    assert problems and "timing.sta_calls" in problems[0]


def test_uncalled_entry_point_fails_loudly():
    recorder = layers.Recorder()
    recorder.calls["timing"] = 3
    with pytest.raises(layers.EntryPointError, match="never called"):
        layers.require_calls("ldpc", recorder)


# -- host speed -------------------------------------------------------------

def test_slowdown_is_the_median_probe_time_in_the_interval():
    loop_s, walk_s = hostspeed.REFERENCE_S
    # loop at 2x, walk at 8x in [10, 20]: a geometric mean of 4x
    samples = [(float(t), loop_s * (2.0 if 10 <= t <= 20 else 1.0),
                walk_s * (8.0 if 10 <= t <= 20 else 1.0))
               for t in range(31)]
    assert hostspeed.slowdown(samples, 10.0, 20.0) == pytest.approx(4.0)
    assert hostspeed.slowdown(samples, 0.0, 9.0) == pytest.approx(1.0)
    # an interval shorter than the probe period borrows its neighbours
    assert hostspeed.slowdown(samples, 15.2, 15.3) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        hostspeed.slowdown([], 0.0, 1.0)


def test_reference_time_divides_wall_time_by_the_slowdown():
    fast = workloads.Outcome(wall_s=3.0, cells=300, slowdown=1.0)
    slow = workloads.Outcome(wall_s=6.0, cells=300, slowdown=2.0)
    metrics = workloads.end_to_end([fast, slow, slow], setup_s=0.5)
    assert metrics["op_s_p50"] == pytest.approx(3.0)
    assert metrics["cells_per_s"] == pytest.approx(100.0)


def test_probe_records_samples_and_stops(tmp_path):
    speed = hostspeed.HostSpeed(None, tmp_path / "speed.txt")
    try:
        assert speed.samples()
        assert speed.slowdown(0.0, float("inf")) > 0
    finally:
        speed.stop()
    assert speed.proc.returncode is not None


# -- end to end -------------------------------------------------------------

TINY = {"ldpc": 0.02, "m256": 0.02, "service": 0.05}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_tiny_workload_emits_the_declared_metrics(
        workload, trace, monkeypatch, capsys, tmp_path):
    from perfbench import run

    monkeypatch.setitem(workloads.WORKLOADS, workload, replace(
        workloads.WORKLOADS[workload], scale=TINY[workload]))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    args = run.parse_args(["--workload", workload, "--seed", "3",
                           "--seconds", "0.1", "--trace", str(trace)])
    speed = hostspeed.HostSpeed(None, tmp_path / "speed.txt")
    try:
        assert run.run(args, (os.getloadavg(), 2), tmp_path, speed) == 0
    finally:
        speed.stop()
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        detail = json.loads(lines[-2].removeprefix("detail: "))
        assert len(detail["traced_s"]) >= workloads.MIN_TRACED_PASSES
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ldpc",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
