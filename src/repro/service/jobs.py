"""Job model for the repro service.

A *job* is one unit of server-side work — a flow run, a paper
experiment, a DSE exploration, an invariant audit, or a goldens diff —
named by the **canonical job key**: the same SHA-256
:func:`repro.runtime.checkpoint.config_key` discipline the checkpoint
store uses, taken over the job kind plus its *normalized* parameters.
Normalization resolves every default the executor would resolve (a flow
job's params become a full ``FlowConfig`` dict, a DSE job's axes are
coerced through the sweep-space registry), so two clients submitting
the same work — one spelling out defaults, one omitting them — produce
the same key and coalesce onto one job.

State machine (see :data:`JOB_STATES`)::

    queued ──▶ running ──▶ done
                  │
                  ├──────▶ degraded   (keep-going failure records, or
                  │                    the store fell to cache-off)
                  └──────▶ failed     (the job itself raised)

A re-submission of a finished job re-enqueues it (``queued`` again);
the run replays against the warm stage checkpoints, which is what makes
duplicate submissions from different clients near-free cache hits.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.runtime.checkpoint import config_key

# -- job kinds -------------------------------------------------------------

KIND_FLOW = "flow"
KIND_EXPERIMENT = "experiment"
KIND_DSE = "dse"
KIND_AUDIT = "audit"
KIND_GOLDENS = "goldens-diff"
KIND_SCENARIO = "scenario"

JOB_KINDS = (KIND_FLOW, KIND_EXPERIMENT, KIND_DSE, KIND_AUDIT,
             KIND_GOLDENS, KIND_SCENARIO)

# -- job states ------------------------------------------------------------

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DEGRADED = "degraded"
STATE_FAILED = "failed"
STATE_DONE = "done"

JOB_STATES = (STATE_QUEUED, STATE_RUNNING, STATE_DEGRADED, STATE_FAILED,
              STATE_DONE)

#: states in which a duplicate submission coalesces instead of
#: re-enqueueing — the in-flight execution will serve both clients.
LIVE_STATES = (STATE_QUEUED, STATE_RUNNING)

#: terminal states of one run (the job itself can be re-enqueued).
FINISHED_STATES = (STATE_DEGRADED, STATE_FAILED, STATE_DONE)

def _known_circuits() -> Tuple[str, ...]:
    from repro.circuits.generators import BENCHMARKS

    return tuple(sorted(BENCHMARKS))


def _known_nodes() -> Tuple[str, ...]:
    from repro.tech.node import node_names

    return tuple(node_names())


# -- parameter normalization ----------------------------------------------

def flow_config(params: Dict[str, object]):
    """Build the ``FlowConfig`` of a flow job's params.

    Values are coerced to the field's annotated type through the same
    :func:`repro.dse.space.coerce_field_value` the DSE axes use, so
    ``"scale": "0.1"`` and ``"scale": 0.1`` key identically — the
    whole point of the canonical job key.  Any bad or unknown field
    (including one a journal written by an older version still holds)
    raises :class:`ServiceError`.
    """
    from repro.dse.space import coerce_field_value
    from repro.errors import DseError
    from repro.flow.design_flow import FlowConfig

    circuits = _known_circuits()
    circuit = params.get("circuit")
    if circuit not in circuits:
        raise ServiceError(f"flow job needs a circuit from {circuits}; "
                           f"got {circuit!r}")
    try:
        coerced = {name: coerce_field_value(name, value)
                   for name, value in params.items()}
        config = FlowConfig(**coerced)
    except (DseError, TypeError) as exc:
        raise ServiceError(f"bad flow parameters: {exc}") from None
    if config.node_name not in _known_nodes():
        raise ServiceError(f"unknown node {config.node_name!r}; "
                           f"known: {_known_nodes()}")
    return config


def _normalize_flow(params: Dict[str, object]) -> Dict[str, object]:
    """Resolve a flow job to a full canonical ``FlowConfig`` dict."""
    return asdict(flow_config(params))


def _normalize_experiment(params: Dict[str, object]) -> Dict[str, object]:
    from repro.experiments import EXPERIMENTS

    experiment_id = str(params.get("id", "")).lower().replace(" ", "")
    if experiment_id not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ServiceError(f"unknown experiment {params.get('id')!r}; "
                           f"known: {known}")
    kwargs = params.get("kwargs") or {}
    if not isinstance(kwargs, dict):
        raise ServiceError("experiment 'kwargs' must be an object")
    return {"id": experiment_id, "kwargs": kwargs}


def _normalize_dse(params: Dict[str, object]) -> Dict[str, object]:
    """Validate the space through the sweep registry; canonical values."""
    from repro.dse import Axis, SweepSpace
    from repro.errors import DseError

    base_params = dict(params.get("base") or {})
    base_params.setdefault("circuit", params.get("circuit"))
    base_config = flow_config(base_params)
    axes_doc = params.get("axes")
    if not isinstance(axes_doc, dict) or not axes_doc:
        raise ServiceError("dse job needs 'axes': {field: [values, ...]}")
    try:
        axes = [Axis(name=name, values=tuple(values))
                for name, values in sorted(axes_doc.items())]
        space = SweepSpace(base_config, axes)
    except DseError as exc:
        raise ServiceError(str(exc)) from None
    return {
        "base": asdict(base_config),
        "axes": {axis.name: list(axis.values) for axis in space.axes},
        "objectives": list(params.get("objectives")
                           or ["power", "delay"]),
        "strategy": str(params.get("strategy", "grid")),
        "budget": params.get("budget"),
    }


def _normalize_audit(params: Dict[str, object]) -> Dict[str, object]:
    known = _known_circuits()
    circuits = params.get("circuits") or [params.get("circuit")]
    circuits = [str(c).lower() for c in circuits if c]
    if not circuits or any(c not in known for c in circuits):
        raise ServiceError(f"audit job needs circuits from {known}; "
                           f"got {circuits!r}")
    node = str(params.get("node", "45nm"))
    if node not in _known_nodes():
        raise ServiceError(f"unknown node {node!r}; "
                           f"known: {_known_nodes()}")
    return {
        "circuits": circuits,
        "node": node,
        "scale": float(params.get("scale", 0.1)),
        "clock": params.get("clock"),
    }


def _normalize_goldens(params: Dict[str, object]) -> Dict[str, object]:
    from repro.check import goldens as goldens_mod
    from repro.experiments import EXPERIMENTS

    ids = [str(i).lower().replace(" ", "")
           for i in (params.get("ids")
                     or goldens_mod.GOLDEN_EXPERIMENTS)]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ServiceError(f"unknown experiment id(s) {unknown}")
    return {"ids": ids}


def _normalize_scenario(params: Dict[str, object]) -> Dict[str, object]:
    """Resolve a named-scenario submission to canonical flow params.

    ``{"kind": "scenario", "params": {"name": "quad-tier"}}`` lowers to
    the same full ``FlowConfig`` dict a spelled-out flow job would
    produce, so the two coalesce onto one job key (the submission is
    re-kinded to ``flow`` in :func:`normalize`).
    """
    from repro.errors import ReproError
    from repro.flow.scenario import get_scenario

    name = str(params.get("name", ""))
    try:
        spec = get_scenario(name)
        overrides = dict(params.get("overrides") or {})
        config = spec.to_flow_config(
            is_3d=bool(params.get("is_3d", True)), **overrides)
    except (ReproError, TypeError) as exc:
        raise ServiceError(f"bad scenario job: {exc}") from None
    return _normalize_flow(asdict(config))


_NORMALIZERS = {
    KIND_FLOW: _normalize_flow,
    KIND_EXPERIMENT: _normalize_experiment,
    KIND_DSE: _normalize_dse,
    KIND_AUDIT: _normalize_audit,
    KIND_GOLDENS: _normalize_goldens,
    KIND_SCENARIO: _normalize_scenario,
}


def normalize(kind: str, params: Optional[Dict[str, object]]
              ) -> Tuple[str, Dict[str, object]]:
    """Validate and canonicalize a submission; returns (kind, params).

    Raises :class:`ServiceError` (HTTP 400 at the API boundary) on an
    unknown kind or malformed parameters — *before* anything is
    enqueued, so the queue only ever holds runnable jobs.
    """
    kind = str(kind or "").lower()
    normalizer = _NORMALIZERS.get(kind)
    if normalizer is None:
        raise ServiceError(f"unknown job kind {kind!r}; "
                           f"known: {', '.join(JOB_KINDS)}")
    if params is not None and not isinstance(params, dict):
        raise ServiceError("'params' must be a JSON object")
    normalized = normalizer(dict(params or {}))
    if kind == KIND_SCENARIO:
        # A scenario is sugar for a fully-resolved flow job: re-kind it
        # so equivalent flow and scenario submissions share one key.
        kind = KIND_FLOW
    return kind, normalized


def job_key(kind: str, params: Dict[str, object]) -> str:
    """Canonical job key: content hash of the kind + normalized params.

    Shares the checkpoint store's key discipline (schema-versioned
    SHA-256 over canonical JSON), so identical submissions from any
    client — or any service replica sharing the store — collide onto
    one key.
    """
    return config_key("job", {"kind": kind, "params": params})


# -- the job record --------------------------------------------------------

@dataclass
class RunSummary:
    """One completed execution of a job (jobs can be re-run)."""

    run: int
    state: str
    wall_s: float
    stage_hits: int = 0
    stage_misses: int = 0
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class JobRecord:
    """Everything the service knows about one job."""

    key: str
    kind: str
    params: Dict[str, object]
    state: str = STATE_QUEUED
    submissions: int = 1
    runs: int = 0
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    result: Optional[object] = None
    error: Optional[str] = None
    message: str = ""
    degraded_reason: str = ""
    failures: List[Dict[str, str]] = field(default_factory=list)
    metrics: Dict[str, int] = field(default_factory=dict)
    history: List[Dict[str, object]] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.state in FINISHED_STATES

    @property
    def live(self) -> bool:
        return self.state in LIVE_STATES

    def wall_s(self) -> float:
        if self.started_s is None:
            return 0.0
        end = self.finished_s if self.finished_s is not None else time.time()
        return max(0.0, end - self.started_s)

    def summary(self) -> Dict[str, object]:
        """The lightweight listing/journal form (no result payload)."""
        return {
            "key": self.key,
            "kind": self.kind,
            "state": self.state,
            "submissions": self.submissions,
            "runs": self.runs,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "error": self.error,
            "message": self.message,
            "degraded_reason": self.degraded_reason,
            "failures": list(self.failures),
            "metrics": dict(self.metrics),
        }

    def to_dict(self) -> Dict[str, object]:
        """The full API form served by ``GET /jobs/<key>``."""
        payload = self.summary()
        payload["params"] = self.params
        payload["wall_s"] = round(self.wall_s(), 6)
        payload["history"] = list(self.history)
        payload["result"] = self.result
        return payload

    @classmethod
    def from_summary(cls, doc: Dict[str, object],
                     params: Optional[Dict[str, object]] = None
                     ) -> "JobRecord":
        """Rebuild a record from a journal snapshot (no result/history)."""
        record = cls(key=str(doc["key"]), kind=str(doc["kind"]),
                     params=dict(params or {}))
        record.state = str(doc.get("state", STATE_QUEUED))
        record.submissions = int(doc.get("submissions", 1))
        record.runs = int(doc.get("runs", 0))
        record.created_s = float(doc.get("created_s", time.time()))
        record.started_s = doc.get("started_s")
        record.finished_s = doc.get("finished_s")
        record.error = doc.get("error")
        record.message = str(doc.get("message", ""))
        record.degraded_reason = str(doc.get("degraded_reason", ""))
        record.failures = list(doc.get("failures") or [])
        record.metrics = dict(doc.get("metrics") or {})
        return record


def result_key(key: str) -> str:
    """Store key of a job's persisted result document."""
    return config_key("job-result", key)


def trace_key(key: str) -> str:
    """Store key of a job's persisted trace document."""
    return config_key("job-trace", key)
