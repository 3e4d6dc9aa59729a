"""The run session: every piece of run-scoped state in one context value.

A :class:`Session` bundles what a flow run, an experiment table or a
service job runs *under*:

* ``store`` — the checkpoint store (``--resume``, a pool's shared store,
  the service store, DSE's ephemeral store), read by the whole-run memos
  of :mod:`repro.experiments.runner` and the stage cache of
  :mod:`repro.flow.stagecache`; ``None`` means in-process only;
* ``comparisons``/``flows``/``failed_tasks`` — the whole-run memos and
  the record of tasks that failed in a parallel warm phase;
* ``keep_going`` and ``errors`` — the row-degradation policy and its
  error sink;
* ``tracer``/``metrics``/``profiler`` — the observability layers
  (``None`` when off; a disabled one is stored as ``None`` too, so the
  hot paths test one attribute);
* ``supervisor`` — the stage supervisor (``None``: the process default);
* ``faults`` — the fault-injection plan (``None``: no faults);
* ``collectors`` — the open :func:`repro.check.audit.capture_artifacts`
  buckets.

The session lives in one :class:`contextvars.ContextVar`.  Code reads it
with :func:`current` and changes it only for a scope, with
``with scope(**changes):`` — on exit, by any exception, the previous
session is back.  A new thread starts in the root session unless it is
started under :func:`contextvars.copy_context`.  The dict and list
fields are shared by the scopes derived from a session, so a scope that
changes only the store still fills the outer session's memos; pass
fresh ones (``flows={}``) to isolate them.

This module imports nothing from :mod:`repro.obs` or
:mod:`repro.runtime`; they import it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:                                      # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import Profiler
    from repro.obs.trace import Tracer
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.faults import FaultPlan
    from repro.runtime.supervisor import StageSupervisor


@dataclass(frozen=True, eq=False)
class Session:
    """Run-scoped state (see the module docstring for each field)."""

    store: Optional["CheckpointStore"] = None
    comparisons: Dict[str, object] = field(default_factory=dict)
    flows: Dict[str, object] = field(default_factory=dict)
    failed_tasks: Dict[str, tuple] = field(default_factory=dict)
    keep_going: bool = False
    errors: List[object] = field(default_factory=list)
    tracer: Optional["Tracer"] = None
    metrics: Optional["MetricsRegistry"] = None
    profiler: Optional["Profiler"] = None
    supervisor: Optional["StageSupervisor"] = None
    faults: Optional["FaultPlan"] = None
    collectors: Tuple[list, ...] = ()

    def __post_init__(self) -> None:
        for name in ("tracer", "metrics", "profiler"):
            layer = getattr(self, name)
            if layer is not None and not layer.enabled:
                object.__setattr__(self, name, None)


_SESSION: ContextVar[Session] = ContextVar("repro.session",
                                           default=Session())

#: The session in effect in this context.
current = _SESSION.get


@contextmanager
def scope(base: Optional[Session] = None,
          **changes: object) -> Iterator[Session]:
    """Run the block under ``base`` (default: the current session) with
    ``changes`` applied; the previous session is restored on exit."""
    session = replace(current() if base is None else base, **changes)
    token = _SESSION.set(session)
    try:
        yield session
    finally:
        _SESSION.reset(token)


def bind(session: Session) -> None:
    """Make ``session`` current for the rest of this context — for a
    pool worker's initializer, whose context ends with the process."""
    _SESSION.set(session)
