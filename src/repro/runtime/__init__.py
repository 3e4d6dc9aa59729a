"""Resilient experiment orchestration.

Three cooperating pieces:

* :mod:`repro.runtime.supervisor` — per-stage timeouts, bounded retries
  with backoff, graceful degradation, and a structured run journal for
  every stage of the design flow.
* :mod:`repro.runtime.checkpoint` — persistent, atomically-written,
  checksummed on-disk checkpoints of flow results keyed by a versioned
  canonical hash of the full configuration, so interrupted bench
  sessions resume instead of recomputing.
* :mod:`repro.runtime.faults` — deterministic fault injection at stage
  boundaries (by stage name and occurrence count), used by the tests to
  prove every retry and degradation path actually fires.
"""

from repro.runtime.checkpoint import (            # noqa: F401
    SCHEMA_VERSION,
    CheckpointStore,
    canonical_key,
    config_key,
    default_store_dir,
)
from repro.runtime.faults import FaultPlan, FaultSpec, inject  # noqa: F401
from repro.runtime.supervisor import (            # noqa: F401
    RunJournal,
    StagePolicy,
    StageRecord,
    StageSupervisor,
    current_supervisor,
    use_supervisor,
)
