"""Repro-as-a-service: a JSON job API over the experiment runtime.

The service turns the repo's library surface — flow runs, paper
experiments, DSE sweeps, audits, goldens diffs — into server-side
*jobs* keyed by the canonical config hash, executed by a coordinator
(each job under its own run session, :mod:`repro.session`; inline or
on worker processes by its ``jobs``), and cached through the same
checkpoint store the CLI uses.  See :mod:`repro.service.app` for the
endpoint table and :mod:`repro.service.jobs` for the job model.
"""

from repro.service.app import (        # noqa: F401
    MAX_BODY_BYTES,
    ReproService,
    ServiceConfig,
)
from repro.service.client import (     # noqa: F401
    ServiceClient,
)
from repro.service.coordinator import (  # noqa: F401
    Coordinator,
)
from repro.service.jobs import (       # noqa: F401
    FINISHED_STATES,
    JOB_KINDS,
    JOB_STATES,
    KIND_AUDIT,
    KIND_DSE,
    KIND_EXPERIMENT,
    KIND_FLOW,
    KIND_GOLDENS,
    LIVE_STATES,
    STATE_DEGRADED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    JobRecord,
    job_key,
    normalize,
    result_key,
    trace_key,
)
from repro.service.queue import (      # noqa: F401
    JobQueue,
)
