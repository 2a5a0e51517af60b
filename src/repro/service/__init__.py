"""Co-analysis job service: queued, observable, deduplicated runs.

Clients submit (design, benchmark, CSM, engine) specs; a scheduler
dedupes them and runs each remaining job in its own supervised worker
process, and every outcome -- including partial ones -- is a manifest
in the store that survives restarts.

* :mod:`repro.service.jobs` -- the :class:`JobSpec`/:class:`Job` model
  and its state machine, persisted through :class:`JobStore`;
* :mod:`repro.service.scheduler` -- the :class:`Scheduler`:
  fingerprint dedup (in-flight coalescing + store-served results), one
  spawned worker process per job, retry/resume for dead workers;
* :mod:`repro.service.api` -- the dependency-free HTTP API
  (:class:`ServiceAPI`) and :class:`ServiceClient`, behind
  ``repro serve`` / ``repro submit`` / ``repro jobs``.
"""

from .jobs import (JOB_STATES, TERMINAL_STATES, Job, JobSpec, JobSpecError,
                   JobStateError, JobStore, UnknownJob)
from .scheduler import Scheduler
from .api import DEFAULT_PORT, ServiceAPI, ServiceClient, ServiceError

__all__ = [
    "JOB_STATES", "TERMINAL_STATES", "Job", "JobSpec", "JobSpecError",
    "JobStateError", "JobStore", "UnknownJob",
    "Scheduler",
    "DEFAULT_PORT", "ServiceAPI", "ServiceClient", "ServiceError",
]
