"""The job model: specs, the state machine, and persistence.

A *job* is one requested co-analysis run.  Its :class:`JobSpec` is the
user-facing configuration (what to run, under which budgets);
the spec's run-affecting subset maps onto a
:func:`~repro.store.fingerprint.run_fingerprint` digest, which is what
the scheduler dedupes on -- two specs with equal fingerprints request
the same simulation and are interchangeable.

Every job is persisted as a ``job-<id>`` JSON manifest in the
:class:`~repro.store.content.ContentStore` on every state transition
(atomic writes), so the queue survives a service restart: QUEUED jobs
re-enqueue, orphaned RUNNING jobs become resumable PARTIALs, and DONE
jobs keep serving duplicate submissions from the store.

State machine::

    QUEUED --> RUNNING --> DONE | FAILED | CANCELLED | PARTIAL
       |          |
       |          +--> QUEUED      (retry after a lost worker)
       +--> CANCELLED | DONE | FAILED | PARTIAL
                                   (cancel while queued; coalesced
                                    followers adopt their primary's
                                    terminal state without running)

DONE / FAILED / CANCELLED / PARTIAL are terminal.  A PARTIAL job is
resumable: ``repro submit --resume <id>`` creates a *new* job that
continues from its checkpoint artifact.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional

from ..coanalysis.engine import ENGINES
from ..coanalysis.frontier import FRONTIER_STRATEGIES
from ..csm import CSM_STRATEGIES
from ..resilience.governor import RunBudget
from ..store import ContentStore, StoreError

#: designs the processors package can build (mirrors the CLI choices)
DESIGNS = ("omsp430", "bm32", "dr5")

JOB_STATES = ("QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED", "PARTIAL")
TERMINAL_STATES = frozenset({"DONE", "FAILED", "CANCELLED", "PARTIAL"})

#: legal state transitions (see the module docstring's diagram)
_TRANSITIONS = {
    "QUEUED": {"RUNNING", "CANCELLED", "DONE", "FAILED", "PARTIAL"},
    "RUNNING": {"DONE", "FAILED", "CANCELLED", "PARTIAL", "QUEUED"},
    "DONE": set(),
    "FAILED": set(),
    "CANCELLED": set(),
    "PARTIAL": set(),
}


class JobSpecError(ValueError):
    """A submitted spec does not describe a runnable job."""


class JobStateError(RuntimeError):
    """An illegal state transition was attempted."""


class UnknownJob(KeyError):
    """No job with that id exists (in memory or in the store)."""

    def __str__(self) -> str:        # KeyError quotes its arg by default
        return str(self.args[0]) if self.args else "unknown job"


@dataclass(frozen=True)
class JobSpec:
    """One requested co-analysis run, as submitted.

    The run-shaped fields (design .. ``use_constraints``) feed the run
    fingerprint; the budget fields govern the execution without changing
    what is computed; ``submitter``/``dedup``/``resume_from`` are
    service-level routing.
    """

    design: str
    benchmark: str
    csm: str = "uber"
    engine: str = "serial"
    frontier: str = "dfs"
    use_constraints: bool = True
    # -- per-job RunBudget limits ------------------------------------------
    deadline_seconds: Optional[float] = None
    max_rss_mb: Optional[float] = None
    max_frontier: Optional[int] = None
    max_segments: Optional[int] = None
    # -- service routing ----------------------------------------------------
    #: free-form label of who submitted the job (recorded, not enforced)
    submitter: str = "anon"
    dedup: bool = True
    #: id of a PARTIAL job whose checkpoint this submission continues
    resume_from: Optional[str] = None

    # -- validation / construction -----------------------------------------
    @classmethod
    def from_dict(cls, raw: Dict) -> "JobSpec":
        if not isinstance(raw, dict):
            raise JobSpecError(f"spec must be a JSON object, "
                               f"not {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise JobSpecError(f"unknown spec field(s): "
                               f"{', '.join(unknown)}")
        missing = sorted(name for name in ("design", "benchmark")
                         if not raw.get(name))
        if missing:
            raise JobSpecError(f"missing required spec field(s): "
                               f"{', '.join(missing)}")
        data = dict(raw)
        # resolve run_one's engine default here so equal submissions
        # fingerprint equally no matter how they spelled the default
        if data.get("engine") in (None, ""):
            data["engine"] = "serial"
        spec = cls(**data)
        spec.validate()
        return spec

    def validate(self) -> None:
        from ..workloads import WORKLOAD_ORDER
        if self.design not in DESIGNS:
            raise JobSpecError(f"unknown design {self.design!r}; "
                               f"known: {', '.join(DESIGNS)}")
        if self.benchmark not in WORKLOAD_ORDER:
            raise JobSpecError(f"unknown benchmark {self.benchmark!r}; "
                               f"known: {', '.join(WORKLOAD_ORDER)}")
        if self.csm not in CSM_STRATEGIES:
            raise JobSpecError(f"unknown csm strategy {self.csm!r}")
        if self.engine not in ENGINES:
            raise JobSpecError(f"unknown engine {self.engine!r}")
        if self.frontier not in FRONTIER_STRATEGIES:
            raise JobSpecError(f"unknown frontier {self.frontier!r}")
        for name in ("deadline_seconds", "max_rss_mb", "max_frontier",
                     "max_segments"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise JobSpecError(f"{name} must be positive, "
                                   f"got {value}")

    def to_dict(self) -> Dict:
        return asdict(self)

    # -- derived views -------------------------------------------------------
    def budget(self) -> Optional[RunBudget]:
        """The spec's declarative :class:`RunBudget` (None = unlimited)."""
        budget = RunBudget(deadline_seconds=self.deadline_seconds,
                           max_rss_mb=self.max_rss_mb,
                           max_frontier=self.max_frontier,
                           max_segments=self.max_segments)
        return None if budget.unlimited else budget

    def fingerprint_key(self) -> tuple:
        """The spec fields the run fingerprint depends on (cache key for
        the fingerprint itself -- computing one builds the target)."""
        return (self.design, self.benchmark, self.csm, self.engine,
                self.frontier, self.use_constraints)

    def dedup_key(self) -> tuple:
        """What in-flight coalescing requires to match: the run
        fingerprint inputs *plus* the budget envelope -- a
        deadline-capped submission must not adopt an uncapped run's
        slot, nor vice versa."""
        return self.fingerprint_key() + (
            self.deadline_seconds, self.max_rss_mb, self.max_frontier,
            self.max_segments)

    def compute_fingerprint(self) -> str:
        """The run-fingerprint digest this spec maps to (builds the
        target; cache by :meth:`fingerprint_key` where it matters)."""
        from ..reporting.runner import pair_fingerprint
        return pair_fingerprint(
            self.design, self.benchmark,
            strategy=CSM_STRATEGIES[self.csm](),
            use_constraints=self.use_constraints,
            engine=self.engine, frontier=self.frontier).digest


def _strip_retired_fields(raw: Dict) -> Dict:
    """Drop spec fields of removed options where the stored value is
    what every run does today.

    Manifests stored while specs had a worker-pool size carry
    ``"workers": 1`` (a single-process run); those stored while specs
    had a lane width carry ``"lanes": null``, or ``64`` on the batch
    engine (its one plane word).  Any other value named a removed
    configuration and stays an unknown field, so the manifest is
    skipped as foreign.  ``shard_segments`` goes whatever its value:
    it only sliced a run into dispatches, never changed its answer.
    """
    lanes = (None, 64) if raw.get("engine") == "batch" else (None,)
    return {k: v for k, v in raw.items()
            if not ((k == "workers" and v == 1)
                    or (k == "lanes" and v in lanes)
                    or k == "shard_segments")}


@dataclass
class Job:
    """One submission's lifecycle record (persisted on every change)."""

    job_id: str
    spec: JobSpec
    fingerprint: str
    state: str = "QUEUED"
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    #: worker launches (first dispatch + retries)
    attempts: int = 0
    #: launches lost to a dead worker (bounded by the retry budget)
    retries: int = 0
    #: the next dispatch resumes this job's checkpoint journal
    resume_next: bool = False
    #: primary job this (duplicate) submission coalesced onto
    coalesced_into: Optional[str] = None
    #: True when the result was served from the store without running
    cache_hit: bool = False
    #: PARTIAL job whose checkpoint this job continues
    resume_of: Optional[str] = None
    error: str = ""
    stop_reason: Optional[str] = None
    stop_detail: str = ""
    pending_paths: int = 0
    summary: Dict = field(default_factory=dict)
    metrics: Dict = field(default_factory=dict)
    #: blob digest of the pickled CoAnalysisResult
    result_digest: Optional[str] = None
    #: blob digests of the run's on-disk artifacts (checkpoint, trace)
    artifacts: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def new(cls, spec: JobSpec, fingerprint: str) -> "Job":
        return cls(job_id=uuid.uuid4().hex[:12], spec=spec,
                   fingerprint=fingerprint, created=time.time())

    # -- state machine -------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def advance(self, state: str) -> None:
        if state not in JOB_STATES:
            raise JobStateError(f"unknown job state {state!r}")
        if state not in _TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.job_id}: illegal transition "
                f"{self.state} -> {state}")
        self.state = state
        now = time.time()
        if state == "RUNNING" and self.started is None:
            self.started = now
        if state in TERMINAL_STATES:
            self.finished = now

    # -- persistence ---------------------------------------------------------
    def to_manifest(self) -> Dict:
        out = {
            "kind": "job",
            "job": self.job_id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "fingerprint": self.fingerprint,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "attempts": self.attempts,
            "retries": self.retries,
            "resume_next": self.resume_next,
            "coalesced_into": self.coalesced_into,
            "cache_hit": self.cache_hit,
            "resume_of": self.resume_of,
            "error": self.error,
            "stop_reason": self.stop_reason,
            "stop_detail": self.stop_detail,
            "pending_paths": self.pending_paths,
            "summary": self.summary,
            "metrics": self.metrics,
            "result": self.result_digest,
            "artifacts": dict(self.artifacts),
        }
        return out

    @classmethod
    def from_manifest(cls, manifest: Dict) -> "Job":
        raw = manifest["spec"]
        if isinstance(raw, dict):
            raw = _strip_retired_fields(raw)
        spec = JobSpec.from_dict(raw)
        job = cls(job_id=str(manifest["job"]), spec=spec,
                  fingerprint=str(manifest["fingerprint"]),
                  state=str(manifest.get("state", "QUEUED")),
                  created=float(manifest.get("created") or 0.0))
        job.started = manifest.get("started")
        job.finished = manifest.get("finished")
        job.attempts = int(manifest.get("attempts", 0))
        job.retries = int(manifest.get("retries", 0))
        job.resume_next = bool(manifest.get("resume_next", False))
        job.coalesced_into = manifest.get("coalesced_into")
        job.cache_hit = bool(manifest.get("cache_hit", False))
        job.resume_of = manifest.get("resume_of")
        job.error = str(manifest.get("error", ""))
        job.stop_reason = manifest.get("stop_reason")
        job.stop_detail = str(manifest.get("stop_detail", ""))
        job.pending_paths = int(manifest.get("pending_paths", 0))
        job.summary = dict(manifest.get("summary") or {})
        job.metrics = dict(manifest.get("metrics") or {})
        job.result_digest = manifest.get("result")
        job.artifacts = dict(manifest.get("artifacts") or {})
        return job


class JobStore:
    """Job persistence on a :class:`ContentStore` (manifests + blobs).

    One manifest per job (``job-<id>``), plus a per-job scratch
    directory (``<root>/jobs/<id>/``) holding the live checkpoint
    journal and JSONL trace while the job runs; at completion those are
    also registered as content-addressed blobs so ``gc`` keeps them
    exactly as long as the job manifest lives.
    """

    def __init__(self, store: ContentStore):
        self.store = store

    # -- layout --------------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        return self.store.root / "jobs" / job_id

    def checkpoint_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "checkpoint.journal"

    def trace_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "trace.jsonl"

    # -- manifests -----------------------------------------------------------
    def save(self, job: Job) -> None:
        self.store.put_manifest(f"job-{job.job_id}", job.to_manifest())

    def load(self, job_id: str) -> Job:
        try:
            manifest = self.store.get_manifest(f"job-{job_id}")
        except StoreError:
            manifest = None
        if manifest is None or manifest.get("kind") != "job":
            raise UnknownJob(job_id)
        try:
            return Job.from_manifest(manifest)
        except (KeyError, ValueError):
            # foreign or corrupt, e.g. a spec naming a retired option:
            # not a job this service can run or show
            raise UnknownJob(job_id) from None

    def list_jobs(self) -> List[Job]:
        jobs: List[Job] = []
        for name in self.store.manifest_names():
            if not name.startswith("job-"):
                continue
            try:
                jobs.append(self.load(name[len("job-"):]))
            except UnknownJob:
                continue              # foreign/corrupt manifest: skip
        jobs.sort(key=lambda j: j.created)
        return jobs

    def load_result(self, job: Job):
        """Unpickle a terminal job's CoAnalysisResult (None if absent
        or unreadable)."""
        import pickle
        if not job.result_digest:
            return None
        try:
            return pickle.loads(self.store.get_bytes(job.result_digest))
        except Exception:
            return None
