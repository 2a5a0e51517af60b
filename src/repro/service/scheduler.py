"""The asyncio job scheduler: dedup, worker pool, shard work-stealing.

One event loop owns the queue.  Submissions land (from any thread --
the HTTP handlers run in their own) under a lock; the loop fills free
worker slots from a shared runnable deque and supervises each launched
worker with an asyncio task.  Three properties do the scaling work:

* **Dedup.**  Submissions are keyed by their run fingerprint.  An
  identical spec already in flight coalesces (one execution, every
  follower adopts its outcome); a fingerprint already DONE in the store
  is served without running at all.  Either way the Nth identical
  submission costs O(manifest write), which is what makes "millions of
  users" mostly a cache problem.
* **Shards + work-stealing.**  A spec with ``shard_segments`` runs as a
  sequence of governed slices: each dispatch explores at most that many
  segments, checkpoints, and re-enqueues at the *front* of the runnable
  deque as a pending frontier shard.  Any idle worker steals the next
  shard -- a long run no longer pins one worker, it time-shares the
  pool with everything else in the queue.
* **Supervision.**  Workers run the whole PR 1/PR 5 stack: a per-job
  :class:`~repro.resilience.governor.RunGovernor` turns SIGTERM and
  budget trips into checkpointed PARTIALs (the worker exits cleanly
  with a verdict manifest), and a worker that dies without a verdict is
  retried with ``resume=True`` against its own checkpoint before the
  job is declared PARTIAL (resumable) or FAILED.

Workers communicate results through the store, not pipes: each attempt
writes an atomic ``jobresult-<id>`` manifest stamped with its attempt
number.  A SIGKILL at any instant leaves either a complete verdict or
none -- never a torn one -- and the attempt stamp stops a retry from
trusting a stale verdict.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import shutil
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional

from ..store import ContentStore, StoreError
from .jobs import (Job, JobSpec, JobStore, TERMINAL_STATES, UnknownJob)


class QuotaExceeded(RuntimeError):
    """A submitter is over their queued-jobs quota."""


@dataclass
class SchedulerConfig:
    """Operational knobs for one :class:`Scheduler`."""

    #: worker processes running jobs concurrently
    workers: int = 2
    #: event-loop poll period, seconds
    poll_interval: float = 0.05
    #: re-dispatches allowed after a worker dies without a verdict
    max_retries: int = 1
    #: default ``shard_segments`` applied to specs that set none
    shard_segments: Optional[int] = None
    #: max QUEUED+RUNNING jobs per submitter (None = unlimited)
    quota_jobs: Optional[int] = None
    #: multiprocessing start method (spawn: no inherited state)
    mp_context: str = "spawn"
    #: per-job detail rows kept for the /metrics endpoint
    metrics_jobs_kept: int = 50


def _execute_job(store_root: str, job_id: str, spec_dict: Dict,
                 resume: bool, attempt: int,
                 shard_segments: Optional[int]) -> None:
    """Worker-process entry point: run one job (or one shard of it).

    Runs the full ``run_one`` stack -- segment cache against the shared
    store, checkpoint journal and JSONL trace in the job directory, a
    governor that turns SIGTERM/budget trips into checkpointed
    PARTIALs -- then writes one atomic ``jobresult-<id>`` verdict
    manifest.  Exceptions become FAILED verdicts; only a hard kill
    leaves no verdict at all (the scheduler treats that as a lost
    worker).
    """
    import pickle

    from ..coanalysis.trace import JsonlTraceSink
    from ..csm import CSM_STRATEGIES
    from ..reporting.runner import run_one
    from ..resilience.checkpoint import load_checkpoint
    from ..resilience.governor import RunBudget, RunGovernor

    spec = JobSpec.from_dict(spec_dict)
    store = ContentStore(Path(store_root))
    job_store = JobStore(store)
    job_dir = job_store.job_dir(job_id)
    job_dir.mkdir(parents=True, exist_ok=True)
    ckpt = job_store.checkpoint_path(job_id)
    trace_path = job_store.trace_path(job_id)

    budget = spec.budget()
    if shard_segments:
        # a shard's segment cap is *relative* to what the journal
        # already holds, so shard N+1 actually advances the frontier
        base = 0
        if resume:
            try:
                from ..resilience.checkpoint import decode_run_payload
                payload = load_checkpoint(ckpt)
                if payload is not None:
                    base = len(decode_run_payload(payload)["path_records"])
            except Exception:
                base = 0
        cap = base + shard_segments
        if budget is not None and budget.max_segments is not None:
            cap = min(cap, budget.max_segments)
        budget = RunBudget(
            deadline_seconds=getattr(budget, "deadline_seconds", None),
            max_rss_mb=getattr(budget, "max_rss_mb", None),
            max_frontier=getattr(budget, "max_frontier", None),
            max_segments=cap)
    # always govern service work: even an unlimited job must turn
    # SIGTERM into a checkpointed PARTIAL, not a dead worker
    governor = RunGovernor(budget or RunBudget())

    verdict: Dict[str, object] = {"kind": "jobresult", "job": job_id,
                                  "attempt": attempt}
    sink = JsonlTraceSink(trace_path, mode="a" if resume else "w")
    try:
        result = run_one(spec.design, spec.benchmark,
                         strategy=CSM_STRATEGIES[spec.csm](),
                         use_constraints=spec.use_constraints,
                         checkpoint=str(ckpt), resume=resume,
                         frontier=spec.frontier,
                         engine=spec.engine, trace=sink,
                         budget=governor, cache=store)
    except Exception as exc:          # noqa: BLE001 -- verdict, not crash
        verdict.update(state="FAILED",
                       error=f"{type(exc).__name__}: {exc}")
    else:
        summary = result.summary()
        metrics = result.metrics.summary() if result.metrics else {}
        artifacts: Dict[str, str] = {}
        for label, path in (("checkpoint", ckpt), ("trace", trace_path)):
            try:
                if path.is_file():
                    artifacts[label] = store.put_bytes(path.read_bytes())
            except OSError:
                continue
        verdict.update(
            state="DONE" if result.complete else "PARTIAL",
            summary=summary, metrics=metrics,
            stop_reason=getattr(result, "stop_reason", None),
            stop_detail=getattr(result, "stop_detail", ""),
            pending_paths=getattr(result, "pending_paths", 0),
            result=store.put_bytes(pickle.dumps(
                result, protocol=pickle.HIGHEST_PROTOCOL)),
            artifacts=artifacts)
    store.put_manifest(f"jobresult-{job_id}", verdict)


@dataclass
class _Running:
    """Book-keeping for one launched worker."""

    proc: multiprocessing.process.BaseProcess
    attempt: int
    cancel_requested: bool = False
    started: float = field(default_factory=time.monotonic)


class Scheduler:
    """Owns the queue, the worker pool, and every job's lifecycle.

    Thread-safe: ``submit``/``cancel``/``get``/``metrics`` may be
    called from any thread (the HTTP handlers do); the asyncio loop
    runs in a background thread started by :meth:`start`.
    """

    def __init__(self, store, config: Optional[SchedulerConfig] = None):
        self.store = store if isinstance(store, ContentStore) \
            else ContentStore(Path(store))
        self.job_store = JobStore(self.store)
        self.config = config or SchedulerConfig()
        self._ctx = multiprocessing.get_context(self.config.mp_context)
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._runnable: Deque[str] = deque()
        self._running: Dict[str, _Running] = {}
        #: in-flight primary by dedup key (fingerprint + budget shape)
        self._inflight: Dict[tuple, str] = {}
        #: coalesced followers by primary job id
        self._followers: Dict[str, List[str]] = {}
        #: DONE job by fingerprint digest (store-served dedup)
        self._done_by_fp: Dict[str, str] = {}
        #: fingerprint digests memoized by spec shape (computing one
        #: builds the whole target netlist)
        self._fp_cache: Dict[tuple, str] = {}
        self.counters = {"submitted": 0, "executed": 0, "coalesced": 0,
                         "cache_served": 0, "retries": 0, "shards": 0,
                         "segment_cache_hits": 0,
                         "segment_cache_misses": 0}
        self._stop_requested = False
        self._graceful = True
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    # -- submission ----------------------------------------------------------
    def submit(self, spec) -> Job:
        """Queue (or dedup) one submission; returns its :class:`Job`.

        Raises :class:`~repro.service.jobs.JobSpecError` on a bad spec,
        :class:`QuotaExceeded` over quota, :class:`UnknownJob` for a
        ``resume_from`` that does not exist.
        """
        if not isinstance(spec, JobSpec):
            spec = JobSpec.from_dict(spec)
        resume_source: Optional[Job] = None
        if spec.resume_from:
            resume_source = self.get(spec.resume_from)
            if resume_source.state not in ("PARTIAL", "FAILED"):
                raise UnknownJob(
                    f"job {spec.resume_from} is {resume_source.state}, "
                    f"not resumable (PARTIAL/FAILED)")
            # the continuation runs the source's configuration; only
            # service routing fields come from the new submission
            spec = JobSpec.from_dict({
                **resume_source.spec.to_dict(),
                "submitter": spec.submitter,
                "dedup": False,
                "resume_from": spec.resume_from})
        with self._lock:
            self._check_quota(spec.submitter)
            fingerprint = self._fingerprint(spec)
            job = Job.new(spec, fingerprint)
            self.counters["submitted"] += 1
            if resume_source is not None:
                self._prime_resume(job, resume_source)
            elif spec.dedup:
                primary_id = self._inflight.get(spec.dedup_key())
                if primary_id is not None and \
                        not self._jobs[primary_id].terminal:
                    job.coalesced_into = primary_id
                    self._followers.setdefault(primary_id,
                                               []).append(job.job_id)
                    self.counters["coalesced"] += 1
                    self._jobs[job.job_id] = job
                    self.job_store.save(job)
                    return job
                done = self._find_done(fingerprint)
                if done is not None:
                    self._serve_from_store(job, done)
                    self._jobs[job.job_id] = job
                    self.job_store.save(job)
                    return job
            self._jobs[job.job_id] = job
            self._runnable.append(job.job_id)
            if spec.dedup:
                self._inflight[spec.dedup_key()] = job.job_id
            self.job_store.save(job)
            return job

    def _check_quota(self, submitter: str) -> None:
        quota = self.config.quota_jobs
        if quota is None:
            return
        active = sum(1 for job in self._jobs.values()
                     if job.spec.submitter == submitter
                     and not job.terminal)
        if active >= quota:
            raise QuotaExceeded(
                f"submitter {submitter!r} already has {active} active "
                f"job(s); quota is {quota}")

    def _fingerprint(self, spec: JobSpec) -> str:
        key = spec.fingerprint_key()
        digest = self._fp_cache.get(key)
        if digest is None:
            digest = spec.compute_fingerprint()
            self._fp_cache[key] = digest
        return digest

    def _find_done(self, fingerprint: str) -> Optional[Job]:
        job_id = self._done_by_fp.get(fingerprint)
        if job_id is None:
            return None
        job = self._jobs.get(job_id)
        if job is None:
            try:
                job = self.job_store.load(job_id)
            except UnknownJob:
                del self._done_by_fp[fingerprint]
                return None
        if job.state != "DONE" or not job.result_digest or \
                not self.store.has(job.result_digest):
            # gc'd or corrupted result: forget it and run fresh
            self._done_by_fp.pop(fingerprint, None)
            return None
        return job

    def _serve_from_store(self, job: Job, done: Job) -> None:
        """Complete ``job`` immediately from ``done``'s stored result."""
        job.cache_hit = True
        job.coalesced_into = done.job_id
        job.summary = dict(done.summary)
        job.metrics = dict(done.metrics)
        job.result_digest = done.result_digest
        job.artifacts = dict(done.artifacts)
        job.advance("DONE")
        self.counters["cache_served"] += 1

    def _prime_resume(self, job: Job, source: Job) -> None:
        """Seed a resume job's directory from its source's checkpoint."""
        src_ckpt = self.job_store.checkpoint_path(source.job_id)
        job_dir = self.job_store.job_dir(job.job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        if src_ckpt.is_file():
            shutil.copyfile(src_ckpt,
                            self.job_store.checkpoint_path(job.job_id))
        elif source.artifacts.get("checkpoint"):
            try:
                blob = self.store.get_bytes(source.artifacts["checkpoint"])
                self.job_store.checkpoint_path(job.job_id).write_bytes(blob)
            except StoreError:
                pass                  # no checkpoint: run from scratch
        src_trace = self.job_store.trace_path(source.job_id)
        if src_trace.is_file():
            shutil.copyfile(src_trace, self.job_store.trace_path(job.job_id))
        job.resume_next = self.job_store.checkpoint_path(
            job.job_id).is_file()
        job.resume_of = source.job_id

    # -- queries -------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None:
            return job
        return self.job_store.load(job_id)

    def list_jobs(self) -> List[Job]:
        with self._lock:
            known = dict(self._jobs)
        for job in self.job_store.list_jobs():
            known.setdefault(job.job_id, job)
        return sorted(known.values(), key=lambda j: j.created)

    def wait(self, job_id: str, timeout: Optional[float] = None,
             poll: float = 0.05) -> Job:
        """Block until ``job_id`` reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.get(job_id)
            if job.terminal:
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job.state} after {timeout}s")
            time.sleep(poll)

    def metrics(self) -> Dict:
        """The /metrics payload: queue, utilization, dedup, cache."""
        with self._lock:
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            hits = self.counters["segment_cache_hits"]
            misses = self.counters["segment_cache_misses"]
            submitted = self.counters["submitted"]
            dedup_hits = (self.counters["coalesced"]
                          + self.counters["cache_served"])
            per_job: Dict[str, Dict] = {}
            recent = sorted(self._jobs.values(), key=lambda j: j.created,
                            reverse=True)[:self.config.metrics_jobs_kept]
            for job in recent:
                per_job[job.job_id] = {
                    "state": job.state,
                    "segments": job.metrics.get("paths_explored", 0),
                    "simulated_cycles":
                        job.metrics.get("simulated_cycles", 0),
                    "cache_hits": job.metrics.get("cache_hits", 0),
                    "cache_misses": job.metrics.get("cache_misses", 0),
                }
            return {
                "queue_depth": len(self._runnable),
                "running": len(self._running),
                "workers": self.config.workers,
                "worker_utilization": (len(self._running)
                                       / max(1, self.config.workers)),
                "jobs_by_state": by_state,
                "counters": dict(self.counters),
                "dedup_hit_ratio": (dedup_hits / submitted
                                    if submitted else 0.0),
                "segment_cache": {
                    "hits": hits, "misses": misses,
                    "hit_ratio": (hits / (hits + misses)
                                  if hits + misses else 0.0)},
                "per_job": per_job,
            }

    # -- cancellation --------------------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job, or SIGTERM a running one (its governor
        checkpoints and the job ends CANCELLED, frontier intact)."""
        with self._lock:
            job = self.get(job_id)
            self._jobs.setdefault(job.job_id, job)
            if job.terminal:
                return job
            running = self._running.get(job_id)
            if running is not None:
                running.cancel_requested = True
                try:
                    running.proc.terminate()        # SIGTERM, not SIGKILL
                except (OSError, ValueError):
                    pass
                return job
            # queued (or a coalesced follower): settle it immediately
            try:
                self._runnable.remove(job_id)
            except ValueError:
                pass
            if job.coalesced_into:
                followers = self._followers.get(job.coalesced_into, [])
                if job_id in followers:
                    followers.remove(job_id)
            self._release_inflight(job)
            job.advance("CANCELLED")
            self.job_store.save(job)
            return job

    # -- the event loop ------------------------------------------------------
    def start(self) -> "Scheduler":
        """Recover persisted queue state and start the loop thread."""
        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        self.recover()
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-scheduler",
                                        daemon=True)
        self._thread.start()
        self._started.wait(5.0)
        return self

    def stop(self, graceful: bool = True,
             timeout: Optional[float] = 30.0) -> None:
        """Stop dispatching and wind the pool down.

        ``graceful`` SIGTERMs running workers so each checkpoints and
        ends PARTIAL (resumable); otherwise they are killed and their
        jobs settle from whatever checkpoint survives.
        """
        with self._lock:
            self._stop_requested = True
            self._graceful = graceful
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "Scheduler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def recover(self) -> None:
        """Rebuild queue state from the store after a restart."""
        with self._lock:
            for job in self.job_store.list_jobs():
                if job.job_id in self._jobs:
                    continue
                if job.state == "DONE" and job.result_digest:
                    self._done_by_fp.setdefault(job.fingerprint,
                                                job.job_id)
                elif job.state == "QUEUED" and not job.coalesced_into:
                    self._jobs[job.job_id] = job
                    self._runnable.append(job.job_id)
                    if job.spec.dedup:
                        self._inflight.setdefault(job.spec.dedup_key(),
                                                  job.job_id)
                elif job.state == "RUNNING":
                    # orphaned by a dead service: settle it now
                    self._jobs[job.job_id] = job
                    if self.job_store.checkpoint_path(
                            job.job_id).is_file():
                        job.stop_reason = "service_restart"
                        job.stop_detail = ("service restarted while the "
                                           "job was running")
                        job.advance("PARTIAL")
                    else:
                        job.error = "service restarted mid-run, " \
                                    "no checkpoint to resume"
                        job.advance("FAILED")
                    self.job_store.save(job)

    def _run_loop(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._started.set()
        signaled = False
        while True:
            with self._lock:
                stopping = self._stop_requested
                if not stopping:
                    self._fill_slots()
                running = list(self._running.items())
            if stopping and not signaled:
                signaled = True
                for _, entry in running:
                    try:
                        if self._graceful:
                            entry.proc.terminate()
                        else:
                            entry.proc.kill()
                    except (OSError, ValueError):
                        pass
            finished = [(job_id, entry) for job_id, entry in running
                        if not entry.proc.is_alive()]
            for job_id, entry in finished:
                entry.proc.join()
                self._finish(job_id, entry)
            with self._lock:
                if self._stop_requested and not self._running:
                    return
            await asyncio.sleep(self.config.poll_interval)

    def _fill_slots(self) -> None:
        while len(self._running) < self.config.workers and self._runnable:
            job_id = self._runnable.popleft()
            job = self._jobs.get(job_id)
            if job is None or job.state != "QUEUED":
                continue
            self._dispatch(job)

    def _dispatch(self, job: Job) -> None:
        job.attempts += 1
        shard = job.spec.shard_segments or self.config.shard_segments
        proc = self._ctx.Process(
            target=_execute_job,
            args=(str(self.store.root), job.job_id, job.spec.to_dict(),
                  job.resume_next, job.attempts, shard),
            name=f"repro-job-{job.job_id}", daemon=False)
        proc.start()
        self._running[job.job_id] = _Running(proc=proc,
                                             attempt=job.attempts)
        self.counters["executed"] += 1
        job.advance("RUNNING")
        self.job_store.save(job)

    # -- completion ----------------------------------------------------------
    def _finish(self, job_id: str, entry: _Running) -> None:
        with self._lock:
            job = self._jobs[job_id]
            verdict = self._load_verdict(job_id, entry.attempt)
            if verdict is None:
                self._finish_lost_worker(job, entry)
            else:
                self._finish_with_verdict(job, entry, verdict)
            del self._running[job_id]
            if job.terminal:
                self._settle(job)
            self.job_store.save(job)

    def _load_verdict(self, job_id: str,
                      attempt: int) -> Optional[Dict]:
        try:
            verdict = self.store.get_manifest(f"jobresult-{job_id}")
        except StoreError:
            return None
        if not verdict or verdict.get("attempt") != attempt:
            return None               # stale verdict from a prior attempt
        return verdict

    def _finish_with_verdict(self, job: Job, entry: _Running,
                             verdict: Dict) -> None:
        job.summary = dict(verdict.get("summary") or {})
        job.metrics = dict(verdict.get("metrics") or {})
        job.error = str(verdict.get("error", ""))
        job.stop_reason = verdict.get("stop_reason")
        job.stop_detail = str(verdict.get("stop_detail", ""))
        job.pending_paths = int(verdict.get("pending_paths", 0))
        job.result_digest = verdict.get("result")
        job.artifacts = dict(verdict.get("artifacts") or {})
        self.counters["segment_cache_hits"] += \
            job.metrics.get("cache_hits", 0)
        self.counters["segment_cache_misses"] += \
            job.metrics.get("cache_misses", 0)
        state = str(verdict.get("state", "FAILED"))
        if entry.cancel_requested and state != "DONE":
            # the governor turned our SIGTERM into a checkpointed stop;
            # surface it as the cancellation it was
            job.advance("CANCELLED")
            return
        if state == "PARTIAL" and job.stop_reason == "segments" \
                and not entry.cancel_requested \
                and self._shard_should_continue(job):
            # one frontier shard done: back on the deque, at the front,
            # so idle workers steal pending shards before new jobs
            job.shards += 1
            job.resume_next = True
            self.counters["shards"] += 1
            job.advance("QUEUED")
            self._runnable.appendleft(job.job_id)
            return
        job.advance(state)

    def _shard_should_continue(self, job: Job) -> bool:
        shard = job.spec.shard_segments or self.config.shard_segments
        if not shard:
            return False
        explored = job.metrics.get("paths_explored", 0)
        cap = job.spec.max_segments
        return cap is None or explored < cap

    def _finish_lost_worker(self, job: Job, entry: _Running) -> None:
        """No verdict: the worker was killed outright."""
        exitcode = entry.proc.exitcode
        has_ckpt = self.job_store.checkpoint_path(job.job_id).is_file()
        if entry.cancel_requested:
            job.advance("CANCELLED")
            job.error = f"worker terminated before checkpointing " \
                        f"(exit {exitcode})"
            return
        if job.retries < self.config.max_retries:
            job.retries += 1
            job.resume_next = has_ckpt
            self.counters["retries"] += 1
            job.advance("QUEUED")
            self._runnable.appendleft(job.job_id)
            return
        if has_ckpt:
            job.stop_reason = "worker_lost"
            job.stop_detail = (f"worker died (exit {exitcode}) after "
                              f"{job.retries} retries; checkpoint intact")
            job.pending_paths = self._pending_from_checkpoint(job)
            job.advance("PARTIAL")
        else:
            job.error = f"worker died (exit {exitcode}) with no " \
                        f"checkpoint to resume"
            job.advance("FAILED")

    def _pending_from_checkpoint(self, job: Job) -> int:
        try:
            from ..resilience.checkpoint import (decode_run_payload,
                                                 load_checkpoint)
            payload = load_checkpoint(
                self.job_store.checkpoint_path(job.job_id))
            if payload is None:
                return 0
            return len(decode_run_payload(payload)["frontier"])
        except Exception:
            return 0

    def _settle(self, job: Job) -> None:
        """Terminal housekeeping: release dedup slots, pay followers."""
        self._release_inflight(job)
        if job.state == "DONE" and job.result_digest:
            self._done_by_fp[job.fingerprint] = job.job_id
        for follower_id in self._followers.pop(job.job_id, []):
            follower = self._jobs.get(follower_id)
            if follower is None or follower.terminal:
                continue
            follower.summary = dict(job.summary)
            follower.metrics = dict(job.metrics)
            follower.error = job.error
            follower.stop_reason = job.stop_reason
            follower.stop_detail = job.stop_detail
            follower.pending_paths = job.pending_paths
            follower.result_digest = job.result_digest
            follower.artifacts = dict(job.artifacts)
            follower.advance(job.state)
            self.job_store.save(follower)

    def _release_inflight(self, job: Job) -> None:
        key = job.spec.dedup_key()
        if self._inflight.get(key) == job.job_id:
            del self._inflight[key]
