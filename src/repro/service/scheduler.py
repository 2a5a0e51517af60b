"""The job scheduler: dedup, one spawned worker per job, supervision.

One loop thread owns dispatch.  Submissions land (from any thread --
the HTTP handlers run in their own) under a lock; every
:data:`POLL_INTERVAL` the loop fills free worker slots from the
runnable deque, then reaps the workers that have exited.  Each job
runs in its own spawned process.  Two properties do the work:

* **Dedup.**  Submissions are keyed by their run fingerprint.  An
  identical spec already in flight coalesces (one execution, every
  follower adopts its outcome); a fingerprint already DONE in the store
  is served without running at all.  Either way a repeated submission
  costs a manifest write, not a simulation.  The loop computes each
  fingerprint once per distinct spec shape; a worker computes none.
* **Supervision.**  A per-job
  :class:`~repro.resilience.governor.RunGovernor` turns SIGTERM and
  budget trips into checkpointed PARTIALs (the worker exits cleanly
  with a verdict manifest), and a worker that dies without a verdict is
  retried (:data:`MAX_RETRIES`) with ``resume=True`` against its own
  checkpoint before the job is declared PARTIAL (resumable) or FAILED.
  A worker that cannot even start fails its job, not the loop.

Workers communicate results through the store, not pipes: each attempt
writes an atomic ``jobresult-<id>`` manifest stamped with its attempt
number.  A SIGKILL at any instant leaves either a complete verdict or
none -- never a torn one -- and the attempt stamp stops a retry from
trusting a stale verdict.
"""

from __future__ import annotations

import multiprocessing
import shutil
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Deque, Dict, List, Optional

from ..store import ContentStore, StoreError
from .jobs import Job, JobSpec, JobStore, UnknownJob


#: dispatch-loop poll period (also :meth:`Scheduler.wait`'s), seconds
POLL_INTERVAL = 0.05
#: multiprocessing start method (spawn: no inherited state)
MP_CONTEXT = "spawn"
#: per-job detail rows kept for the /metrics endpoint
METRICS_JOBS_KEPT = 50
#: re-dispatches allowed after a worker dies without a verdict
MAX_RETRIES = 1


def _execute_job(store_root: str, job_id: str, spec_dict: Dict,
                 resume: bool, attempt: int) -> None:
    """Worker-process entry point: run one job.

    Runs ``run_one`` with the checkpoint journal and JSONL trace in the
    job directory and a governor that turns SIGTERM/budget trips into
    checkpointed PARTIALs, puts the result, the checkpoint and the
    trace into the store once each, then writes one atomic
    ``jobresult-<id>`` verdict manifest naming them.  Exceptions become
    FAILED verdicts; only a hard kill leaves no verdict at all (the
    scheduler treats that as a lost worker).
    """
    import pickle

    from ..csm import CSM_STRATEGIES
    from ..reporting.runner import run_one
    from ..resilience.governor import RunBudget, RunGovernor

    spec = JobSpec.from_dict(spec_dict)
    store = ContentStore(Path(store_root))
    job_store = JobStore(store)
    job_dir = job_store.job_dir(job_id)
    job_dir.mkdir(parents=True, exist_ok=True)
    ckpt = job_store.checkpoint_path(job_id)
    trace_path = job_store.trace_path(job_id)

    # always govern service work: even an unlimited job must turn
    # SIGTERM into a checkpointed PARTIAL, not a dead worker
    governor = RunGovernor(spec.budget() or RunBudget())

    verdict: Dict[str, object] = {"kind": "jobresult", "job": job_id,
                                  "attempt": attempt}
    try:
        result = run_one(spec.design, spec.benchmark,
                         strategy=CSM_STRATEGIES[spec.csm](),
                         use_constraints=spec.use_constraints,
                         checkpoint=str(ckpt), resume=resume,
                         frontier=spec.frontier,
                         engine=spec.engine, trace=str(trace_path),
                         budget=governor)
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


class Scheduler:
    """Owns the queue, the worker processes, and every job's lifecycle.

    ``workers`` is how many jobs run at once, each in its own process.
    Thread-safe: ``submit``/``cancel``/``get``/``metrics`` may be
    called from any thread (the HTTP handlers do); the dispatch loop
    runs in a background thread started by :meth:`start`.
    """

    def __init__(self, store, workers: int = 2):
        if workers < 1:
            # no slot would ever open: jobs would queue and never run
            raise ValueError(f"workers must be >= 1, not {workers}")
        self.store = store if isinstance(store, ContentStore) \
            else ContentStore(Path(store))
        self.job_store = JobStore(self.store)
        self.workers = workers
        self._ctx = multiprocessing.get_context(MP_CONTEXT)
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
                         "cache_served": 0, "retries": 0}
        self._stop_requested = False
        self._thread: Optional[threading.Thread] = None

    # -- submission ----------------------------------------------------------
    def submit(self, spec) -> Job:
        """Queue (or dedup) one submission; returns its :class:`Job`.

        Raises :class:`~repro.service.jobs.JobSpecError` on a bad spec,
        :class:`UnknownJob` for a ``resume_from`` that does not exist.
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
            # the continuation runs the source's configuration under
            # the new submission's budget and routing fields
            source = resume_source.spec
            spec = replace(spec, design=source.design,
                           benchmark=source.benchmark, csm=source.csm,
                           engine=source.engine, frontier=source.frontier,
                           use_constraints=source.use_constraints,
                           dedup=False)
        with self._lock:
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

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until ``job_id`` reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.get(job_id)
            if job.terminal:
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job.state} after {timeout}s")
            time.sleep(POLL_INTERVAL)

    def metrics(self) -> Dict:
        """The /metrics payload: queue, utilization, dedup."""
        with self._lock:
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            submitted = self.counters["submitted"]
            dedup_hits = (self.counters["coalesced"]
                          + self.counters["cache_served"])
            per_job: Dict[str, Dict] = {}
            recent = sorted(self._jobs.values(), key=lambda j: j.created,
                            reverse=True)[:METRICS_JOBS_KEPT]
            for job in recent:
                per_job[job.job_id] = {
                    "state": job.state,
                    "segments": job.metrics.get("paths_explored", 0),
                    "simulated_cycles":
                        job.metrics.get("simulated_cycles", 0),
                }
            return {
                "queue_depth": len(self._runnable),
                "running": len(self._running),
                "workers": self.workers,
                "worker_utilization": (len(self._running)
                                       / max(1, self.workers)),
                "jobs_by_state": by_state,
                "counters": dict(self.counters),
                "dedup_hit_ratio": (dedup_hits / submitted
                                    if submitted else 0.0),
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
            job.advance("CANCELLED")
            self._settle(job)          # its own duplicates end with it
            self.job_store.save(job)
            return job

    # -- the dispatch loop ---------------------------------------------------
    def start(self) -> "Scheduler":
        """Recover persisted queue state and start the loop thread."""
        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        self.recover()
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-scheduler",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Stop dispatching and drain: every running worker is SIGTERMed,
        checkpoints, and its job ends PARTIAL (resumable)."""
        with self._lock:
            self._stop_requested = True
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
            stored = {job.job_id: job for job in self.job_store.list_jobs()
                      if job.job_id not in self._jobs}
            for job in stored.values():
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
            # coalesced followers last, once their primaries are settled
            # or queued: the follower lists lived only in memory
            for job in stored.values():
                primary = stored.get(job.coalesced_into)
                if job.state != "QUEUED" or primary is None:
                    continue
                self._jobs[job.job_id] = job
                if primary.terminal:
                    self._adopt(job, primary)
                else:
                    self._followers.setdefault(primary.job_id,
                                               []).append(job.job_id)

    def _run_loop(self) -> None:
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
                        entry.proc.terminate()
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
            time.sleep(POLL_INTERVAL)

    def _fill_slots(self) -> None:
        while len(self._running) < self.workers and self._runnable:
            job_id = self._runnable.popleft()
            job = self._jobs.get(job_id)
            if job is None or job.state != "QUEUED":
                continue
            self._dispatch(job)

    def _dispatch(self, job: Job) -> None:
        job.attempts += 1
        proc = self._ctx.Process(
            target=_execute_job,
            args=(str(self.store.root), job.job_id, job.spec.to_dict(),
                  job.resume_next, job.attempts),
            name=f"repro-job-{job.job_id}", daemon=False)
        try:
            proc.start()
        except Exception as exc:      # noqa: BLE001 -- the loop must live
            # e.g. EAGAIN from the OS, or spawn's bootstrap error in a
            # script without a __main__ guard: this job fails, and the
            # loop goes on dispatching the rest
            job.error = (f"worker could not start: "
                         f"{type(exc).__name__}: {exc}")
            job.advance("FAILED")
            self._settle(job)
            self.job_store.save(job)
            return
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
        state = str(verdict.get("state", "FAILED"))
        if entry.cancel_requested and state != "DONE":
            # the governor turned our SIGTERM into a checkpointed stop;
            # surface it as the cancellation it was
            job.advance("CANCELLED")
            return
        job.advance(state)

    def _finish_lost_worker(self, job: Job, entry: _Running) -> None:
        """No verdict: the worker was killed outright."""
        exitcode = entry.proc.exitcode
        has_ckpt = self.job_store.checkpoint_path(job.job_id).is_file()
        if entry.cancel_requested:
            job.advance("CANCELLED")
            job.error = f"worker terminated before checkpointing " \
                        f"(exit {exitcode})"
            return
        if job.retries < MAX_RETRIES:
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
            if follower is not None and not follower.terminal:
                self._adopt(follower, job)

    def _adopt(self, follower: Job, primary: Job) -> None:
        """Settle a coalesced follower with its terminal primary's
        outcome."""
        follower.summary = dict(primary.summary)
        follower.metrics = dict(primary.metrics)
        follower.error = primary.error
        follower.stop_reason = primary.stop_reason
        follower.stop_detail = primary.stop_detail
        follower.pending_paths = primary.pending_paths
        follower.result_digest = primary.result_digest
        follower.artifacts = dict(primary.artifacts)
        follower.advance(primary.state)
        self.job_store.save(follower)

    def _release_inflight(self, job: Job) -> None:
        key = job.spec.dedup_key()
        if self._inflight.get(key) == job.job_id:
            del self._inflight[key]
