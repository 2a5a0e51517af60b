"""Governor signal handling when nested under the service's pool.

A service worker always runs with a :class:`RunGovernor` installed, so
SIGTERM delivered to a pool child while ``governed()`` is active must
turn into a checkpointed PARTIAL verdict -- frontier intact, resumable
-- and must never take the scheduler (or its other workers) down with
it.  A SIGKILL, by contrast, leaves no verdict: the scheduler retries
once against the checkpoint and only then settles the job as PARTIAL.
"""

import os
import signal
import time

import pytest

from repro.service import Scheduler

pytestmark = pytest.mark.timeout(600)

#: bm32/Div on the event engine: 67 paths, several seconds of work
#: (the serial engine finishes in a fraction of one), with a checkpoint
#: every 16 segments -- long enough to signal mid-exploration
LONG_SPEC = {"design": "bm32", "benchmark": "Div", "engine": "event"}


def _signal_running_worker(sched, job_id, signum, require_checkpoint,
                           timeout=240.0):
    """Wait until the job's worker is live (and, optionally, has
    checkpointed), then deliver ``signum``.  Returns False if the job
    settled before a signal could land."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if sched.get(job_id).terminal:
            return False
        entry = sched._running.get(job_id)
        if entry is not None and entry.proc.is_alive() and entry.proc.pid:
            if not require_checkpoint or \
                    sched.job_store.checkpoint_path(job_id).is_file():
                try:
                    os.kill(entry.proc.pid, signum)
                    return True
                except ProcessLookupError:
                    continue
        time.sleep(0.02)
    raise TimeoutError(f"worker for {job_id} never became signalable")


def test_sigterm_in_pool_child_yields_partial_not_dead_scheduler(tmp_path):
    with Scheduler(tmp_path / "store", workers=2) as sched:
        job = sched.submit(dict(LONG_SPEC))
        landed = _signal_running_worker(sched, job.job_id, signal.SIGTERM,
                                        require_checkpoint=True)
        assert landed, "job finished before SIGTERM could be delivered"
        settled = sched.wait(job.job_id, timeout=240)

        # the governor inside the child turned the signal into a
        # cooperative stop: a PARTIAL with its frontier accounted for
        assert settled.state == "PARTIAL"
        assert settled.stop_reason == "interrupted"
        assert settled.pending_paths > 0
        assert sched.job_store.checkpoint_path(job.job_id).is_file()

        # the scheduler itself is untouched: it still runs jobs
        probe = sched.submit({"design": "dr5", "benchmark": "mult"})
        assert sched.wait(probe.job_id, timeout=300).state == "DONE"

        # resuming the PARTIAL converges to the unbounded answer
        resumed = sched.submit({**LONG_SPEC, "resume_from": job.job_id})
        final = sched.wait(resumed.job_id, timeout=300)
        assert final.state == "DONE"
        assert final.metrics["paths_explored"] == 67
        assert final.resume_of == job.job_id


def test_sigkill_retries_then_partial_with_checkpoint(tmp_path):
    with Scheduler(tmp_path / "store", workers=1) as sched:
        job = sched.submit(dict(LONG_SPEC))
        kills = 0
        while kills < 2:             # first kill consumes the one retry
            if not _signal_running_worker(sched, job.job_id,
                                          signal.SIGKILL,
                                          require_checkpoint=True):
                break
            kills += 1
            time.sleep(0.2)
        settled = sched.wait(job.job_id, timeout=240)
        if kills < 2:
            pytest.skip("run finished before both SIGKILLs landed")
        assert settled.state == "PARTIAL"
        assert settled.stop_reason == "worker_lost"
        assert settled.retries == 1
        assert sched.counters["retries"] == 1

        # the checkpoint the dead worker left behind still resumes
        resumed = sched.submit({**LONG_SPEC, "resume_from": job.job_id})
        final = sched.wait(resumed.job_id, timeout=300)
        assert final.state == "DONE"
        assert final.metrics["paths_explored"] == 67


def test_cancel_running_job_checkpoints_and_cancels(tmp_path):
    with Scheduler(tmp_path / "store", workers=1) as sched:
        job = sched.submit(dict(LONG_SPEC))
        # wait for a live worker, then cancel through the scheduler
        deadline = time.monotonic() + 240
        while sched._running.get(job.job_id) is None:
            assert time.monotonic() < deadline
            if sched.get(job.job_id).terminal:
                pytest.skip("job settled before cancel could land")
            time.sleep(0.02)
        sched.cancel(job.job_id)
        settled = sched.wait(job.job_id, timeout=240)
        assert settled.state == "CANCELLED"
        # the scheduler survives and keeps serving
        probe = sched.submit({"design": "dr5", "benchmark": "mult"})
        assert sched.wait(probe.job_id, timeout=300).state == "DONE"
