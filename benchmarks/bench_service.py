"""Job-service overhead: submit->done latency and dedup throughput.

The service's pitch is that the *Nth* identical submission is nearly
free: in-flight duplicates coalesce onto the running execution and
completed fingerprints are served straight from the store.  This bench
measures both ends on dr5/mult -- the cold submit->done latency (queue +
spawn + run + verdict) against the direct ``run_one`` wall time, and
the throughput of a 3-job duplicate batch served entirely by dedup --
and appends the numbers to ``BENCH_service.json`` at the repo root so
each PR's diff doubles as the service perf report.
"""

import json
import time
from pathlib import Path

import pytest

from repro.reporting.runner import run_one
from repro.service import Scheduler

SPEC = {"design": "dr5", "benchmark": "mult"}
DEDUP_BATCH = 3
#: dedup-served jobs must beat this many jobs/second: they cost one
#: fingerprint lookup and two manifest writes, never a simulation
DEDUP_MIN_JOBS_PER_S = 5.0
#: the scheduler's overhead on a cold run (spawn + queue + verdict) on
#: top of the direct run_one wall time, seconds
COLD_MAX_OVERHEAD_S = 30.0
TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_service.json"
TRAJECTORY_KEEP = 50


def _git_commit() -> str:
    import subprocess
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _record_trajectory(entry: dict) -> None:
    """Append to the committed history; same-commit re-runs replace
    their previous measurement instead of blind-appending."""
    from repro.resilience.artifacts import atomic_write_json
    entry = dict(entry, commit=_git_commit())
    history = []
    if TRAJECTORY.exists():
        try:
            history = json.loads(TRAJECTORY.read_text()).get("runs", [])
        except (ValueError, OSError):
            history = []
    history = [run for run in history
               if run.get("commit") == "unknown"
               or run.get("commit") != entry["commit"]]
    history.append(entry)
    atomic_write_json(TRAJECTORY,
                      {"bench": "bench_service",
                       "runs": history[-TRAJECTORY_KEEP:]})


@pytest.mark.timeout(600)
def test_service_latency_and_dedup_throughput(tmp_path):
    t0 = time.perf_counter()
    direct = run_one(SPEC["design"], SPEC["benchmark"])
    direct_s = time.perf_counter() - t0
    assert direct.complete

    with Scheduler(tmp_path / "store", workers=2) as sched:
        # -- cold: queue + spawn + run + verdict ----------------------------
        t0 = time.perf_counter()
        cold = sched.submit(dict(SPEC))
        sched.wait(cold.job_id, timeout=300)
        cold_s = time.perf_counter() - t0
        assert sched.get(cold.job_id).state == "DONE"

        # -- warm: a 3-job duplicate batch, all dedup-served ----------------
        t0 = time.perf_counter()
        batch = [sched.submit(dict(SPEC)) for _ in range(DEDUP_BATCH)]
        for job in batch:
            sched.wait(job.job_id, timeout=60)
        dedup_s = time.perf_counter() - t0
        assert all(sched.get(j.job_id).state == "DONE" for j in batch)
        assert sched.counters["executed"] == 1      # nothing re-ran
        assert sched.counters["cache_served"] == DEDUP_BATCH
        dedup_jobs_per_s = DEDUP_BATCH / max(dedup_s, 1e-9)

    entry = {
        "design": SPEC["design"],
        "benchmark": SPEC["benchmark"],
        "direct_run_s": round(direct_s, 4),
        "cold_submit_to_done_s": round(cold_s, 4),
        "cold_overhead_s": round(cold_s - direct_s, 4),
        "dedup_batch_jobs": DEDUP_BATCH,
        "dedup_batch_s": round(dedup_s, 4),
        "dedup_jobs_per_s": round(dedup_jobs_per_s, 2),
    }
    _record_trajectory(entry)
    print()
    print(f"[bench_service] direct={direct_s:.2f}s "
          f"cold submit->done={cold_s:.2f}s "
          f"(overhead {cold_s - direct_s:+.2f}s), "
          f"{DEDUP_BATCH}-job dedup batch={dedup_s:.3f}s "
          f"({dedup_jobs_per_s:.0f} jobs/s)")

    assert cold_s - direct_s < COLD_MAX_OVERHEAD_S
    assert dedup_jobs_per_s > DEDUP_MIN_JOBS_PER_S
