"""End-to-end acceptance for the job service.

The ISSUE's bar: two concurrent identical submissions yield ONE
execution plus one coalesced result; a later duplicate is served from
the store without running; and the service's answer is bit-identical to
a direct ``run_one`` -- on the serial AND the batched engine.  Plus the
HTTP layer: submit/status/cancel/artifacts/trace/metrics over a real
socket, and restart recovery from nothing but the store.
"""

import time

import pytest

from repro.reporting.runner import run_one
from repro.service import (Scheduler, SchedulerConfig, ServiceAPI,
                           ServiceClient, ServiceError)
from repro.service.jobs import JobSpecError

pytestmark = pytest.mark.timeout(600)


def assert_identical(expected, actual):
    """Bit-identical analysis payloads (timing/cache counters aside)."""
    assert (actual.profile.toggled == expected.profile.toggled).all()
    assert (actual.profile.ever_x == expected.profile.ever_x).all()
    assert actual.paths_created == expected.paths_created
    assert actual.paths_skipped == expected.paths_skipped
    assert actual.simulated_cycles == expected.simulated_cycles
    assert actual.exercisable_gate_count == expected.exercisable_gate_count


@pytest.fixture(scope="module")
def direct_result():
    """The ground truth the service must reproduce."""
    return run_one("dr5", "mult")


@pytest.mark.parametrize("engine", ["serial", "batch"])
def test_concurrent_identical_submissions_coalesce(engine, tmp_path,
                                                   direct_result):
    spec = {"design": "dr5", "benchmark": "mult", "engine": engine}
    with Scheduler(tmp_path / "store", SchedulerConfig(workers=2)) as sched:
        first = sched.submit(dict(spec))
        second = sched.submit(dict(spec))       # identical, concurrent
        assert second.coalesced_into == first.job_id

        done_first = sched.wait(first.job_id, timeout=300)
        done_second = sched.wait(second.job_id, timeout=300)
        assert done_first.state == done_second.state == "DONE"
        # one execution, one coalesced adoption, same stored result
        assert sched.counters["executed"] == 1
        assert sched.counters["coalesced"] == 1
        assert done_second.result_digest == done_first.result_digest

        # a third submission after completion never runs at all
        third = sched.submit(dict(spec))
        assert third.state == "DONE" and third.cache_hit
        assert sched.counters["executed"] == 1

        # and the answer is the direct run_one answer, bit for bit
        result = sched.job_store.load_result(done_first)
        assert result is not None and result.complete
        assert_identical(direct_result, result)


def test_restart_recovery_serves_done_from_store(tmp_path):
    root = tmp_path / "store"
    with Scheduler(root, SchedulerConfig(workers=1)) as sched:
        job = sched.submit({"design": "dr5", "benchmark": "mult"})
        sched.wait(job.job_id, timeout=300)
    # a brand-new scheduler on the same store: no re-execution
    with Scheduler(root, SchedulerConfig(workers=1)) as fresh:
        dup = fresh.submit({"design": "dr5", "benchmark": "mult"})
        assert dup.state == "DONE" and dup.cache_hit
        assert fresh.counters["executed"] == 0


def _store_as_before_pool_removal(sched, job_id):
    """Rewrite a job manifest in the shape stored while specs still had
    a worker-pool size (every stored spec carried ``"workers": 1``)."""
    name = f"job-{job_id}"
    manifest = sched.store.get_manifest(name)
    manifest["spec"] = dict(manifest["spec"], workers=1)
    sched.store.put_manifest(name, manifest)


def test_recovery_keeps_manifests_stored_with_workers(tmp_path,
                                                      direct_result):
    """Manifests written before the pool engine was removed still
    recover: a DONE one dedups a resubmission, a QUEUED one is
    re-enqueued and runs."""
    root = tmp_path / "store"
    with Scheduler(root, SchedulerConfig(workers=1)) as sched:
        done = sched.submit({"design": "dr5", "benchmark": "mult"})
        sched.wait(done.job_id, timeout=300)
    # a scheduler that is never started leaves its submission QUEUED
    idle = Scheduler(root)
    queued = idle.submit({"design": "dr5", "benchmark": "mult",
                          "dedup": False})
    for job_id in (done.job_id, queued.job_id):
        _store_as_before_pool_removal(idle, job_id)

    with Scheduler(root, SchedulerConfig(workers=1)) as fresh:
        dup = fresh.submit({"design": "dr5", "benchmark": "mult"})
        assert dup.state == "DONE" and dup.cache_hit
        recovered = fresh.wait(queued.job_id, timeout=300)
        assert recovered.state == "DONE"
        assert fresh.counters["executed"] == 1
        assert_identical(direct_result,
                         fresh.job_store.load_result(recovered))


def test_recovery_skips_manifests_naming_novelty(tmp_path):
    """A QUEUED manifest stored for the retired novelty frontier order is
    skipped by recovery, like any foreign manifest; a QUEUED bfs one
    beside it is re-enqueued and runs."""
    root = tmp_path / "store"
    idle = Scheduler(root)      # never started: submissions stay QUEUED
    bfs = idle.submit({"design": "dr5", "benchmark": "mult",
                       "frontier": "bfs"})
    novelty = idle.submit({"design": "dr5", "benchmark": "mult",
                           "dedup": False})
    name = f"job-{novelty.job_id}"
    manifest = idle.store.get_manifest(name)
    manifest["spec"] = dict(manifest["spec"], frontier="novelty")
    idle.store.put_manifest(name, manifest)

    with Scheduler(root, SchedulerConfig(workers=1)) as fresh:
        assert fresh.wait(bfs.job_id, timeout=300).state == "DONE"
        assert [j.job_id for j in fresh.list_jobs()] == [bfs.job_id]
        assert fresh.counters["executed"] == 1


def test_sharded_run_converges(tmp_path, direct_result):
    """Work-stealing shards: many governed dispatches, one answer."""
    with Scheduler(tmp_path / "store",
                   SchedulerConfig(workers=2)) as sched:
        job = sched.submit({"design": "dr5", "benchmark": "mult",
                            "shard_segments": 3})
        done = sched.wait(job.job_id, timeout=300)
        assert done.state == "DONE"
        assert done.shards >= 2                  # 9 paths / 3 per shard
        result = sched.job_store.load_result(done)
        assert_identical(direct_result, result)


def test_http_api_round_trip(tmp_path):
    with Scheduler(tmp_path / "store", SchedulerConfig(workers=2)) as sched:
        with ServiceAPI(sched, port=0) as api:
            client = ServiceClient(api.url)
            assert client.healthz() == {"ok": True}

            # a bad spec is a 400, not a 500
            with pytest.raises(ServiceError) as err:
                client.submit({"design": "dr5"})
            assert err.value.status == 400
            # ... and so is one naming the removed worker-pool engine
            # or lane width
            for field, value in (("workers", 2), ("engine", "parallel"),
                                 ("lanes", 64)):
                with pytest.raises(ServiceError, match=field) as err:
                    client.submit({"design": "dr5", "benchmark": "mult",
                                   field: value})
                assert err.value.status == 400

            view = client.submit({"design": "dr5", "benchmark": "mult"})
            assert view["state"] in ("QUEUED", "RUNNING")
            final = client.wait(view["job"], timeout=300)
            assert final["state"] == "DONE"

            # status / listing / metrics / artifacts
            assert client.job(view["job"])["state"] == "DONE"
            assert any(j["job"] == view["job"] for j in client.jobs())
            metrics = client.metrics()
            assert metrics["counters"]["executed"] == 1
            art = client.artifacts(view["job"])
            assert set(art["artifacts"]) == {"checkpoint", "trace"}

            # the streamed trace is the whole run, parsed line by line
            events = list(client.trace_lines(view["job"]))
            assert events[0]["kind"] == "run_start"
            assert events[-1]["kind"] == "run_end"

            # unknown job ids are 404s on every route
            for call in (client.job, client.cancel, client.artifacts):
                with pytest.raises(ServiceError) as err:
                    call("nosuchjob000")
                assert err.value.status == 404


def test_cancel_queued_job(tmp_path):
    # a scheduler that is never started dispatches nothing, so the
    # submission stays QUEUED and cancel settles it synchronously
    sched = Scheduler(tmp_path / "store", SchedulerConfig(workers=1))
    job = sched.submit({"design": "dr5", "benchmark": "mult"})
    cancelled = sched.cancel(job.job_id)
    assert cancelled.state == "CANCELLED"
    # its dedup slot was released: the next submission runs fresh
    again = sched.submit({"design": "dr5", "benchmark": "mult"})
    assert again.state == "QUEUED" and again.coalesced_into is None


def test_submit_rejects_bad_spec(tmp_path):
    sched = Scheduler(tmp_path / "store")
    with pytest.raises(JobSpecError):
        sched.submit({"design": "dr5", "benchmark": "mult",
                      "engine": "quantum"})


def test_quota_limits_active_jobs_per_submitter(tmp_path):
    from repro.service import QuotaExceeded
    sched = Scheduler(tmp_path / "store",
                      SchedulerConfig(workers=1, quota_jobs=2))
    sched.submit({"design": "dr5", "benchmark": "mult",
                  "submitter": "alice", "dedup": False})
    sched.submit({"design": "dr5", "benchmark": "mult",
                  "submitter": "alice", "dedup": False})
    with pytest.raises(QuotaExceeded):
        sched.submit({"design": "dr5", "benchmark": "mult",
                      "submitter": "alice", "dedup": False})
    # quotas are per-tenant: bob is unaffected
    assert sched.submit({"design": "dr5", "benchmark": "mult",
                         "submitter": "bob"}).state == "QUEUED"
