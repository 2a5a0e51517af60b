"""End-to-end acceptance for the job service.

The ISSUE's bar: two concurrent identical submissions yield ONE
execution plus one coalesced result; a later duplicate is served from
the store without running; and the service's answer is bit-identical to
a direct ``run_one`` -- on the serial AND the batched engine.  Plus the
HTTP layer: submit/status/cancel/artifacts/trace/metrics over a real
socket, and restart recovery from nothing but the store.
"""

import errno
import os
import time
import types

import pytest

from repro.reporting.runner import run_one
from repro.service import (Scheduler, ServiceAPI, ServiceClient,
                           ServiceError)
from repro.service.jobs import JobSpecError

pytestmark = pytest.mark.timeout(600)


def assert_identical(expected, actual):
    """Bit-identical analysis payloads (timing aside)."""
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
    with Scheduler(tmp_path / "store", workers=2) as sched:
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
    with Scheduler(root, workers=1) as sched:
        job = sched.submit({"design": "dr5", "benchmark": "mult"})
        sched.wait(job.job_id, timeout=300)
    # a brand-new scheduler on the same store: no re-execution
    with Scheduler(root, workers=1) as fresh:
        dup = fresh.submit({"design": "dr5", "benchmark": "mult"})
        assert dup.state == "DONE" and dup.cache_hit
        assert fresh.counters["executed"] == 0


def _restore_manifest(sched, job_id, spec_fields, **fields):
    """Rewrite a job manifest in the shape an older service stored:
    ``spec_fields`` join its spec, ``fields`` its top level."""
    name = f"job-{job_id}"
    manifest = sched.store.get_manifest(name)
    manifest["spec"] = dict(manifest["spec"], **spec_fields)
    manifest.update(fields)
    sched.store.put_manifest(name, manifest)


def test_recovery_keeps_manifests_stored_with_workers(tmp_path,
                                                      direct_result):
    """Manifests written before the pool engine was removed still
    recover: a DONE one dedups a resubmission, a QUEUED one is
    re-enqueued and runs."""
    root = tmp_path / "store"
    with Scheduler(root, workers=1) as sched:
        done = sched.submit({"design": "dr5", "benchmark": "mult"})
        sched.wait(done.job_id, timeout=300)
    # a scheduler that is never started leaves its submission QUEUED
    idle = Scheduler(root)
    queued = idle.submit({"design": "dr5", "benchmark": "mult",
                          "dedup": False})
    # every spec stored while specs had a worker-pool size carried
    # ``"workers": 1``
    for job_id in (done.job_id, queued.job_id):
        _restore_manifest(idle, job_id, {"workers": 1})

    with Scheduler(root, workers=1) as fresh:
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

    with Scheduler(root, workers=1) as fresh:
        assert fresh.wait(bfs.job_id, timeout=300).state == "DONE"
        assert [j.job_id for j in fresh.list_jobs()] == [bfs.job_id]
        assert fresh.counters["executed"] == 1


def test_http_api_round_trip(tmp_path):
    with Scheduler(tmp_path / "store", workers=2) as sched:
        with ServiceAPI(sched, port=0) as api:
            client = ServiceClient(api.url)
            assert client.healthz() == {"ok": True}

            # a bad spec is a 400, not a 500
            with pytest.raises(ServiceError) as err:
                client.submit({"design": "dr5"})
            assert err.value.status == 400
            # ... and so is one naming the removed worker-pool engine,
            # lane width or shard size
            for field, value in (("workers", 2), ("engine", "parallel"),
                                 ("lanes", 64), ("shard_segments", 10)):
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


@pytest.mark.parametrize("length, error", [
    ("abc", "not an integer"), ("1.5", "not an integer"),
    ("-5", "empty request body")])
def test_malformed_content_length_is_a_400(tmp_path, length, error):
    """A submission whose Content-Length is not a positive integer is a
    bad request, answered 400 before the body is read; the connection
    then closes, so the unread body is never parsed as a request."""
    import http.client
    import json
    from urllib.parse import urlsplit
    sched = Scheduler(tmp_path / "store", workers=1)   # never started
    with ServiceAPI(sched, port=0) as api:
        url = urlsplit(api.url)
        conn = http.client.HTTPConnection(url.hostname, url.port,
                                          timeout=30)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders(b'{"design": "dr5", "benchmark": "mult"}')
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
    assert response.status == 400, body
    assert error in body["error"]
    assert response.getheader("Connection") == "close"
    assert sched.counters["submitted"] == 0


def test_worker_stores_each_artifact_once_and_fingerprints_nothing(
        tmp_path, monkeypatch):
    """``_execute_job``, run in-process, computes no netlist fingerprint
    (the scheduler keys dedup) and leaves exactly the result, the
    checkpoint and the trace in the store, named by one verdict."""
    from repro.service.scheduler import _execute_job
    from repro.store import ContentStore, fingerprint as fp_module
    calls = []
    real = fp_module.fingerprint_netlist

    def counting(netlist):
        calls.append(netlist)
        return real(netlist)

    monkeypatch.setattr(fp_module, "fingerprint_netlist", counting)
    monkeypatch.setattr("repro.store.fingerprint_netlist", counting)
    store = ContentStore(tmp_path / "store")
    _execute_job(str(store.root), "j1",
                 {"design": "dr5", "benchmark": "mult"}, False, 1)
    assert calls == []
    verdict = store.get_manifest("jobresult-j1")
    assert verdict["state"] == "DONE", verdict
    assert set(verdict["artifacts"]) == {"checkpoint", "trace"}
    assert store.manifest_names() == ["jobresult-j1"]
    assert store.stats()["objects"] == 3


def test_cancel_queued_job(tmp_path):
    # a scheduler that is never started dispatches nothing, so the
    # submission stays QUEUED and cancel settles it synchronously
    sched = Scheduler(tmp_path / "store", workers=1)
    job = sched.submit({"design": "dr5", "benchmark": "mult"})
    dup = sched.submit({"design": "dr5", "benchmark": "mult"})
    assert dup.coalesced_into == job.job_id
    cancelled = sched.cancel(job.job_id)
    assert cancelled.state == "CANCELLED"
    # the duplicate coalesced onto it settles with it
    assert sched.get(dup.job_id).state == "CANCELLED"
    # its dedup slot was released: the next submission runs fresh
    again = sched.submit({"design": "dr5", "benchmark": "mult"})
    assert again.state == "QUEUED" and again.coalesced_into is None


@pytest.mark.parametrize("workers", [0, -3])
def test_scheduler_rejects_workers_below_one(tmp_path, workers):
    # _fill_slots dispatches while fewer than `workers` jobs run, so a
    # scheduler with no slot would accept jobs and never run them
    with pytest.raises(ValueError, match="workers must be >= 1"):
        Scheduler(tmp_path / "store", workers=workers)


def test_submit_rejects_bad_spec(tmp_path):
    sched = Scheduler(tmp_path / "store")
    with pytest.raises(JobSpecError):
        sched.submit({"design": "dr5", "benchmark": "mult",
                      "engine": "quantum"})


def test_recovery_runs_manifests_stored_with_shards(tmp_path,
                                                    direct_result):
    """Manifests stored while jobs could be sliced into frontier shards
    still recover: QUEUED ones with ``shard_segments`` null or 10 run
    unsharded to the direct answer, and a DONE one with a ``shards``
    count dedups a resubmission."""
    root = tmp_path / "store"
    with Scheduler(root, workers=1) as sched:
        done = sched.submit({"design": "dr5", "benchmark": "mult"})
        sched.wait(done.job_id, timeout=300)
    idle = Scheduler(root)      # never started: submissions stay QUEUED
    queued = [idle.submit({"design": "dr5", "benchmark": "mult",
                           "dedup": False}) for _ in range(2)]
    _restore_manifest(idle, done.job_id, {"shard_segments": 3}, shards=2)
    for job, shard in zip(queued, (None, 10)):
        _restore_manifest(idle, job.job_id, {"shard_segments": shard},
                          shards=0)

    with Scheduler(root, workers=1) as fresh:
        dup = fresh.submit({"design": "dr5", "benchmark": "mult"})
        assert dup.state == "DONE" and dup.cache_hit
        for job in queued:
            recovered = fresh.wait(job.job_id, timeout=300)
            assert recovered.state == "DONE"
            assert_identical(direct_result,
                             fresh.job_store.load_result(recovered))
        assert fresh.counters["executed"] == 2


def test_worker_that_cannot_start_fails_its_job_not_the_loop(tmp_path):
    """A failed ``Process.start()`` (EAGAIN here) ends that job FAILED
    with the error named, settles its coalesced duplicate, and the loop
    keeps dispatching."""
    sched = Scheduler(tmp_path / "store", workers=1)
    ctx, launches = sched._ctx, []

    def process(*args, **kwargs):
        proc = ctx.Process(*args, **kwargs)
        if not launches:             # the first launch hits EAGAIN
            def refuse():
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            proc.start = refuse
        launches.append(proc)
        return proc

    sched._ctx = types.SimpleNamespace(Process=process)
    spec = {"design": "dr5", "benchmark": "mult"}
    # queued before the loop starts, so the duplicate coalesces
    first = sched.submit(dict(spec))
    dup = sched.submit(dict(spec))
    assert dup.coalesced_into == first.job_id
    with sched:
        failed = sched.wait(first.job_id, timeout=60)
        assert failed.state == "FAILED"
        assert failed.attempts == 1
        assert failed.error.startswith("worker could not start: ")
        assert os.strerror(errno.EAGAIN) in failed.error
        follower = sched.wait(dup.job_id, timeout=60)
        assert follower.state == "FAILED"
        assert follower.error == failed.error
        # the loop outlived the failure: the next submission runs
        again = sched.submit(dict(spec))
        assert sched.wait(again.job_id, timeout=300).state == "DONE"
        assert sched.counters["executed"] == 1


def test_coalesced_duplicate_settles_after_restart(tmp_path):
    """A duplicate queued behind a primary, then a restart before
    either ran: the fresh scheduler runs the primary once and the
    duplicate adopts its answer."""
    root = tmp_path / "store"
    idle = Scheduler(root)      # never started: submissions stay QUEUED
    primary = idle.submit({"design": "dr5", "benchmark": "mult"})
    dup = idle.submit({"design": "dr5", "benchmark": "mult"})
    assert dup.coalesced_into == primary.job_id

    with Scheduler(root, workers=1) as fresh:
        done = fresh.wait(primary.job_id, timeout=300)
        assert done.state == "DONE"
        settled = fresh.wait(dup.job_id, timeout=60)
        assert settled.state == "DONE"
        assert settled.result_digest == done.result_digest
        assert fresh.counters["executed"] == 1


def test_duplicate_of_a_job_orphaned_mid_run_settles_with_it(tmp_path):
    """The service died while the primary ran: recovery ends the primary
    (FAILED, no checkpoint) and its queued duplicate with it."""
    root = tmp_path / "store"
    idle = Scheduler(root)
    primary = idle.submit({"design": "dr5", "benchmark": "mult"})
    dup = idle.submit({"design": "dr5", "benchmark": "mult"})
    primary.advance("RUNNING")
    idle.job_store.save(primary)

    fresh = Scheduler(root)
    fresh.recover()
    orphan = fresh.get(primary.job_id)
    assert orphan.state == "FAILED"
    settled = fresh.get(dup.job_id)
    assert settled.state == "FAILED" and settled.error == orphan.error
    # persisted, not just settled in memory
    assert fresh.job_store.load(dup.job_id).state == "FAILED"


def test_resume_from_takes_the_new_submissions_budget(tmp_path):
    """A continuation of a job stopped by its segment cap runs under
    the resubmission's budget, not the source's: uncapped, it finishes
    with the unbounded answer."""
    spec = {"design": "bm32", "benchmark": "Div"}
    with Scheduler(tmp_path / "store", workers=1) as sched:
        capped = sched.submit({**spec, "max_segments": 9})
        stopped = sched.wait(capped.job_id, timeout=300)
        assert stopped.state == "PARTIAL"
        assert stopped.stop_reason == "segments"

        resumed = sched.submit({**spec, "resume_from": capped.job_id})
        assert resumed.spec.max_segments is None
        assert resumed.spec.design == "bm32"
        final = sched.wait(resumed.job_id, timeout=300)
        assert final.state == "DONE"
        assert final.resume_of == capped.job_id
        assert final.metrics["paths_explored"] == 67
        assert final.summary["exercisable_gates"] == 2638
        assert final.summary["simulated_cycles"] == 302
