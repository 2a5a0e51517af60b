"""The job model: spec validation, the state machine, persistence."""

import pytest

from repro.service.jobs import (JOB_STATES, TERMINAL_STATES, Job, JobSpec,
                                JobSpecError, JobStateError, JobStore,
                                UnknownJob)
from repro.store import ContentStore

FP = "f" * 64


def make_spec(**overrides) -> JobSpec:
    base = {"design": "dr5", "benchmark": "mult"}
    base.update(overrides)
    return JobSpec.from_dict(base)


# -- spec validation ----------------------------------------------------------
def test_spec_defaults():
    spec = make_spec()
    assert spec.csm == "uber"
    assert spec.engine == "serial"
    assert spec.frontier == "dfs"
    assert spec.dedup is True


def test_spec_rejects_unknown_fields():
    with pytest.raises(JobSpecError, match="unknown spec field"):
        JobSpec.from_dict({"design": "dr5", "benchmark": "mult",
                           "colour": "blue"})


def test_spec_rejects_non_dict():
    with pytest.raises(JobSpecError, match="JSON object"):
        JobSpec.from_dict(["dr5", "mult"])


@pytest.mark.parametrize("field,value", [
    ("design", "z80"),
    ("benchmark", "nosuch"),
    ("csm", "psychic"),
    ("engine", "quantum"),
    ("frontier", "lifo"),
])
def test_spec_rejects_unknown_choices(field, value):
    with pytest.raises(JobSpecError):
        make_spec(**{field: value})


def test_spec_engine_default_mirrors_run_one():
    # engine left blank resolves exactly as run_one would, so equal
    # submissions fingerprint equally however they spell the default
    assert JobSpec.from_dict({"design": "dr5", "benchmark": "mult",
                              "engine": None}).engine == "serial"


@pytest.mark.parametrize("field,value,match", [
    ("workers", 1, "unknown spec field.*workers"),
    ("workers", 2, "unknown spec field.*workers"),
    ("engine", "parallel", "unknown engine 'parallel'"),
])
def test_spec_rejects_worker_pool_fields(field, value, match):
    # a run always happens in one process: a new submission naming the
    # removed pool engine or its worker count is refused by name
    with pytest.raises(JobSpecError, match=match):
        make_spec(**{field: value})


@pytest.mark.parametrize("engine", ["serial", "batch"])
def test_spec_naming_lanes_is_rejected(engine):
    # the batch engine is always one 64-lane word: a new submission
    # naming a lane width is refused by name
    with pytest.raises(JobSpecError, match="unknown spec field.*lanes"):
        make_spec(engine=engine, lanes=64)


@pytest.mark.parametrize("field", ["deadline_seconds", "max_rss_mb",
                                   "max_frontier", "max_segments",
                                   "shard_segments"])
def test_spec_budgets_must_be_positive(field):
    with pytest.raises(JobSpecError, match="positive"):
        make_spec(**{field: 0})


def test_spec_budget_none_when_unlimited():
    assert make_spec().budget() is None
    budget = make_spec(max_segments=5).budget()
    assert budget is not None and budget.max_segments == 5


def test_dedup_key_separates_budget_envelopes():
    # identical run, different budgets: coalescing one onto the other
    # would hand a capped PARTIAL to an uncapped submission
    plain, capped = make_spec(), make_spec(deadline_seconds=1.0)
    assert plain.fingerprint_key() == capped.fingerprint_key()
    assert plain.dedup_key() != capped.dedup_key()


def test_spec_round_trips_through_dict():
    spec = make_spec(engine="batch", max_segments=9,
                     submitter="alice", dedup=False)
    assert JobSpec.from_dict(spec.to_dict()) == spec


# -- the state machine --------------------------------------------------------
def test_new_job_is_queued_with_id_and_timestamp():
    job = Job.new(make_spec(), FP)
    assert job.state == "QUEUED" and not job.terminal
    assert len(job.job_id) == 12 and job.created > 0


def test_legal_lifecycle_stamps_timestamps():
    job = Job.new(make_spec(), FP)
    job.advance("RUNNING")
    assert job.started is not None and job.finished is None
    job.advance("DONE")
    assert job.terminal and job.finished is not None


def test_running_can_requeue_for_retry_or_shard():
    job = Job.new(make_spec(), FP)
    job.advance("RUNNING")
    job.advance("QUEUED")
    assert job.state == "QUEUED"


@pytest.mark.parametrize("terminal", sorted(TERMINAL_STATES))
def test_terminal_states_are_absorbing(terminal):
    job = Job.new(make_spec(), FP)
    job.advance(terminal)
    for state in JOB_STATES:
        with pytest.raises(JobStateError, match="illegal transition"):
            job.advance(state)


def test_advance_rejects_unknown_state():
    with pytest.raises(JobStateError, match="unknown job state"):
        Job.new(make_spec(), FP).advance("SLEEPING")


def test_queued_cannot_reenter_queued():
    with pytest.raises(JobStateError):
        Job.new(make_spec(), FP).advance("QUEUED")


# -- persistence --------------------------------------------------------------
def test_manifest_round_trip(tmp_path):
    job = Job.new(make_spec(max_segments=7, submitter="bob"), FP)
    job.advance("RUNNING")
    job.attempts, job.retries, job.shards = 3, 1, 2
    job.stop_reason, job.pending_paths = "segments", 4
    job.summary = {"paths_created": 9}
    job.metrics = {"cache_hits": 5}
    job.artifacts = {"checkpoint": "a" * 64}
    clone = Job.from_manifest(job.to_manifest())
    assert clone.to_manifest() == job.to_manifest()
    assert clone.spec == job.spec


def test_job_store_save_load_list(tmp_path):
    store = JobStore(ContentStore(tmp_path / "store"))
    first, second = Job.new(make_spec(), FP), Job.new(make_spec(), FP)
    second.created = first.created + 1
    store.save(first)
    store.save(second)
    assert store.load(first.job_id).job_id == first.job_id
    assert [j.job_id for j in store.list_jobs()] \
        == [first.job_id, second.job_id]


def test_job_store_unknown_job(tmp_path):
    store = JobStore(ContentStore(tmp_path / "store"))
    with pytest.raises(UnknownJob):
        store.load("nosuchjob0000")


def _stored_before_pool_removal(job: Job, workers: int = 1) -> dict:
    """``job``'s manifest as stored while specs still had ``workers``."""
    manifest = job.to_manifest()
    manifest["spec"] = dict(manifest["spec"], workers=workers)
    return manifest


def test_manifest_with_single_worker_loads():
    job = Job.new(make_spec(), FP)
    clone = Job.from_manifest(_stored_before_pool_removal(job))
    assert clone.spec == job.spec
    assert clone.to_manifest() == job.to_manifest()


def test_manifest_naming_the_pool_is_rejected():
    job = Job.new(make_spec(), FP)
    with pytest.raises(JobSpecError, match="workers"):
        Job.from_manifest(_stored_before_pool_removal(job, workers=2))


def test_job_store_lists_manifests_stored_with_workers(tmp_path):
    content = ContentStore(tmp_path / "store")
    store = JobStore(content)
    old, pooled = Job.new(make_spec(), FP), Job.new(make_spec(), FP)
    pooled.created = old.created + 1
    content.put_manifest(f"job-{old.job_id}",
                         _stored_before_pool_removal(old))
    content.put_manifest(f"job-{pooled.job_id}",
                         _stored_before_pool_removal(pooled, workers=4))
    # the single-process manifest loads; the pool one stays skipped,
    # like any other foreign manifest
    assert [j.job_id for j in store.list_jobs()] == [old.job_id]


def _stored_with_lanes(job: Job, lanes) -> dict:
    """``job``'s manifest as stored while specs still had ``lanes``."""
    manifest = job.to_manifest()
    manifest["spec"] = dict(manifest["spec"], lanes=lanes)
    return manifest


@pytest.mark.parametrize("engine,lanes", [("serial", None),
                                          ("batch", None),
                                          ("batch", 64)])
def test_manifest_with_the_one_lane_width_loads(engine, lanes):
    job = Job.new(make_spec(engine=engine), FP)
    clone = Job.from_manifest(_stored_with_lanes(job, lanes))
    assert clone.spec == job.spec
    assert clone.to_manifest() == job.to_manifest()


@pytest.mark.parametrize("engine,lanes", [("serial", 64),
                                          ("batch", 128)])
def test_manifest_naming_another_lane_width_is_rejected(engine, lanes):
    job = Job.new(make_spec(engine=engine), FP)
    with pytest.raises(JobSpecError, match="lanes"):
        Job.from_manifest(_stored_with_lanes(job, lanes))


def test_job_store_lists_manifests_stored_with_lanes(tmp_path):
    content = ContentStore(tmp_path / "store")
    store = JobStore(content)
    jobs = [Job.new(make_spec(engine="batch"), FP) for _ in range(3)]
    for offset, (job, lanes) in enumerate(zip(jobs, (None, 64, 256))):
        job.created += offset
        content.put_manifest(f"job-{job.job_id}",
                             _stored_with_lanes(job, lanes))
    # the 256-lane manifest stays skipped, like any foreign manifest
    assert [j.job_id for j in store.list_jobs()] \
        == [j.job_id for j in jobs[:2]]


def test_job_store_skips_foreign_manifests(tmp_path):
    content = ContentStore(tmp_path / "store")
    store = JobStore(content)
    content.put_manifest("job-rogue", {"kind": "other"})
    content.put_manifest("run-abc", {"kind": "run"})
    job = Job.new(make_spec(), FP)
    store.save(job)
    assert [j.job_id for j in store.list_jobs()] == [job.job_id]


def test_job_paths_live_under_store_root(tmp_path):
    store = JobStore(ContentStore(tmp_path / "store"))
    job_dir = store.job_dir("abc")
    assert store.checkpoint_path("abc").parent == job_dir
    assert store.trace_path("abc").parent == job_dir
    assert (tmp_path / "store") in job_dir.parents
