"""Regression: checkpoints written by earlier engines still resume.

Before the kernel extraction the serial engine had a private checkpoint
payload shape; those journals exist on disk in the wild, so
:func:`decode_run_payload` must keep upgrading them.  Later v2 payloads
carried a poison-segment ``quarantine`` snapshot and a
``quarantined_paths`` counter; those must resume too.  Until the kernel
owned the toggle profile, the serial and event engines checkpointed
their simulator's planes (``"repr": "sim"``) instead of the profile;
those resume through the same fold.  Each test manufactures a faithful
old-format journal by converting a real v2 payload, resumes it through
the kernel, and checks the run completes with the same answer as an
uninterrupted one.

Until the novelty frontier order was retired, every v2 frontier entry
carried the path's fork depth and origin PC in its third and fifth
slots, and the payload a ``strategy_meta`` dict (novelty's halt
counts).  The kernel now writes ``None`` into those slots and never
reads them: such journals resume, and one written under the novelty
order resumes into a dfs or bfs frontier.

Journals written by the removed worker-pool engine (tag ``"parallel"``)
must be refused with the kernel's engine-mismatch error, never resumed
on another engine.

Until the trace became a run's only log, every payload's ``journal``
slot and every result's ``journal`` field held pickled ``RunEvent``
entries.  Such records resume and such job results load, through the
bare ``RunEvent`` class that stays for them.

While runs had a segment cache, payload counters, results and job
metrics carried its hit and miss counts.  Such journals resume, and
such job manifests and results load.
"""

import pickle

import pytest

from repro.cli import main
from repro.coanalysis.engine import CoAnalysisEngine
from repro.coanalysis.results import PartialResult, ResumeMismatch
from repro.reporting.runner import run_one
from repro.resilience.checkpoint import (Checkpointer, decode_run_payload,
                                         load_checkpoint)
from repro.resilience.governor import RunBudget
from repro.service import Scheduler
from repro.service.jobs import Job, JobSpec, JobStore
from repro.store import ContentStore
from repro.workloads import WORKLOADS, build_target

PLANES = ("toggled", "ever_x", "const_val", "const_known")


def _engine(**kw):
    return CoAnalysisEngine(build_target("dr5", WORKLOADS["mult"]),
                            application="mult", **kw)


def _stopped_payload(tmp_path, backend="serial", frontier=None):
    """A live v2 payload from a run governed to stop after 2 segments."""
    ck = tmp_path / f"v2-{backend}.ckpt"
    partial = _engine(backend=backend, frontier=frontier,
                      checkpoint=str(ck),
                      budget=RunBudget(max_segments=2)).run()
    assert isinstance(partial, PartialResult)
    v2 = load_checkpoint(ck)
    assert v2["codec"] == 2
    assert v2["frontier"]          # paths were actually pending
    return v2


def _journal(tmp_path, name, payload):
    path = tmp_path / name
    Checkpointer(path).write(payload, progress=0)
    return str(path)


def _sim_activity(v2):
    """The activity planes the serial and event engines checkpointed
    before the kernel owned the profile, built from a live payload's
    profile planes: their simulator had recorded the toggle and X union
    of every segment so far, and held the last segment's value planes
    -- the profile's constant planes."""
    assert v2["activity"]["repr"] == "profile"
    return dict(v2["activity"], repr="sim")


def test_precodec_serial_journal_resumes(tmp_path):
    v2 = _stopped_payload(tmp_path)

    # down-convert to the exact shape the pre-codec serial engine wrote
    legacy = {
        "engine": "serial",
        "design": v2["design"],
        "application": v2["application"],
        "stack": [(blob, forced, depth, parent)
                  for blob, forced, depth, parent, _ in v2["frontier"]],
        "csm": v2["csm"],
        "activity": {k: v for k, v in _sim_activity(v2).items()
                     if k != "repr"},
        "counters": {k: v for k, v in v2["counters"].items()
                     if k != "batches_done"},
        "path_records": v2["path_records"],
        "per_path_exercised": v2["per_path_exercised"],
        "journal": v2["journal"],
    }
    resumed = _engine(checkpoint=_journal(tmp_path, "legacy.ckpt", legacy),
                      resume=True).run()
    assert resumed.resumed

    baseline = run_one("dr5", "mult")
    assert resumed.profile.exercisable_gates() == \
        baseline.profile.exercisable_gates()
    # the DFS schedule is deterministic, so the resumed run replays the
    # tail of the same exploration
    assert resumed.paths_created == baseline.paths_created
    assert resumed.simulated_cycles == baseline.simulated_cycles


@pytest.mark.parametrize("backend", ["serial", "event"])
def test_v2_sim_checkpoint_resumes_bit_identical(tmp_path, backend):
    """A v2 ``"repr": "sim"`` checkpoint, as the serial and the event
    engine wrote it, resumes to the uninterrupted run's profile, plane
    for plane."""
    v2 = _stopped_payload(tmp_path, backend=backend)
    path = _journal(tmp_path, "sim.ckpt",
                    dict(v2, activity=_sim_activity(v2)))
    resumed = _engine(backend=backend, checkpoint=path,
                      resume=True).run()
    assert resumed.complete and resumed.resumed

    baseline = _engine(backend=backend).run()
    for plane in PLANES:
        assert (getattr(resumed.profile, plane)
                == getattr(baseline.profile, plane)).all(), plane
    assert resumed.paths_created == baseline.paths_created
    assert resumed.simulated_cycles == baseline.simulated_cycles


def _with_retired_slots(v2, strategy):
    """``v2`` as the kernel wrote it while frontier entries carried a
    fork depth and origin PC: ints in slots 2 and 4, ``strategy_meta``
    beside the strategy name.  A novelty journal listed its entries in
    novelty's priority order and kept its halt-PC counts."""
    frontier = [(blob, forced, 1 + offset % 3, parent, 0x40 + offset)
                for offset, (blob, forced, _, parent, _)
                in enumerate(v2["frontier"])]
    meta = {}
    if strategy == "novelty":
        frontier.reverse()
        meta = {"seen": {0x40 + i: 1 for i in range(len(frontier))}}
    return dict(v2, frontier=frontier, strategy=strategy,
                strategy_meta=meta)


def test_kernel_writes_none_into_the_retired_slots(tmp_path):
    v2 = _stopped_payload(tmp_path)
    assert "strategy_meta" not in v2
    for blob, forced, depth, parent, origin_pc in v2["frontier"]:
        assert isinstance(blob, bytes) and forced in (0, 1)
        assert depth is None and origin_pc is None
        assert parent is not None


@pytest.mark.parametrize("backend", ["serial", "event", "batch"])
@pytest.mark.parametrize("frontier", ["dfs", "bfs"])
def test_journal_with_depth_and_origin_slots_resumes(tmp_path, backend,
                                                     frontier):
    """A journal written under dfs or bfs while entries carried depth
    and origin PC resumes to the unbounded run, plane for plane and
    count for count."""
    v2 = _stopped_payload(tmp_path, backend=backend, frontier=frontier)
    path = _journal(tmp_path, "slots.ckpt",
                    _with_retired_slots(v2, frontier))
    resumed = _engine(backend=backend, frontier=frontier,
                      checkpoint=path, resume=True).run()
    assert resumed.complete and resumed.resumed

    baseline = _engine(backend=backend, frontier=frontier).run()
    for plane in PLANES:
        assert (getattr(resumed.profile, plane)
                == getattr(baseline.profile, plane)).all(), plane
    assert resumed.paths_created == baseline.paths_created
    assert resumed.simulated_cycles == baseline.simulated_cycles


@pytest.mark.parametrize("backend", ["serial", "batch"])
@pytest.mark.parametrize("frontier", ["dfs", "bfs"])
def test_novelty_journal_resumes_into_dfs_or_bfs(tmp_path, backend,
                                                 frontier):
    """A journal written under the retired novelty order re-pushes its
    entries into the resuming run's frontier and reaches the unbounded
    dichotomy; only path counts depend on the order."""
    v2 = _stopped_payload(tmp_path, backend=backend)
    path = _journal(tmp_path, "novelty.ckpt",
                    _with_retired_slots(v2, "novelty"))
    resumed = _engine(backend=backend, frontier=frontier,
                      checkpoint=path, resume=True).run()
    assert resumed.complete and resumed.resumed

    baseline = run_one("dr5", "mult")
    assert resumed.profile.exercisable_gates() == \
        baseline.profile.exercisable_gates()
    assert resumed.paths_created == 1 + 2 * resumed.splits


def test_checkpoint_planes_that_do_not_fit_are_refused(tmp_path):
    """A plane of the wrong length ends the resume with ResumeMismatch,
    even a one-net plane that numpy would broadcast across the
    profile."""
    v2 = _stopped_payload(tmp_path)
    planes = dict(_sim_activity(v2), toggled=v2["activity"]["toggled"][:1])
    path = _journal(tmp_path, "misfit.ckpt", dict(v2, activity=planes))
    with pytest.raises(ResumeMismatch, match="do not fit"):
        _engine(checkpoint=path, resume=True).run()


@pytest.mark.parametrize("engine,frontier", [("serial", "dfs"),
                                             ("batch", "bfs")])
def test_v2_journal_with_quarantine_fields_resumes(tmp_path, engine,
                                                   frontier):
    """The shape every serial and batch checkpoint had while the kernel
    kept a quarantine: an extra ``quarantine`` key and a
    ``quarantined_paths`` counter.  It resumes to the unbounded answer,
    and the retired counter does not leak onto the result."""
    v2 = _stopped_payload(tmp_path, backend=engine, frontier=frontier)
    older = dict(v2, quarantine=None,
                 counters=dict(v2["counters"], quarantined_paths=0))
    resumed = _engine(backend=engine, frontier=frontier,
                      checkpoint=_journal(tmp_path, "older.ckpt", older),
                      resume=True).run()
    assert resumed.complete and resumed.resumed
    assert not hasattr(resumed, "quarantined_paths")

    baseline = run_one("dr5", "mult", engine=engine, frontier=frontier)
    assert resumed.profile.exercisable_gates() == \
        baseline.profile.exercisable_gates()
    assert resumed.paths_created == baseline.paths_created
    assert resumed.simulated_cycles == baseline.simulated_cycles


def _pool_journals(tmp_path):
    """The two shapes the removed worker-pool engine wrote: a v2
    payload tagged ``parallel`` and its pre-codec ``pending`` payload."""
    v2 = _stopped_payload(tmp_path, frontier="bfs")
    pooled = dict(v2, engine="parallel", quarantine=None)
    precodec = {
        "engine": "parallel", "design": v2["design"],
        "application": v2["application"],
        "pending": [(blob, forced) for blob, forced, *_ in v2["frontier"]],
        "waves_done": 2, "csm": v2["csm"],
        "profile": {"toggled": [], "ever_x": [], "const_val": [],
                    "const_known": []},
        "counters": {"paths_created": v2["counters"]["paths_created"]},
        "path_records": v2["path_records"], "journal": v2["journal"],
    }
    return {"v2": _journal(tmp_path, "pool-v2.ckpt", pooled),
            "precodec": _journal(tmp_path, "pool-precodec.ckpt", precodec)}


@pytest.mark.parametrize("shape", ["v2", "precodec"])
def test_pool_journal_is_refused(tmp_path, shape):
    path = _pool_journals(tmp_path)[shape]
    with pytest.raises(ResumeMismatch, match="'parallel'"):
        _engine(checkpoint=path, resume=True).run()


@pytest.mark.parametrize("shape", ["v2", "precodec"])
def test_cli_resume_of_pool_journal_is_one_error_line(tmp_path, capsys,
                                                      shape):
    path = _pool_journals(tmp_path)[shape]
    capsys.readouterr()
    code = main(["run", "dr5", "mult", "--checkpoint", path, "--resume"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: checkpoint was written by the 'parallel' engine, "
        "not 'serial'"]


#: ``RunEvent("checkpoint", wave=16, segment=16, detail="3 pending
#: paths")`` as the engine pickled run-journal entries
#: (``pickle.HIGHEST_PROTOCOL``, protocol 5) while it kept them
PICKLED_RUN_EVENT = (
    b"\x80\x05\x95u\x00\x00\x00\x00\x00\x00\x00\x8c\x18"
    b"repro.coanalysis.results\x94\x8c\x08RunEvent\x94\x93\x94)\x81\x94}"
    b"\x94(\x8c\x04kind\x94\x8c\ncheckpoint\x94\x8c\x04wave\x94K\x10"
    b"\x8c\x07segment\x94K\x10\x8c\x06detail\x94\x8c\x0f3 pending paths"
    b"\x94ub.")


def _run_journal(entries=8):
    """Run-journal entries that pickle to the bytes the engine wrote:
    a bm32/Div run stopped after 9 segments and resumed held 8 in its
    newest record."""
    events = [pickle.loads(PICKLED_RUN_EVENT) for _ in range(entries)]
    assert events[0].kind == "checkpoint" and events[0].wave == 16
    assert pickle.dumps(events[0], protocol=pickle.HIGHEST_PROTOCOL) \
        == PICKLED_RUN_EVENT
    return events


def test_record_holding_run_journal_entries_resumes(tmp_path):
    v2 = _stopped_payload(tmp_path)
    assert v2["journal"] == []              # written empty now
    path = _journal(tmp_path, "runevents.ckpt",
                    dict(v2, journal=_run_journal()))
    resumed = _engine(checkpoint=path, resume=True).run()
    assert resumed.complete and resumed.resumed
    assert not hasattr(resumed, "journal")

    baseline = run_one("dr5", "mult")
    assert resumed.profile.exercisable_gates() == \
        baseline.profile.exercisable_gates()
    assert resumed.paths_created == baseline.paths_created
    assert resumed.simulated_cycles == baseline.simulated_cycles


def test_job_result_pickled_with_a_run_journal_loads(tmp_path):
    result = run_one("dr5", "mult")
    result.journal = _run_journal()        # the field results carried
    store = ContentStore(tmp_path / "store")
    job = Job(job_id="legacy", fingerprint="f" * 64,
              spec=JobSpec.from_dict({"design": "dr5",
                                      "benchmark": "mult"}),
              state="DONE",
              result_digest=store.put_bytes(pickle.dumps(
                  result, protocol=pickle.HIGHEST_PROTOCOL)))
    loaded = JobStore(store).load_result(job)
    assert loaded is not None
    assert loaded.summary() == result.summary()
    assert [event.kind for event in loaded.journal] == \
        ["checkpoint"] * 8


def test_v2_journal_with_segment_cache_counters_resumes(tmp_path):
    """Payloads written while runs had a segment cache count its hits
    and misses among their counters: decoding drops both, and the
    journal resumes to the unbounded answer."""
    v2 = _stopped_payload(tmp_path)
    counters = dict(v2["counters"], segment_cache_hits=3,
                    segment_cache_misses=2)
    old = dict(v2, counters=counters)
    assert decode_run_payload(old)["counters"] == v2["counters"]

    resumed = _engine(checkpoint=_journal(tmp_path, "cached.ckpt", old),
                      resume=True).run()
    assert resumed.complete and resumed.resumed
    assert not hasattr(resumed, "segment_cache_hits")
    baseline = _engine().run()
    for plane in PLANES:
        assert (getattr(resumed.profile, plane)
                == getattr(baseline.profile, plane)).all(), plane
    assert resumed.summary() == baseline.summary()


def test_job_stored_with_segment_cache_counters_loads(tmp_path):
    """A DONE job whose manifest metrics hold ``cache_hits`` /
    ``cache_misses`` and whose pickled result carries
    ``segment_cache_hits`` / ``_misses`` loads, and still serves an
    identical submission through dedup."""
    spec = JobSpec.from_dict({"design": "dr5", "benchmark": "mult"})
    result = run_one("dr5", "mult")
    expected = result.summary()
    result.segment_cache_hits, result.segment_cache_misses = 5, 1
    store = ContentStore(tmp_path / "store")
    job = Job.new(spec, spec.compute_fingerprint())
    job.advance("RUNNING")
    job.advance("DONE")
    job.summary = dict(expected, segment_cache_hits=5,
                       segment_cache_misses=1)
    job.metrics = dict(result.metrics.summary(), cache_hits=5,
                       cache_misses=1)
    job.result_digest = store.put_bytes(pickle.dumps(
        result, protocol=pickle.HIGHEST_PROTOCOL))
    JobStore(store).save(job)

    stored = JobStore(store).load(job.job_id)
    assert stored.metrics["cache_hits"] == 5
    loaded = JobStore(store).load_result(stored)
    assert loaded is not None
    assert loaded.summary() == expected

    sched = Scheduler(store, workers=1)       # never started: no worker
    sched.recover()
    dup = sched.submit(spec.to_dict())
    assert dup.state == "DONE" and dup.cache_hit
    assert dup.result_digest == job.result_digest
    assert sched.metrics()["per_job"][dup.job_id]["state"] == "DONE"
