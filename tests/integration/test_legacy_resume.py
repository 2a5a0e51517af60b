"""Regression: checkpoints written by earlier engines still resume.

Before the kernel extraction the serial engine had a private checkpoint
payload shape; those journals exist on disk in the wild, so
:func:`decode_run_payload` must keep upgrading them.  Later v2 payloads
carried a poison-segment ``quarantine`` snapshot and a
``quarantined_paths`` counter; those must resume too.  Each test
manufactures a faithful old-format journal by converting a real v2
payload, resumes it through the kernel, and checks the run completes
with the same answer as an uninterrupted one.

Journals written by the removed worker-pool engine (tag ``"parallel"``)
must be refused with the kernel's engine-mismatch error, never resumed
on another engine.
"""

import pytest

from repro.cli import main
from repro.coanalysis.engine import CoAnalysisEngine
from repro.coanalysis.results import PartialResult, ResumeMismatch
from repro.reporting.runner import run_one
from repro.resilience.checkpoint import Checkpointer, load_checkpoint
from repro.resilience.governor import RunBudget
from repro.workloads import WORKLOADS, build_target


def _engine(**kw):
    return CoAnalysisEngine(build_target("dr5", WORKLOADS["mult"]),
                            application="mult", **kw)


def _stopped_payload(tmp_path, backend="cycle", frontier=None):
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
        "activity": {k: v for k, v in v2["activity"].items()
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


@pytest.mark.parametrize("engine,frontier", [("serial", "dfs"),
                                             ("batch", "bfs")])
def test_v2_journal_with_quarantine_fields_resumes(tmp_path, engine,
                                                   frontier):
    """The shape every serial and batch checkpoint had while the kernel
    kept a quarantine: an extra ``quarantine`` key and a
    ``quarantined_paths`` counter.  It resumes to the unbounded answer,
    and the retired counter does not leak onto the result."""
    backend = {"serial": "cycle", "batch": "batch"}[engine]
    v2 = _stopped_payload(tmp_path, backend=backend, frontier=frontier)
    older = dict(v2, quarantine=None,
                 counters=dict(v2["counters"], quarantined_paths=0))
    resumed = _engine(backend=backend, frontier=frontier,
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
