"""Integration: interrupted runs converge to the uninterrupted answer.

A checkpointed run killed partway through (^C mid-segment) or stopped
by its governor must resume to the same exercisable-gate dichotomy as
an uninterrupted run -- never a silently different answer -- and a
checkpoint must only ever resume the run it belongs to.

The whole suite re-runs under either frontier order: set
``REPRO_FRONTIER`` (``dfs``/``bfs``) to pin the schedule -- CI runs
both legs -- since resumption must be order-independent.
"""

import os
import pickle
import struct
import zlib

import pytest

from repro.coanalysis.engine import CoAnalysisEngine
from repro.coanalysis.results import PartialResult, ResumeMismatch
from repro.csm.manager import ConservativeStateManager
from repro.reporting.runner import run_one
from repro.resilience import RunBudget
from repro.workloads import WORKLOADS, build_target

DESIGN, BENCH = "bm32", "Div"

#: frontier scheduling strategy under test (None = engine defaults)
FRONTIER = os.environ.get("REPRO_FRONTIER") or None

pytestmark = pytest.mark.timeout(600)


@pytest.fixture(scope="module")
def uninterrupted():
    """Serial, uninterrupted reference run (the ground truth)."""
    return run_one(DESIGN, BENCH, use_constraints=False,
                   frontier=FRONTIER or "dfs")


def _framed_records(path):
    """Every record of a checkpoint file, oldest first, read from the
    framing (``RCKP | version | length | crc32 | pickle``)."""
    data = path.read_bytes()
    header = struct.Struct("<BQI")
    records, pos = [], 0
    while pos < len(data):
        assert data[pos:pos + 4] == b"RCKP"
        _, length, crc = header.unpack_from(data, pos + 4)
        start = pos + 4 + header.size
        blob = data[start:start + length]
        assert zlib.crc32(blob) == crc
        records.append(pickle.loads(blob))
        pos = start + length
    return records


def make_serial(**kw):
    kw.setdefault("frontier", FRONTIER)
    target = build_target(DESIGN, WORKLOADS[BENCH])
    return CoAnalysisEngine(target, csm=ConservativeStateManager(),
                            application=BENCH, **kw)


def make_batch(**kw):
    kw.setdefault("frontier", FRONTIER)
    target = build_target(DESIGN, WORKLOADS[BENCH])
    return CoAnalysisEngine(target, csm=ConservativeStateManager(),
                            application=BENCH, backend="batch", **kw)


class TestInterruptResume:
    def test_serial_interrupt_and_resume_matches_uninterrupted(
            self, tmp_path):
        """A checkpointed run killed partway through and resumed yields
        the same CoAnalysisResult dichotomy as an uninterrupted run."""
        baseline = make_serial().run()

        ckpt = tmp_path / "serial.ckpt"
        seen = [0]
        budget = baseline.simulated_cycles // 2

        def killer(sim, path_id, cycle):
            seen[0] += 1
            if seen[0] > budget:
                raise KeyboardInterrupt

        interrupted = make_serial(checkpoint=str(ckpt),
                                  cycle_observer=killer)
        interrupted.checkpoint.every_segments = 4
        with pytest.raises(KeyboardInterrupt):
            interrupted.run()
        assert ckpt.exists()

        resumed = make_serial(checkpoint=str(ckpt), resume=True).run()
        assert resumed.resumed
        assert resumed.metrics.resumes == 1
        assert resumed.profile.exercisable_gates() == \
            baseline.profile.exercisable_gates()
        assert resumed.paths_created == baseline.paths_created
        assert resumed.paths_skipped == baseline.paths_skipped
        assert resumed.simulated_cycles == baseline.simulated_cycles
        assert len(resumed.path_records) == len(baseline.path_records)

    def test_serial_governed_stop_and_resume_matches_uninterrupted(
            self, tmp_path, uninterrupted):
        """A run stopped by its segment cap (a resumable PartialResult)
        and resumed converges to the uninterrupted run's dichotomy,
        path count and simulated cycles."""
        ckpt = tmp_path / "governed.ckpt"
        sliced = make_serial(checkpoint=str(ckpt),
                             budget=RunBudget(max_segments=20)).run()
        assert isinstance(sliced, PartialResult)
        assert sliced.stop_reason == "segments"
        assert sliced.pending_paths >= 1

        resumed = make_serial(checkpoint=str(ckpt), resume=True).run()
        assert resumed.complete and resumed.resumed
        assert resumed.profile.exercisable_gates() == \
            uninterrupted.profile.exercisable_gates()
        assert resumed.paths_created == uninterrupted.paths_created
        assert resumed.simulated_cycles == uninterrupted.simulated_cycles

    def test_batch_interrupt_and_resume_matches_uninterrupted(
            self, tmp_path, uninterrupted):
        """The lane-parallel batched engine honors the same checkpoint
        contract: a ^C mid-wave flushes a final checkpoint, and the
        resumed run converges to the uninterrupted serial dichotomy."""
        ckpt = tmp_path / "batch.ckpt"
        seen = [0]
        budget = uninterrupted.simulated_cycles // 2

        def killer(sim, path_id, cycle):
            seen[0] += 1
            if seen[0] > budget:
                raise KeyboardInterrupt

        interrupted = make_batch(checkpoint=str(ckpt),
                                 cycle_observer=killer)
        interrupted.checkpoint.every_segments = 4
        with pytest.raises(KeyboardInterrupt):
            interrupted.run()
        assert ckpt.exists()

        resumed = make_batch(checkpoint=str(ckpt), resume=True).run()
        assert resumed.resumed
        assert resumed.metrics.resumes == 1
        assert resumed.profile.exercisable_gates() == \
            uninterrupted.profile.exercisable_gates()
        assert resumed.paths_created == uninterrupted.paths_created
        assert resumed.paths_skipped == uninterrupted.paths_skipped

    def test_batch_checkpoint_rejected_by_other_engines(self, tmp_path):
        """Engine kinds are part of the checkpoint identity: a batch
        checkpoint must not silently resume on the serial engine."""
        ckpt = tmp_path / "batch_only.ckpt"
        make_batch(checkpoint=str(ckpt)).run()
        with pytest.raises(ResumeMismatch):
            make_serial(checkpoint=str(ckpt), resume=True).run()

    def test_resume_from_finished_run_is_instant(self, tmp_path):
        ckpt = tmp_path / "done.ckpt"
        first = make_serial(checkpoint=str(ckpt)).run()
        again = make_serial(checkpoint=str(ckpt), resume=True).run()
        assert again.resumed
        assert again.simulated_cycles == first.simulated_cycles
        assert again.profile.exercisable_gates() == \
            first.profile.exercisable_gates()

    def test_no_record_repeats_the_previous_one(self, tmp_path,
                                                uninterrupted):
        """A governed stop, a resume and a resume of the finished run
        each write only records that move past the newest one: every
        framed record in the file advances ``batches_done``."""
        ckpt = tmp_path / "stops.ckpt"
        stopped = make_serial(checkpoint=str(ckpt),
                              budget=RunBudget(max_segments=9)).run()
        assert isinstance(stopped, PartialResult)
        resumed = make_serial(checkpoint=str(ckpt), resume=True).run()
        again = make_serial(checkpoint=str(ckpt), resume=True).run()
        assert resumed.complete and again.complete
        assert again.profile.exercisable_gates() == \
            uninterrupted.profile.exercisable_gates()

        marks = [record["counters"]["batches_done"]
                 for record in _framed_records(ckpt)]
        assert len(marks) >= 3
        assert marks == sorted(set(marks)), marks
        assert marks[-1] == len(again.path_records)

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        ckpt = tmp_path / "other.ckpt"
        other = build_target(DESIGN, WORKLOADS["mult"])
        CoAnalysisEngine(other, csm=ConservativeStateManager(),
                         application="mult", checkpoint=str(ckpt)).run()
        with pytest.raises(ResumeMismatch):
            make_serial(checkpoint=str(ckpt), resume=True).run()

    def test_resume_without_record_starts_fresh(self, tmp_path):
        ckpt = tmp_path / "fresh.ckpt"
        result = make_serial(checkpoint=str(ckpt), resume=True).run()
        assert not result.resumed
        assert result.paths_created >= 1
