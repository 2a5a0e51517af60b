"""Integration: governed runs end as resumable PartialResults (ISSUE 6).

A run that hits its wall-clock deadline, memory ceiling, frontier cap,
or receives SIGTERM must flush a final checkpoint and return a
first-class :class:`PartialResult` -- and resuming it must converge to
the same answer as an unbounded run.
"""

import os
import signal

import pytest

from repro.coanalysis.engine import CoAnalysisEngine
from repro.coanalysis.results import PartialResult
from repro.csm.manager import ConservativeStateManager
from repro.reporting.runner import run_one
from repro.resilience import RunBudget, RunGovernor, load_checkpoint
from repro.workloads import WORKLOADS, build_target

DESIGN, BENCH = "bm32", "Div"

pytestmark = pytest.mark.timeout(600)

#: the SIGTERM lands on this cycle of this path (a mid-run segment)
SIGTERM_AT = (5, 1)


@pytest.fixture(scope="module")
def baseline():
    """Unbounded, fault-free serial reference run."""
    return run_one(DESIGN, BENCH, use_constraints=False)


def make_serial(**kw):
    target = build_target(DESIGN, WORKLOADS[BENCH])
    return CoAnalysisEngine(target, csm=ConservativeStateManager(),
                            application=BENCH, **kw)


class TestGovernedStops:
    def test_expired_deadline_returns_partial_not_exception(
            self, tmp_path, baseline):
        """deadline=0 trips at the first boundary: nothing explored,
        everything checkpointed, stop_reason machine-readable."""
        ckpt = tmp_path / "deadline.ckpt"
        partial = make_serial(checkpoint=str(ckpt),
                              budget=RunBudget(deadline_seconds=0.0)).run()
        assert isinstance(partial, PartialResult)
        assert partial.stop_reason == "deadline"
        assert not partial.complete
        assert partial.pending_paths == 1        # the initial path
        assert partial.path_records == []
        assert partial.metrics.stop_reason == "deadline"
        assert load_checkpoint(ckpt) is not None

        resumed = make_serial(checkpoint=str(ckpt), resume=True).run()
        assert resumed.complete
        assert resumed.profile.exercisable_gates() == \
            baseline.profile.exercisable_gates()

    def test_memory_watchdog_stops_the_run(self, tmp_path):
        ckpt = tmp_path / "mem.ckpt"
        governor = RunGovernor(RunBudget(max_rss_mb=64.0),
                               rss_mb=lambda: 512.0)    # pinned over limit
        partial = make_serial(checkpoint=str(ckpt), budget=governor).run()
        assert isinstance(partial, PartialResult)
        assert partial.stop_reason == "memory"
        assert "512.0" in partial.stop_detail
        assert partial.metrics.stop_reason == "memory"

    def test_sigterm_mid_run_checkpoints_and_resumes(self, tmp_path,
                                                     baseline):
        """The acceptance scenario: a governed bm32 run SIGTERMed
        mid-segment stops gracefully with a final checkpoint, and the
        relaunched run converges to the unbounded answer."""
        ckpt = tmp_path / "sigterm.ckpt"
        sent = []

        def preempt(sim, path_id, cycle):
            # exactly a batch scheduler's preemption, delivered to this
            # process in the middle of a segment
            if (path_id, cycle) == SIGTERM_AT:
                sent.append(path_id)
                os.kill(os.getpid(), signal.SIGTERM)

        handler_before = signal.getsignal(signal.SIGTERM)
        engine = make_serial(checkpoint=str(ckpt), cycle_observer=preempt,
                             budget=RunBudget())
        partial = engine.run()
        assert sent == [SIGTERM_AT[0]]
        assert isinstance(partial, PartialResult)
        assert partial.stop_reason == "interrupted"
        assert "SIGTERM" in partial.stop_detail
        assert partial.pending_paths >= 1
        assert partial.metrics.stop_reason == "interrupted"
        assert load_checkpoint(ckpt) is not None
        # the previous disposition was restored on exit
        assert signal.getsignal(signal.SIGTERM) == handler_before

        resumed = make_serial(checkpoint=str(ckpt), resume=True).run()
        assert resumed.complete and resumed.resumed
        assert resumed.profile.exercisable_gates() == \
            baseline.profile.exercisable_gates()

    def test_partial_summary_is_machine_readable(self, tmp_path):
        partial = make_serial(
            checkpoint=str(tmp_path / "s.ckpt"),
            budget=RunBudget(deadline_seconds=0.0)).run()
        summary = partial.summary()
        assert summary["partial"] is True
        assert summary["stop_reason"] == "deadline"
        assert summary["pending_paths"] == partial.pending_paths
