"""Co-analysis result records (the paper's reported metrics).

Table 3 reports exercisable gate counts and percentage reduction; Table 4
reports paths created, paths skipped, and simulated cycles.  These records
carry exactly those quantities, plus enough detail for the ablation
benches (per-path segments, CSM statistics, wall-clock time).  What
happened to the run itself -- checkpoints, resumes, interrupts, governed
stops -- is in its trace and in ``result.metrics``, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.activity import ToggleProfile


@dataclass
class PathRecord:
    """One simulated execution segment (pop of Algorithm 1's U stack)."""

    path_id: int
    start_pc: Optional[int]
    end_pc: Optional[int]
    cycles: int
    outcome: str                 # "split" | "skipped" | "done" | "budget"
    forced_decision: Optional[int] = None
    #: path_id of the segment whose split spawned this one (None = root)
    parent: Optional[int] = None


class RunEvent:
    """An entry of the retired run journal, kept so that checkpoints
    and stored results pickled with one still load.  Nothing creates
    one: the trace records checkpoints, resumes, interrupts and
    governed stops."""


@dataclass
class CoAnalysisResult:
    """Everything Algorithm 1 produces for one (application, design) pair."""

    design: str
    application: str
    profile: ToggleProfile
    paths_created: int = 0
    paths_skipped: int = 0
    splits: int = 0
    simulated_cycles: int = 0
    wall_seconds: float = 0.0
    csm_stats: Dict[str, int] = field(default_factory=dict)
    path_records: List[PathRecord] = field(default_factory=list)
    #: always 0 on a returned result: a segment that exhausts a cycle
    #: budget ends the run with CoAnalysisError.  Kept in summary() and
    #: checkpoint counters, whose readers check it
    truncated_paths: int = 0
    #: per-segment exercised-net arrays (aligned with path_records);
    #: populated when the engine runs with record_per_path_activity
    per_path_exercised: List = field(default_factory=list)
    #: True when this result continues an earlier checkpointed run
    resumed: bool = False
    #: discrete events processed (event-driven backend only; 0 otherwise)
    events_executed: int = 0
    #: aggregated :class:`~repro.coanalysis.trace.RunMetrics` derived
    #: from the kernel's trace stream (None for hand-built results)
    metrics: Optional[object] = None
    #: lane accounting from the batched backend
    #: (:class:`~repro.coanalysis.batch_executor.BatchRunStats`; None
    #: for the other engines)
    batch_stats: Optional[object] = None

    @property
    def complete(self) -> bool:
        """True when exploration exhausted the frontier (a
        :class:`PartialResult` reports False)."""
        return True

    # -- headline metrics ------------------------------------------------------
    @property
    def total_gates(self) -> int:
        return self.profile.netlist.gate_count()

    @property
    def exercisable_gate_count(self) -> int:
        return len(self.profile.exercisable_gates())

    @property
    def unexercisable_gate_count(self) -> int:
        return self.total_gates - self.exercisable_gate_count

    @property
    def reduction_percent(self) -> float:
        """Percentage of gates proven unexercisable (Table 3's metric)."""
        if self.total_gates == 0:
            return 0.0
        return 100.0 * self.unexercisable_gate_count / self.total_gates

    def summary(self) -> Dict[str, object]:
        return {
            "design": self.design,
            "application": self.application,
            "total_gates": self.total_gates,
            "exercisable_gates": self.exercisable_gate_count,
            "reduction_percent": round(self.reduction_percent, 2),
            "paths_created": self.paths_created,
            "paths_skipped": self.paths_skipped,
            "simulated_cycles": self.simulated_cycles,
            "truncated_paths": self.truncated_paths,
        }


@dataclass
class PartialResult(CoAnalysisResult):
    """A governed run that stopped early, as a first-class outcome.

    Carries everything a :class:`CoAnalysisResult` does -- the activity
    explored *so far* -- plus a machine-readable ``stop_reason`` (one of
    :data:`repro.resilience.governor.STOP_REASONS`) and the number of
    paths still pending.  A final checkpoint was flushed before the
    stop, so re-running with ``resume=True`` continues exactly where
    this result ends.

    The profile of a partial run is a *subset* of the converged answer:
    gates it marks exercisable are, gates it has not reached yet may
    still be.  Treat the dichotomy as sound only once a resumed run
    returns a complete :class:`CoAnalysisResult`.
    """

    stop_reason: str = "unknown"
    stop_detail: str = ""
    #: paths still pending on the frontier at the stop
    pending_paths: int = 0

    @property
    def complete(self) -> bool:
        return False

    @classmethod
    def from_result(cls, result: CoAnalysisResult, stop_reason: str,
                    stop_detail: str = "",
                    pending_paths: int = 0) -> "PartialResult":
        import dataclasses
        data = {f.name: getattr(result, f.name)
                for f in dataclasses.fields(CoAnalysisResult)}
        return cls(stop_reason=stop_reason, stop_detail=stop_detail,
                   pending_paths=pending_paths, **data)

    def summary(self) -> Dict[str, object]:
        out = super().summary()
        out["partial"] = True
        out["stop_reason"] = self.stop_reason
        out["stop_detail"] = self.stop_detail
        out["pending_paths"] = self.pending_paths
        return out


class CoAnalysisError(Exception):
    """Analysis could not complete soundly (e.g. path budget exhausted)."""


class CheckpointError(CoAnalysisError):
    """A checkpoint could not be written, read, or applied."""


class ResumeMismatch(CheckpointError):
    """A checkpoint does not belong to the run being resumed
    (different design, application, or engine kind)."""

