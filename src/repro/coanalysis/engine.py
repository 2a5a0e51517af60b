"""Symbolic hardware-software co-analysis (Algorithm 1).

The engine drives a :class:`~repro.coanalysis.target.SymbolicTarget`
through the paper's procedure:

1. reset the design, load the application, set inputs to X;
2. simulate cycle by cycle until a monitored control-flow signal is X at a
   PC-changing instruction (``$monitor_x`` halts the simulation);
3. snapshot the state, present it to the Conservative State Manager;
   covered states are discarded, uncovered states are merged into a more
   conservative super-state and *both* branch outcomes are pushed as new
   execution paths (the decision net is forced 0/1 for one cycle);
4. repeat until the path stack is empty;
5. fold every path's toggle activity into a single profile whose
   complement is the guaranteed-unexercisable gate set.

This class is the one front door for every design and every engine:
the loop itself lives in
:class:`~repro.coanalysis.kernel.ExplorationKernel`, the simulation
backend in :class:`~repro.coanalysis.executors.SerialExecutor`.
``backend`` takes the engine names ``run_one``, the CLI, job specs,
checkpoints and fingerprints use: ``"serial"`` (the default) runs the
vectorized cycle engine, ``"event"`` the event-driven kernel behind the
same harness -- same kernel, same CSM, same result type -- and
``"batch"`` simulates the whole frontier in lockstep on the 64-lane
bit-packed engine
(:class:`~repro.coanalysis.batch_executor.BatchSegmentExecutor`).

A port-driven design (an FSM or accelerator without memories) is a
plain :class:`~repro.coanalysis.target.SymbolicTarget` subclass: it
overrides ``reset``, ``apply_symbolic_inputs``, ``is_done`` and
``at_branch_point`` and sets ``monitored_nets``, ``branch_force_net``
and ``pc_nets``; ``CoAnalysisEngine(target, backend="event")`` then
runs it on the paper's event-region simulator.
"""

from __future__ import annotations

from typing import Optional

from ..csm.manager import ConservativeStateManager
from .executors import SerialExecutor
from .kernel import ExplorationKernel
from .results import CoAnalysisResult
from .target import SymbolicTarget

#: the engine names ``backend`` takes -- and ``run_one``, the CLI, job
#: specs, checkpoints and fingerprints with it
ENGINES = ("serial", "event", "batch")


class CoAnalysisEngine:
    """Runs Algorithm 1 on one (application, design) pair."""

    def __init__(self, target: SymbolicTarget,
                 csm: Optional[ConservativeStateManager] = None,
                 max_cycles_per_path: int = 20000,
                 max_total_cycles: int = 2_000_000,
                 max_paths: int = 100_000,
                 application: str = "app",
                 cycle_observer=None,
                 record_per_path_activity: bool = False,
                 checkpoint=None,
                 resume: bool = False,
                 frontier=None,
                 tracer=None,
                 backend: str = "serial",
                 budget=None,
                 segment_cache=None):
        if backend not in ENGINES:
            raise ValueError(f"unknown backend {backend!r}; known: "
                             + ", ".join(map(repr, ENGINES)))
        self.target = target
        self.csm = csm or ConservativeStateManager()
        self.max_cycles_per_path = max_cycles_per_path
        self.max_total_cycles = max_total_cycles
        self.max_paths = max_paths
        self.application = application
        #: a Checkpointer (or path coerced to one) journaling the run so
        #: an interrupted exploration can be resumed; ``resume=True``
        #: continues from the newest intact record instead of starting
        #: fresh.  A KeyboardInterrupt mid-segment writes a final
        #: checkpoint before propagating, so ^C never loses progress.
        from ..resilience.checkpoint import as_checkpointer
        self.checkpoint = as_checkpointer(checkpoint)
        self.resume = resume
        #: frontier scheduling policy: a name from
        #: :data:`~repro.coanalysis.frontier.FRONTIER_STRATEGIES`
        #: (``"dfs"``/``"bfs"``), or None for the paper's depth-first
        #: stack
        self.frontier = frontier
        #: optional :class:`~repro.coanalysis.trace.Tracer` receiving
        #: the structured event stream (JSONL sink, progress line, ...)
        self.tracer = tracer
        self.backend = backend
        #: optional callable(sim, path_id, cycle) invoked on every
        #: settled cycle of every explored path -- the hook used by the
        #: peak-power analysis and by waveform dumping
        self.cycle_observer = cycle_observer
        #: when True, each PathRecord gains a per-segment exercised-net
        #: array in result.per_path_exercised (feeds the power-gating
        #: analysis of prior work [6])
        self.record_per_path_activity = record_per_path_activity
        #: optional :class:`~repro.resilience.governor.RunBudget` (or
        #: governor) ending the run as a PartialResult when a deadline,
        #: RSS ceiling, or frontier/segment cap trips
        self.budget = budget
        #: optional :class:`~repro.store.segments.SegmentResultCache`:
        #: settled segments whose (run, state, decision) fingerprints
        #: match a prior run are replayed instead of re-simulated
        self.segment_cache = segment_cache

    def run(self) -> CoAnalysisResult:
        if self.backend == "batch":
            from .batch_executor import BatchSegmentExecutor
            executor = BatchSegmentExecutor(
                self.target, cycle_observer=self.cycle_observer)
        else:
            executor = SerialExecutor(
                self.target, cycle_observer=self.cycle_observer,
                backend=self.backend)
        kernel = ExplorationKernel(
            executor, csm=self.csm, frontier=self.frontier,
            max_cycles_per_path=self.max_cycles_per_path,
            max_total_cycles=self.max_total_cycles,
            max_paths=self.max_paths,
            application=self.application, checkpoint=self.checkpoint,
            resume=self.resume, tracer=self.tracer,
            budget=self.budget, segment_cache=self.segment_cache,
            record_per_path_activity=self.record_per_path_activity)
        return kernel.run()
