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

:class:`CoAnalysisEngine` is the one front door for every design and
every engine: it *is* the
:class:`~repro.coanalysis.kernel.ExplorationKernel` for a target, with
the simulation backend built from ``backend``.  Every exploration
setting (CSM, frontier order, budgets, checkpoint, trace, ...) is the
kernel's and is declared there.  ``backend`` takes
the engine names ``run_one``, the CLI, job specs, checkpoints and
fingerprints use: ``"serial"`` (the default) runs the vectorized cycle
engine, ``"event"`` the event-driven kernel behind the same harness
(both through :class:`~repro.coanalysis.executors.SerialExecutor`),
and ``"batch"`` simulates the whole frontier in lockstep on the
64-lane bit-packed engine
(:class:`~repro.coanalysis.batch_executor.BatchSegmentExecutor`).

A port-driven design (an FSM or accelerator without memories) is a
plain :class:`~repro.coanalysis.target.SymbolicTarget` subclass: it
overrides ``reset``, ``apply_symbolic_inputs``, ``is_done`` and
``at_branch_point`` and sets ``monitored_nets``, ``branch_force_net``
and ``pc_nets``; ``CoAnalysisEngine(target, backend="event")`` then
runs it on the paper's event-region simulator.
"""

from __future__ import annotations

from .executors import SerialExecutor
from .kernel import ExplorationKernel
from .target import SymbolicTarget

#: the engine names ``backend`` takes -- and ``run_one``, the CLI, job
#: specs, checkpoints and fingerprints with it
ENGINES = ("serial", "event", "batch")


class CoAnalysisEngine(ExplorationKernel):
    """Runs Algorithm 1 on one (application, design) pair.

    ``cycle_observer`` is an optional callable(sim, path_id, cycle)
    invoked on every settled cycle of every segment, in order, the
    boundary (done, halt or budget) cycle included: a segment of ``k``
    clocked cycles is observed at cycles ``0..k``.  It is the hook of
    the peak-power and coverage analyses, and
    :func:`~repro.coanalysis.concrete.run_concrete` calls it the same
    way.  Every other keyword is an :class:`ExplorationKernel` setting.
    """

    def __init__(self, target: SymbolicTarget, *, backend: str = "serial",
                 cycle_observer=None, **settings):
        if backend not in ENGINES:
            raise ValueError(f"unknown backend {backend!r}; known: "
                             + ", ".join(map(repr, ENGINES)))
        if backend == "batch":
            from .batch_executor import BatchSegmentExecutor
            executor = BatchSegmentExecutor(
                target, cycle_observer=cycle_observer)
        else:
            executor = SerialExecutor(
                target, cycle_observer=cycle_observer, backend=backend)
        super().__init__(executor, **settings)
