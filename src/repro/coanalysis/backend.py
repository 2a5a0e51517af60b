"""The SimBackend protocol and the one shared segment loop.

Every execution backend -- serial cycle, event-driven, lane-parallel
batch -- used to carry its own copy of the same three pieces of
plumbing:

* the *per-cycle segment loop* (restore, apply the forked branch
  decision, drive to fixpoint, activity record and observer, boundary
  checks, budget check, clock edge, release the first-cycle force);
* the *initial-state preparation* (reset, symbolic inputs, drive);
* the *per-batch dispatch* (walk the pending paths, decrement the
  total-cycle budget per finished segment).

This module is the single home for all three.  Backends implement
:class:`SimBackend` (the protocol the exploration kernel drives) and
reuse :func:`simulate_segment` / :func:`boundary_outcome` /
:func:`prepare_initial_state` instead of restating the loop, so a
semantics fix lands once and every engine inherits it.  The lockstep
batch executor cannot call :func:`simulate_segment` directly (its
cycles advance all lanes at once) but shares
:func:`boundary_outcome`, keeping the halt policy literally the same
expression on every engine -- the event engine included: its settle
drains every event region of the time step, the Symbolic region last,
before the check reads the monitored signals, so the check sees what
the paper's ``$monitor_x`` task sees.

Activity flows one way.  Each backend reports the toggle/X planes of
the segment it just simulated in :attr:`SegmentResult.activity`, and
the kernel alone folds them into the run's profile, in batch order --
simulated or restored from a checkpoint alike.  A backend keeps no
activity of its own between segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..logic.value import Logic
from ..sim.state import SimState


@dataclass
class PendingPath:
    """An unprocessed execution path (an entry of Algorithm 1's stack U)."""

    state: SimState
    forced_decision: Optional[int] = None   # 0 / 1 / None (initial path)
    parent: Optional[int] = None            # spawning segment's path_id


@dataclass
class SegmentResult:
    """What one simulated segment reports back to the kernel."""

    outcome: str                            # "done" | "halt" | "budget"
    end_pc: Optional[int]
    cycles: int
    end_state: Optional[SimState] = None    # snapshot at a halt
    #: this segment's own activity planes ``(toggled, ever_x,
    #: val&known, known)``, always set by the backend.  The kernel folds
    #: them into the profile in batch order.
    activity: Optional[tuple] = None


@dataclass
class BatchContext:
    """Budget envelope the kernel hands a backend for one batch."""

    first_path_id: int
    max_cycles_per_path: int
    #: total-cycle budget left at batch start (``None`` = unlimited).
    #: Backends decrement it per segment so a batch cannot overshoot.
    total_cycles_remaining: Optional[int] = None


class SimBackend:
    """Protocol a simulation backend implements to plug into the kernel.

    Attributes
    ----------
    kind : str
        Checkpoint engine tag (``"serial"`` / ``"event"`` /
        ``"batch"``); resuming across kinds is a mismatch.
    design : str
        The design name stamped on the result.
    netlist : Netlist
        The netlist under analysis (sizes the toggle profile).
    batch_limit : Optional[int]
        How many paths the kernel should pop per batch: ``1`` for
        one-sim-at-a-time backends, ``None`` for "the whole frontier"
        (the lockstep batch backend).
    settle_kernel : Optional[str]
        Which level kernel settles the prepared simulator (``"c"`` or
        ``"numpy"``, see :mod:`repro.sim.native`), named in the trace's
        ``run_start``; None for a backend without level tables.
    """

    kind = "abstract"
    design = "?"
    netlist = None
    batch_limit: Optional[int] = 1
    settle_kernel: Optional[str] = None

    def prepare(self) -> SimState:
        """Reset, load, apply symbolic inputs; return the initial state."""
        raise NotImplementedError

    def run_batch(self, batch: List[PendingPath],
                  ctx: BatchContext) -> List[SegmentResult]:
        """Simulate every path in ``batch`` to its segment boundary.

        The default walks the batch one segment at a time through
        :meth:`run_segment`, decrementing the total-cycle budget per
        finished segment -- the dispatch loop every one-sim-at-a-time
        backend previously duplicated.  The lockstep batch backend
        overrides the whole method.
        """
        out: List[SegmentResult] = []
        remaining = ctx.total_cycles_remaining
        for offset, path in enumerate(batch):
            segment = self.run_segment(path, ctx.first_path_id + offset,
                                       ctx.max_cycles_per_path, remaining)
            if remaining is not None:
                remaining -= segment.cycles
            out.append(segment)
        return out

    def run_segment(self, path: PendingPath, path_id: int, per_path: int,
                    total_remaining: Optional[int]) -> SegmentResult:
        """Simulate one path to its boundary (default run_batch hook)."""
        raise NotImplementedError

    def finalize(self, result) -> None:
        """Stamp engine-specific statistics on the finished result."""


def boundary_outcome(target, sim) -> Optional[str]:
    """Algorithm 1's halt policy: ``"done"``, ``"halt"`` or ``None``.

    The one expression every backend uses to decide whether a settled
    cycle is a segment boundary -- the program finished, or control
    reached a branch point whose decision (or monitored state) carries
    an X and the path must fork.
    """
    if target.is_done(sim):
        return "done"
    bp = target.at_branch_point(sim)
    if bp is not Logic.L0 and (not bp.is_known
                               or target.monitored_has_x(sim)):
        return "halt"
    return None


def simulate_segment(target, sim, path: PendingPath, path_id: int,
                     per_path: int, total_remaining: Optional[int],
                     cycle_observer=None) -> SegmentResult:
    """The per-cycle segment loop (Algorithm 1's inner loop), shared by
    the serial and event backends.

    Restores ``path.state`` into ``sim``, applies the forked branch
    decision as a one-cycle force, then advances cycle by cycle:
    drive to fixpoint, activity record, observer hook, boundary checks
    (skipped on the forced first cycle), budget check, clock edge.
    Activity and the observer therefore see every settled cycle of the
    segment, ``0..cycles`` inclusive, the boundary cycle included.
    Arming and collecting the activity planes is the caller's concern
    -- this function only runs the loop.
    """
    sim.restore(path.state)

    first_cycle_forced = path.forced_decision is not None
    if first_cycle_forced:
        sim.force(target.branch_force_net,
                  Logic.L1 if path.forced_decision else Logic.L0)

    cycles = 0
    while True:
        target.drive_all(sim)
        sim.record_activity_now()
        if cycle_observer is not None:
            cycle_observer(sim, path_id, cycles)

        if not first_cycle_forced:
            outcome = boundary_outcome(target, sim)
            if outcome == "done":
                return SegmentResult("done", target.current_pc(sim),
                                     cycles)
            if outcome == "halt":
                pc = target.current_pc(sim)
                state = sim.snapshot(pc=pc) if pc is not None else None
                return SegmentResult("halt", pc, cycles, state)

        if cycles >= per_path or (total_remaining is not None
                                  and cycles >= total_remaining):
            sim.release()   # abandoned path: don't leak the branch
                            # force into the next segment's restore
            return SegmentResult("budget", target.current_pc(sim),
                                 cycles)

        target.on_edge(sim)
        sim.clock_edge()
        cycles += 1
        if first_cycle_forced:
            sim.release()
            first_cycle_forced = False


def prepare_initial_state(target, sim) -> SimState:
    """Reset, apply symbolic inputs, drive: the shared ``prepare()``."""
    target.reset(sim)
    target.apply_symbolic_inputs(sim)
    target.drive_all(sim)
    return sim.snapshot(pc=target.current_pc(sim))

