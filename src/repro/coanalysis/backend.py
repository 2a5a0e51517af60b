"""The SimBackend protocol and the one shared segment loop.

Every execution backend -- serial cycle, event-driven, lane-parallel
batch -- used to carry its own copy of the same three pieces of
plumbing:

* the *per-cycle segment loop* (restore, apply the forked branch
  decision, drive to fixpoint, boundary checks, budget check, activity
  record, clock edge, release the first-cycle force);
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
    depth: int = 0
    parent: Optional[int] = None            # spawning segment's path_id
    origin_pc: Optional[int] = None         # halt PC of the fork that
                                            # spawned this path (novelty)


@dataclass
class SegmentResult:
    """What one simulated segment reports back to the kernel."""

    outcome: str                            # "done" | "halt" | "budget"
    end_pc: Optional[int]
    cycles: int
    end_state: Optional[SimState] = None    # snapshot at a halt
    exercised: Optional[object] = None      # per-segment exercised nets
    #: per-segment activity planes ``(toggled, ever_x, val&known,
    #: known)``, attached when the executor runs in capture mode (the
    #: segment cache is on).  The kernel then owns profile absorption,
    #: in batch order, so a cached replay folds the exact same planes in
    #: the exact same order as the run that recorded them.
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
    #: set by the kernel when a segment cache is active: the backend
    #: must attach per-segment planes to ``SegmentResult.activity``
    #: instead of absorbing them into the profile itself
    capture_activity: bool = False

    def bind(self, result) -> None:
        """Give the backend the live result (journal, profile)."""

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

    def activity_snapshot(self) -> dict:
        """Toggle/X planes for the checkpoint payload."""
        raise NotImplementedError

    def activity_restore(self, planes: dict) -> None:
        """Apply checkpointed planes (raise ``ValueError`` on misfit)."""
        raise NotImplementedError

    def finalize(self, result) -> None:
        """Fold accumulated activity into ``result.profile``."""

    def close(self) -> None:
        """Release sims/files; called exactly once, even on error."""


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
    drive to fixpoint, boundary checks (skipped on the forced first
    cycle), budget check, activity record, observer hook, clock edge.
    Activity arming/parking is the caller's concern -- this function
    only runs the loop.
    """
    sim.restore(path.state)

    first_cycle_forced = path.forced_decision is not None
    if first_cycle_forced:
        sim.force(target.branch_force_net,
                  Logic.L1 if path.forced_decision else Logic.L0)

    cycles = 0
    while True:
        target.drive_all(sim)

        if not first_cycle_forced:
            outcome = boundary_outcome(target, sim)
            if outcome == "done":
                sim.record_activity_now()
                return SegmentResult("done", target.current_pc(sim),
                                     cycles)
            if outcome == "halt":
                sim.record_activity_now()
                pc = target.current_pc(sim)
                state = sim.snapshot(pc=pc) if pc is not None else None
                return SegmentResult("halt", pc, cycles, state)

        if cycles >= per_path or (total_remaining is not None
                                  and cycles >= total_remaining):
            sim.release()   # abandoned path: don't leak the branch
                            # force into the next segment's restore
            return SegmentResult("budget", target.current_pc(sim),
                                 cycles)

        sim.record_activity_now()
        if cycle_observer is not None:
            cycle_observer(sim, path_id, cycles)
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


def profile_activity_snapshot(result) -> dict:
    """Checkpoint planes for backends that absorb at retirement (their
    accumulated activity lives in ``result.profile``, not in a sim)."""
    profile = result.profile
    return {"repr": "profile",
            "toggled": profile.toggled.copy(),
            "ever_x": profile.ever_x.copy(),
            "val": profile.const_val.copy(),
            "known": profile.const_known.copy()}


def profile_activity_restore(result, planes: dict) -> None:
    """Inverse of :func:`profile_activity_snapshot`."""
    profile = result.profile
    profile.toggled[:] = planes["toggled"]
    profile.ever_x[:] = planes["ever_x"]
    profile.const_val[:] = planes["val"]
    profile.const_known[:] = planes["known"]
