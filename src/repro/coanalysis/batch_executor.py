"""The batched frontier backend: one settle advances a whole wave.

:class:`BatchSegmentExecutor` plugs the bit-packed lane-parallel
:class:`~repro.sim.batch_sim.BatchCycleSim` into the exploration kernel
through the same :class:`~repro.coanalysis.backend.SimBackend`
protocol the serial and event backends implement -- the kernel, CSM,
frontier strategies, budgets, checkpointing, governor and trace layers
run unchanged.

It asks the kernel for the *whole frontier* per batch
(``batch_limit=None``) and simulates every pending path in
**lockstep inside one process**: each path gets a lane,
all lanes share every ``settle()``/``clock_edge()``, and a lane that
reaches its segment boundary (done / halt / budget) retires
mid-flight while the rest keep running.

Retired lanes are not just dropped: **lane compaction** refills the
freed slots from the still-pending frontier at the top of the next
lockstep iteration, without repacking the survivors.  A refilled lane
restores its path's state (``settle=False``), takes the shared settle
alongside the running lanes, arms its activity window, applies its
branch force -- and from then on is indistinguishable from a lane that
started the wave.  Occupancy therefore stays near ``max_lanes`` for the
whole batch instead of draining to a straggler per fixed sub-wave;
``BatchRunStats.refills``/``compactions`` count how often that happened
and flow into each ``"batch"`` trace event.

The plane holds :data:`~repro.sim.planes.LANE_CAPACITY` (64) lanes,
one ``uint64`` word per net; ``max_lanes`` caps live occupancy within
it -- tests and ``bench_engines`` use it to force compaction with tiny
waves.

Per-cycle semantics mirror :func:`~repro.coanalysis.backend.simulate_segment`
exactly -- drive-to-fixpoint, activity recorded and the observer
called for every live lane, then boundary checks
(:func:`~repro.coanalysis.backend.boundary_outcome`, the same
expression every engine uses) before the budget check, the first-cycle
branch force released after the first edge -- so the exercisable-gate
dichotomy is identical across engines (pinned by the equivalence
matrix).  Because a refilled lane's first boundary check precedes its
first clock edge, compaction is invisible to the results: only lane
*scheduling* changes, never per-path semantics.  One intentional divergence from
the serial engine: the total-cycle budget is folded into each lane's
allowance at induction and decremented at retirement, because
lockstep lanes share wall-clock cycles; the kernel raises on any
budget exhaustion either way.

A retiring lane hands its segment's toggle/X and value planes back in
``SegmentResult.activity`` and is dropped (the next ``alloc_lane``
clears its planes); the kernel folds them into the profile in batch
order, not retirement order, as on every engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..logic.value import Logic
from ..sim.batch_sim import LANE_CAPACITY, BatchCycleSim, LaneView
from ..sim.state import SimState
from .backend import (BatchContext, PendingPath, SegmentResult, SimBackend,
                      boundary_outcome, prepare_initial_state)
from .results import CoAnalysisResult
from .target import SymbolicTarget


@dataclass
class BatchRunStats:
    """Lane accounting for one batched run (the ``/trace`` batch data)."""

    #: lockstep waves started from an empty lane file (a frontier batch
    #: opens one; compaction keeps it running instead of starting more)
    waves: int = 0
    #: segments completed across all waves
    segments: int = 0
    #: most lanes ever live at once (packing high-water mark)
    peak_lanes: int = 0
    #: sum over segments of their cycle counts (lane-cycles simulated)
    lane_cycles: int = 0
    #: lockstep iterations actually stepped (shared settles); the ratio
    #: ``lane_cycles / lockstep_cycles`` is the realized parallelism
    lockstep_cycles: int = 0
    #: per-wave *initial* lane counts, in run order
    wave_lanes: List[int] = field(default_factory=list)
    #: lockstep iterations that swapped fresh paths into freed lanes
    #: while other lanes kept running (mid-flight compaction events)
    compactions: int = 0
    #: paths inducted into freed lanes mid-flight (total across
    #: compaction events)
    refills: int = 0

    def realized_parallelism(self) -> float:
        if not self.lockstep_cycles:
            return 0.0
        return self.lane_cycles / self.lockstep_cycles


class _LiveLane:
    """Bookkeeping for one occupied lane slot during a streaming batch."""

    __slots__ = ("index", "lane", "view", "cycles", "allowance",
                 "first_forced")

    def __init__(self, index: int, lane: int, view: LaneView,
                 allowance: int):
        self.index = index          # position in the frontier batch
        self.lane = lane
        self.view = view
        self.cycles = 0
        self.allowance = allowance
        self.first_forced = False


class BatchSegmentExecutor(SimBackend):
    """Lane-parallel in-process backend (``--engine batch``)."""

    kind = "batch"
    batch_limit = None      # give us the whole frontier; we stream it

    def __init__(self, target: SymbolicTarget,
                 cycle_observer=None,
                 max_lanes: int = LANE_CAPACITY):
        if not 1 <= max_lanes <= LANE_CAPACITY:
            raise ValueError(f"max_lanes must be in [1, {LANE_CAPACITY}]")
        self.target = target
        self.netlist = target.netlist
        self.design = target.name
        self.cycle_observer = cycle_observer
        #: live-occupancy cap within the plane's 64 lanes
        self.max_lanes = max_lanes
        self.stats = BatchRunStats()
        self.sim: Optional[BatchCycleSim] = None
        self._last_batch: Dict[str, int] = {}

    # -- protocol -----------------------------------------------------------
    def prepare(self) -> SimState:
        target = self.target
        self.sim = BatchCycleSim(target.compiled)
        self.settle_kernel = self.sim.kernel
        lane = self.sim.alloc_lane()
        view = self.sim.lane_view(lane)
        target.prepare_sim(view)
        prepare_initial_state(target, view)
        state = self.sim.lane_snapshot(lane, pc=target.current_pc(view))
        self.sim.drop_lane(lane)
        return state

    def run_batch(self, batch: List[PendingPath],
                  ctx: BatchContext) -> List[SegmentResult]:
        return self._run_streaming(batch, ctx.first_path_id,
                                   ctx.max_cycles_per_path,
                                   ctx.total_cycles_remaining)

    def batch_stats(self) -> Dict[str, int]:
        """Lane accounting the kernel folds into each batch trace event."""
        return dict(self._last_batch)

    def finalize(self, result: CoAnalysisResult) -> None:
        result.batch_stats = self.stats

    # -- one streaming batch ------------------------------------------------
    def _run_streaming(self, paths: List[PendingPath], first_path_id: int,
                       per_path: int,
                       remaining: Optional[int]) -> List[SegmentResult]:
        target, sim, stats = self.target, self.sim, self.stats
        finished: Dict[int, SegmentResult] = {}
        live: List[_LiveLane] = []
        next_index = 0
        compactions = 0
        refills = 0
        peak = 0

        def allowance() -> int:
            return per_path if remaining is None \
                else min(per_path, max(0, remaining))

        def retire(slot: _LiveLane, outcome: str, end_pc: Optional[int],
                   end_state: Optional[SimState] = None) -> None:
            nonlocal remaining
            finished[slot.index] = self._retire(
                slot.lane, outcome, end_pc, slot.cycles, end_state)
            if remaining is not None:
                remaining = max(0, remaining - slot.cycles)

        while live or next_index < len(paths):
            # -- compaction: refill freed lane slots from the frontier --
            if next_index < len(paths) and len(live) < self.max_lanes:
                fresh: List[_LiveLane] = []
                while next_index < len(paths) \
                        and len(live) + len(fresh) < self.max_lanes:
                    path = paths[next_index]
                    lane = sim.alloc_lane()
                    view = sim.lane_view(lane)
                    target.prepare_sim(view)
                    sim.lane_restore(lane, path.state, settle=False)
                    fresh.append(_LiveLane(next_index, lane, view,
                                           allowance()))
                    next_index += 1
                # one shared settle re-derives every refilled lane (the
                # survivors are re-settled at the top of the lockstep
                # step below anyway); arming must follow it so the
                # toggle baseline is the settled restore, as in the
                # serial engine
                sim.settle()
                for slot in fresh:
                    sim.lane_arm_activity(slot.lane)
                    path = paths[slot.index]
                    if path.forced_decision is not None:
                        slot.first_forced = True
                        sim.lane_force(slot.lane, target.branch_force_net,
                                       Logic.L1 if path.forced_decision
                                       else Logic.L0)
                if live:
                    compactions += 1
                    refills += len(fresh)
                else:
                    stats.waves += 1
                    stats.wave_lanes.append(len(fresh))
                live.extend(fresh)
                peak = max(peak, len(live))
                stats.peak_lanes = max(stats.peak_lanes, sim.n_lanes)

            # -- drive_all in lockstep: shared settles, per-lane services
            sim.settle()
            for _ in range(target.drive_rounds):
                for slot in live:
                    target.drive(slot.view)
                sim.settle()

            # -- every live lane's settled cycle, the boundary included
            sim.record_activity_now()       # all armed (= live) lanes
            if self.cycle_observer is not None:
                for slot in live:
                    self.cycle_observer(slot.view,
                                        first_path_id + slot.index,
                                        slot.cycles)

            # -- boundary + budget checks (a retired slot frees its lane
            # for the next iteration's refill; a refilled lane reaches
            # this check before its first clock edge)
            still: List[_LiveLane] = []
            for slot in live:
                view = slot.view
                outcome = None if slot.first_forced \
                    else boundary_outcome(target, view)
                if outcome == "done":
                    retire(slot, "done", target.current_pc(view))
                    continue
                if outcome == "halt":
                    pc = target.current_pc(view)
                    state = sim.lane_snapshot(slot.lane, pc=pc) \
                        if pc is not None else None
                    retire(slot, "halt", pc, state)
                    continue
                if slot.cycles >= slot.allowance:
                    # abandoned path: drop the branch force (mirrors
                    # the serial budget path)
                    sim.lane_release(slot.lane)
                    retire(slot, "budget", target.current_pc(view))
                    continue
                still.append(slot)
            live = still
            if not live:
                continue    # refill (or finish) without a dead edge

            for slot in live:
                target.on_edge(slot.view)
            sim.clock_edge()
            stats.lockstep_cycles += 1
            for slot in live:
                slot.cycles += 1
                if slot.first_forced:
                    sim.lane_release(slot.lane)
                    slot.first_forced = False

        stats.compactions += compactions
        stats.refills += refills
        self._last_batch = {"lanes": peak, "waves": 1 if paths else 0,
                            "compactions": compactions, "refills": refills}
        return [finished[i] for i in range(len(paths))]

    def _retire(self, lane: int, outcome: str, end_pc: Optional[int],
                cycles: int,
                end_state: Optional[SimState] = None) -> SegmentResult:
        """Free a finished lane, reporting its segment's activity."""
        sim = self.sim
        val, known = sim.lane_planes(lane)
        activity = (*sim.lane_activity(lane), val & known, known)
        sim.drop_lane(lane)
        self.stats.segments += 1
        self.stats.lane_cycles += cycles
        return SegmentResult(outcome, end_pc, cycles, end_state, activity)
