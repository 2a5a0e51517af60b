"""The shared exploration kernel (Algorithm 1, engine-agnostic).

The paper's explore/halt/fork/merge loop is the same whether segments
run on the compiled cycle engine, the event-driven engine, or the
lane-packed batch engine -- only *how a batch of segments is simulated*
differs.  :class:`ExplorationKernel` owns everything else:

* the frontier of pending paths (depth- or breadth-first, see
  :mod:`repro.coanalysis.frontier`);
* CSM merge decisions and forking (both branch outcomes pushed);
* the toggle profile (Algorithm 1 lines 24 and 29-43): every segment's
  activity planes -- simulated, or restored from a checkpoint -- are
  folded here and nowhere else, in batch order, and the per-path
  exercised arrays are derived from the same planes when the run asks
  for them;
* per-path and total cycle budgets (a segment that exhausts one ends
  the run with :class:`~repro.coanalysis.results.CoAnalysisError`: its
  path's activity is incomplete, so the dichotomy would be unsound);
* checkpoint/resume through the one versioned payload codec in
  :mod:`repro.resilience.checkpoint`;
* the structured trace stream (:mod:`repro.coanalysis.trace`), the
  run's one log: checkpoints, resumes, interrupts and governed stops
  are trace events, counted in ``result.metrics``;
* the run governor (:mod:`repro.resilience.governor`): wall-clock
  deadlines, the RSS memory watchdog, frontier/segment caps, and
  SIGINT/SIGTERM turned into cooperative stops -- all ending the run as
  a first-class :class:`~repro.coanalysis.results.PartialResult` with a
  final checkpoint, never a mid-flight exception.

Backends plug in through the :class:`~repro.coanalysis.backend.SimBackend`
protocol: ``prepare()`` builds the reset+symbolic initial state, and
``run_batch()`` simulates pending paths up to their halt/done/budget
boundary, reporting each segment's own activity planes.  A backend
never touches the CSM, the frontier or the profile --
that is the point of the extraction: every scaling or resilience
feature lands in this file once, not three times.  The shared segment
loop backends build on lives in :mod:`repro.coanalysis.backend`, and
:class:`~repro.coanalysis.engine.CoAnalysisEngine` is this kernel with
the backend built for a target.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Optional

import numpy as np

from ..resilience.checkpoint import (RESULT_COUNTERS, as_checkpointer,
                                     decode_run_payload,
                                     encode_run_payload)
from ..resilience.governor import TRACE_KIND_FOR_REASON, as_governor
from ..sim.activity import ToggleProfile
from ..sim.state import SimState
from .backend import BatchContext, PendingPath, SegmentResult, SimBackend
from .results import (CheckpointError, CoAnalysisError, CoAnalysisResult,
                      PartialResult, PathRecord, ResumeMismatch)

__all__ = [
    "BatchContext", "ExplorationKernel", "PendingPath", "SegmentResult",
    "SimBackend",
]


class ExplorationKernel:
    """Runs Algorithm 1 over any :class:`SimBackend`.

    The constructor is the one place the exploration settings are
    declared; :class:`~repro.coanalysis.engine.CoAnalysisEngine` passes
    them through.

    Args:
        executor: the :class:`SimBackend` simulating each batch.
        csm: the :class:`~repro.csm.manager.ConservativeStateManager`
            (default: a fresh one).
        frontier: a name from
            :data:`~repro.coanalysis.frontier.FRONTIER_STRATEGIES`, or
            None for the paper's depth-first stack.
        max_cycles_per_path, max_total_cycles: cycle budgets of one
            segment and of the run (None: no run budget); a segment
            that exhausts one ends the run with CoAnalysisError.
        max_paths: cap on the pending frontier.
        application: the name results and checkpoints carry.
        checkpoint: a :class:`~repro.resilience.checkpoint.Checkpointer`
            or a path; ^C mid-segment writes a final record first.
        resume: continue from the checkpoint's newest intact record.
        tracer: the :class:`~repro.coanalysis.trace.Tracer` receiving
            the event stream (default: metrics only).
        budget: a :class:`~repro.resilience.governor.RunBudget` or
            governor ending the run as a PartialResult.
        record_per_path_activity: fill ``result.per_path_exercised``
            with each segment's ``toggled | ever_x`` (power gating).
    """

    def __init__(self, executor: SimBackend,
                 csm=None,
                 frontier=None,
                 max_cycles_per_path: int = 20000,
                 max_total_cycles: Optional[int] = 2_000_000,
                 max_paths: int = 100_000,
                 application: str = "app",
                 checkpoint=None,
                 resume: bool = False,
                 tracer=None,
                 budget=None,
                 record_per_path_activity: bool = False):
        from ..csm.manager import ConservativeStateManager
        from .frontier import make_frontier
        from .trace import Tracer
        self.executor = executor
        self.csm = csm or ConservativeStateManager()
        self.frontier = make_frontier(frontier)
        self.max_cycles_per_path = max_cycles_per_path
        self.max_total_cycles = max_total_cycles
        self.max_paths = max_paths
        self.application = application
        self.checkpoint = as_checkpointer(checkpoint)
        self.resume = resume
        self.tracer = tracer if tracer is not None else Tracer()
        self.governor = as_governor(budget)
        self.record_per_path_activity = record_per_path_activity
        self.batches_done = 0
        self._stop = None               # StopRequest once governed-stopped

    # -- the main loop ------------------------------------------------------
    def run(self) -> CoAnalysisResult:
        if self.governor is not None:
            with self.governor.governed():
                return self._run()
        return self._run()

    def _run(self) -> CoAnalysisResult:
        executor, tracer = self.executor, self.tracer
        result = CoAnalysisResult(
            design=executor.design, application=self.application,
            profile=ToggleProfile.empty(executor.netlist))
        t0 = time.perf_counter()

        payload = None
        if self.resume:
            if self.checkpoint is None:
                raise CheckpointError("resume=True requires a checkpoint")
            payload = self.checkpoint.load_latest()

        try:
            initial = executor.prepare()
            # run_start frames the trace even when resuming: emit it
            # before _apply_checkpoint's "resume" event
            start = {"design": result.design,
                     "application": self.application,
                     "engine": executor.kind,
                     "strategy": self.frontier.name,
                     "resuming": payload is not None}
            if executor.settle_kernel is not None:
                start["kernel"] = executor.settle_kernel
            tracer.emit("run_start", frontier=int(payload is None),
                        data=start)
            if payload is not None:
                self._apply_checkpoint(payload, result)
            else:
                self.frontier.push(PendingPath(initial))
                result.paths_created = 1

            self._explore(result)

            if self.checkpoint is not None:
                # final record: resuming a finished run returns
                # immediately, a governed-stopped run from where it ended
                self._write_checkpoint(result)

            explore_seconds = time.perf_counter() - t0
            tracer.emit("phase", data={"phase": "explore",
                                       "seconds": explore_seconds})
            f0 = time.perf_counter()
            executor.finalize(result)
            result.csm_stats = self.csm.stats.snapshot()
            result.wall_seconds = time.perf_counter() - t0
            tracer.emit("phase", data={"phase": "finalize",
                                       "seconds":
                                       time.perf_counter() - f0})
            if self._stop is not None:
                result = PartialResult.from_result(
                    result, stop_reason=self._stop.reason,
                    stop_detail=self._stop.detail,
                    pending_paths=len(self.frontier))
            tracer.emit("run_end", frontier=len(self.frontier),
                        data=result.summary())
            result.metrics = tracer.metrics
            return result
        finally:
            tracer.close()

    def _explore(self, result: CoAnalysisResult) -> None:
        executor, tracer = self.executor, self.tracer
        while len(self.frontier):
            if self.governor is not None:
                stop = self.governor.check(
                    frontier=len(self.frontier),
                    segments=len(result.path_records))
                if stop is not None:
                    self._governed_stop(stop, result)
                    return
            if self.checkpoint is not None and \
                    self.checkpoint.due(self.batches_done):
                self._write_checkpoint(result)

            batch = self.frontier.pop_batch(executor.batch_limit)
            ctx = BatchContext(
                first_path_id=len(result.path_records),
                max_cycles_per_path=self.max_cycles_per_path,
                total_cycles_remaining=(
                    None if self.max_total_cycles is None
                    else max(0, self.max_total_cycles
                             - result.simulated_cycles)))
            for offset, path in enumerate(batch):
                tracer.emit("segment_start",
                            path_id=ctx.first_path_id + offset,
                            pc=path.state.pc)
            try:
                segments = executor.run_batch(batch, ctx)
            except KeyboardInterrupt:
                self.frontier.requeue(batch)
                if self.checkpoint is not None:
                    self._write_checkpoint(result)
                tracer.emit("interrupt", frontier=len(self.frontier),
                            detail="keyboard interrupt")
                raise
            self.batches_done += 1
            for path, segment in zip(batch, segments):
                self._absorb(path, segment, result)
            batch_data = {"size": len(batch)}
            # lane accounting: executors that pack several paths into
            # one simulation (the batched backend) report how the
            # batch was laned so the trace shows realized parallelism
            stats_hook = getattr(executor, "batch_stats", None)
            if stats_hook is not None:
                batch_data.update(stats_hook())
            tracer.emit("batch", frontier=len(self.frontier),
                        data=batch_data)

    # -- governed stop ------------------------------------------------------
    def _governed_stop(self, stop, result: CoAnalysisResult) -> None:
        """End the run cooperatively: flush a checkpoint, record why."""
        if self.checkpoint is not None:
            self._write_checkpoint(result)
        self.tracer.emit(
            TRACE_KIND_FOR_REASON.get(stop.reason, "interrupt"),
            frontier=len(self.frontier), detail=stop.detail,
            data={"reason": stop.reason})
        self._stop = stop

    # -- segment bookkeeping ------------------------------------------------
    def _absorb(self, path: PendingPath, segment: SegmentResult,
                result: CoAnalysisResult) -> None:
        tracer = self.tracer
        path_id = len(result.path_records)
        result.simulated_cycles += segment.cycles
        result.profile.absorb(*segment.activity)
        outcome = segment.outcome
        if outcome == "budget":
            if self.max_total_cycles is not None:
                raise CoAnalysisError(
                    f"cycle budget exhausted on path {path_id} "
                    f"(per-path {self.max_cycles_per_path}, total "
                    f"{self.max_total_cycles}); analysis unsound")
            raise CoAnalysisError(
                f"cycle budget exhausted on path {path_id} "
                f"(per-path {self.max_cycles_per_path}); "
                f"analysis unsound")
        elif outcome == "halt":
            pc = segment.end_pc
            if pc is None:
                raise CoAnalysisError(
                    "program counter contains X at a control-flow halt; "
                    "cannot index the state repository (check the "
                    "monitored signal list covers every PC-affecting "
                    "source)")
            tracer.emit("halt", path_id=path_id, pc=pc,
                        cycles=segment.cycles)
            decision = self.csm.observe(pc, segment.end_state)
            if decision.covered:
                result.paths_skipped += 1
                outcome = "skipped"
                tracer.emit("merge", path_id=path_id, pc=pc)
            else:
                if len(self.frontier) + 2 > self.max_paths:
                    raise CoAnalysisError(
                        f"path stack exceeded max_paths={self.max_paths}")
                result.splits += 1
                for branch in (1, 0):
                    self.frontier.push(PendingPath(
                        decision.resume_state, forced_decision=branch,
                        parent=path_id))
                    result.paths_created += 1
                outcome = "split"
                tracer.emit("fork", path_id=path_id, pc=pc,
                            frontier=len(self.frontier))
        result.path_records.append(PathRecord(
            path_id, path.state.pc, segment.end_pc, segment.cycles,
            outcome, path.forced_decision, path.parent))
        if self.record_per_path_activity:
            toggled, ever_x = segment.activity[:2]
            result.per_path_exercised.append(toggled | ever_x)
        tracer.emit("segment_end", path_id=path_id, pc=segment.end_pc,
                    cycles=segment.cycles, outcome=outcome,
                    frontier=len(self.frontier))

    # -- checkpoint plumbing ------------------------------------------------
    def _write_checkpoint(self, result: CoAnalysisResult) -> None:
        if not self.checkpoint.ahead(self.batches_done):
            return      # the newest record already holds this state
        profile = result.profile
        payload = encode_run_payload(
            engine=self.executor.kind,
            design=result.design,
            application=self.application,
            frontier=[(p.state.to_bytes(), p.forced_decision, None,
                       p.parent, None)
                      for p in self.frontier.entries()],
            strategy=self.frontier.name,
            csm=self.csm.snapshot_state(),
            activity={"repr": "profile",
                      "toggled": profile.toggled.copy(),
                      "ever_x": profile.ever_x.copy(),
                      "val": profile.const_val.copy(),
                      "known": profile.const_known.copy()},
            counters=dict({key: getattr(result, key)
                           for key in RESULT_COUNTERS},
                          batches_done=self.batches_done),
            path_records=list(result.path_records),
            per_path_exercised=list(result.per_path_exercised))
        self.checkpoint.write(payload, progress=self.batches_done)
        self.tracer.emit("checkpoint", frontier=len(self.frontier))

    def _apply_checkpoint(self, raw: dict,
                          result: CoAnalysisResult) -> None:
        payload = decode_run_payload(raw)
        kind = self.executor.kind
        if payload.get("engine") != kind:
            raise ResumeMismatch(
                f"checkpoint was written by the "
                f"{payload.get('engine')!r} engine, not {kind!r}")
        if payload["design"] != result.design or \
                payload["application"] != self.application:
            raise ResumeMismatch(
                f"checkpoint belongs to "
                f"{payload['design']}/{payload['application']}, not "
                f"{result.design}/{self.application}")
        self.csm.restore_state(payload["csm"])
        # fold the checkpointed planes into the empty profile.  A
        # "profile" payload is the kernel's own fold so far; a "sim"
        # payload (written by the serial and event engines before the
        # kernel owned the profile) is a simulator's accumulated planes,
        # whose raw ``val`` may carry bits under an X -- the mask makes
        # both the same fold
        planes = payload["activity"]
        toggled, ever_x, val, known = (
            np.asarray(planes[key], dtype=bool)
            for key in ("toggled", "ever_x", "val", "known"))
        shape = result.profile.toggled.shape
        if any(plane.shape != shape
               for plane in (toggled, ever_x, val, known)):
            raise ResumeMismatch(
                "checkpoint activity arrays do not fit this netlist")
        result.profile.absorb(toggled, ever_x, val & known, known)
        counters = dict(payload["counters"])
        self.batches_done = counters.pop("batches_done", 0)
        # the loaded record is the newest: write none that repeats it
        self.checkpoint.last_mark = self.batches_done
        for key, value in counters.items():
            setattr(result, key, value)
        result.path_records = list(payload["path_records"])
        result.per_path_exercised = list(payload["per_path_exercised"])
        result.resumed = True
        # the entries re-push into this run's frontier whatever order
        # wrote them; slots 2 and 4 are retired (written as None)
        for blob, forced, _, parent, _ in payload["frontier"]:
            self.frontier.push(PendingPath(
                SimState.from_bytes(blob), forced, parent))
        outcomes = Counter(r.outcome for r in result.path_records)
        self.tracer.emit(
            "resume", frontier=len(self.frontier),
            data={"paths_explored": len(result.path_records),
                  # every split or skipped segment ended in a halt
                  "halts": outcomes["split"] + outcomes["skipped"],
                  "outcomes": dict(outcomes),
                  "splits": result.splits,
                  "merges_covered": result.paths_skipped,
                  "simulated_cycles": result.simulated_cycles,
                  "batches": self.batches_done})
