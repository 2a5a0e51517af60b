"""The shared exploration kernel (Algorithm 1, engine-agnostic).

The paper's explore/halt/fork/merge loop is the same whether segments
run on the compiled cycle engine, the event-driven engine, or the
lane-packed batch engine -- only *how a batch of segments is simulated*
differs.  :class:`ExplorationKernel` owns everything else:

* the frontier of pending paths (a pluggable
  :class:`~repro.coanalysis.frontier.FrontierStrategy`);
* CSM merge decisions and forking (both branch outcomes pushed);
* per-path and total cycle budgets;
* checkpoint/resume through the one versioned payload codec in
  :mod:`repro.resilience.checkpoint`;
* the structured trace stream (:mod:`repro.coanalysis.trace`);
* the run governor (:mod:`repro.resilience.governor`): wall-clock
  deadlines, the RSS memory watchdog, frontier/segment caps, and
  SIGINT/SIGTERM turned into cooperative stops -- all ending the run as
  a first-class :class:`~repro.coanalysis.results.PartialResult` with a
  final checkpoint, never a mid-flight exception.

Backends plug in through the :class:`~repro.coanalysis.backend.SimBackend`
protocol: ``prepare()`` builds the reset+symbolic initial state,
``run_batch()`` simulates pending paths up to their halt/done/budget
boundary, and the activity hooks round-trip toggle planes for
checkpointing.  A backend never touches the CSM or the frontier --
that is the point of the extraction: every scaling or resilience
feature lands in this file once, not three times.  The shared segment
loop backends build on lives in :mod:`repro.coanalysis.backend`.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Optional

from ..resilience.checkpoint import (as_checkpointer, decode_run_payload,
                                     encode_run_payload)
from ..resilience.governor import TRACE_KIND_FOR_REASON, as_governor
from ..sim.activity import ToggleProfile
from ..sim.state import SimState
from .backend import BatchContext, PendingPath, SegmentResult, SimBackend
from .results import (CheckpointError, CoAnalysisError, CoAnalysisResult,
                      PartialResult, PathRecord, ResumeMismatch, RunEvent)

__all__ = [
    "BatchContext", "ExplorationKernel", "PendingPath", "SegmentResult",
    "SimBackend",
]


class ExplorationKernel:
    """Runs Algorithm 1 over any :class:`SimBackend`."""

    def __init__(self, executor: SimBackend,
                 csm=None,
                 frontier=None,
                 max_cycles_per_path: int = 20000,
                 max_total_cycles: Optional[int] = 2_000_000,
                 max_paths: int = 100_000,
                 strict: bool = True,
                 application: str = "app",
                 checkpoint=None,
                 resume: bool = False,
                 tracer=None,
                 budget=None,
                 segment_cache=None):
        from ..csm.manager import ConservativeStateManager
        from .frontier import make_frontier
        from .trace import Tracer
        self.executor = executor
        self.csm = csm or ConservativeStateManager()
        self.frontier = make_frontier(frontier)
        self.max_cycles_per_path = max_cycles_per_path
        self.max_total_cycles = max_total_cycles
        self.max_paths = max_paths
        self.strict = strict
        self.application = application
        self.checkpoint = as_checkpointer(checkpoint)
        self.resume = resume
        self.tracer = tracer if tracer is not None else Tracer()
        self.governor = as_governor(budget)
        #: optional :class:`~repro.store.segments.SegmentResultCache`:
        #: settled segments are replayed instead of re-simulated.  The
        #: executor switches to capture mode so the kernel owns profile
        #: absorption (cached and live segments fold in identically).
        self.segment_cache = segment_cache
        if segment_cache is not None:
            executor.capture_activity = True
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
        executor.bind(result)
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
            if self.segment_cache is not None:
                self.segment_cache.flush()

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
            if self.segment_cache is not None:
                try:        # best effort on error paths; atomic either way
                    self.segment_cache.flush()
                except Exception:
                    pass
            executor.close()
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
            cache = self.segment_cache
            keys = hits = None
            pending = batch
            if cache is not None:
                keys = [cache.key(p.state, p.forced_decision)
                        for p in batch]
                hits = [cache.lookup(key) for key in keys]
                pending = [p for p, hit in zip(batch, hits) if hit is None]
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
                segments = executor.run_batch(pending, ctx) \
                    if pending else []
            except KeyboardInterrupt:
                self.frontier.requeue(batch)
                if self.checkpoint is not None:
                    result.journal.append(RunEvent(
                        "interrupt",
                        detail=f"{len(self.frontier)} pending paths "
                               f"checkpointed"))
                    self._write_checkpoint(result)
                tracer.emit("interrupt", frontier=len(self.frontier),
                            detail="keyboard interrupt")
                raise
            self.batches_done += 1
            if cache is not None:
                # splice memoized segments back into batch order, store
                # the freshly simulated ones, and account hits/misses --
                # absorption below then runs in the same order a fully
                # live run would use, so the profile is bit-identical
                live = iter(segments)
                segments = []
                for offset, (path, hit, key) in enumerate(
                        zip(batch, hits, keys)):
                    path_id = ctx.first_path_id + offset
                    if hit is not None:
                        result.segment_cache_hits += 1
                        tracer.emit("cache_hit", path_id=path_id,
                                    pc=path.state.pc)
                        segments.append(hit)
                    else:
                        segment = next(live)
                        result.segment_cache_misses += 1
                        tracer.emit("cache_miss", path_id=path_id,
                                    pc=path.state.pc)
                        cache.store(key, segment)
                        segments.append(segment)
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
        result.journal.append(RunEvent(
            "governed_stop", wave=self.batches_done,
            segment=len(result.path_records),
            detail=f"{stop.reason}: {stop.detail}"))
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
        if segment.activity is not None:
            # capture mode: the executor left absorption to the kernel
            result.profile.absorb(*segment.activity)
        outcome = segment.outcome
        if outcome == "budget":
            result.truncated_paths += 1
            if self.strict:
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
            self.frontier.observe_halt(pc)
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
                        depth=path.depth + 1, parent=path_id,
                        origin_pc=pc))
                    result.paths_created += 1
                outcome = "split"
                tracer.emit("fork", path_id=path_id, pc=pc,
                            frontier=len(self.frontier))
        result.path_records.append(PathRecord(
            path_id, path.state.pc, segment.end_pc, segment.cycles,
            outcome, path.forced_decision, path.parent))
        if segment.exercised is not None:
            result.per_path_exercised.append(segment.exercised)
        tracer.emit("segment_end", path_id=path_id, pc=segment.end_pc,
                    cycles=segment.cycles, outcome=outcome,
                    frontier=len(self.frontier))

    # -- checkpoint plumbing ------------------------------------------------
    def _write_checkpoint(self, result: CoAnalysisResult) -> None:
        payload = encode_run_payload(
            engine=self.executor.kind,
            design=result.design,
            application=self.application,
            frontier=[(p.state.to_bytes(), p.forced_decision, p.depth,
                       p.parent, p.origin_pc)
                      for p in self.frontier.entries()],
            strategy=self.frontier.name,
            strategy_meta=self.frontier.snapshot_meta(),
            csm=self.csm.snapshot_state(),
            activity=self.executor.activity_snapshot(),
            counters={"paths_created": result.paths_created,
                      "paths_skipped": result.paths_skipped,
                      "splits": result.splits,
                      "simulated_cycles": result.simulated_cycles,
                      "truncated_paths": result.truncated_paths,
                      "segment_cache_hits": result.segment_cache_hits,
                      "segment_cache_misses":
                      result.segment_cache_misses,
                      "batches_done": self.batches_done},
            path_records=list(result.path_records),
            per_path_exercised=list(result.per_path_exercised),
            journal=list(result.journal))
        self.checkpoint.write(payload, progress=self.batches_done)
        if self.segment_cache is not None:
            # flush the memo index at the same cadence as the journal,
            # so a crash loses at most one checkpoint interval of memos
            self.segment_cache.flush()
        result.journal.append(RunEvent(
            "checkpoint", wave=self.batches_done,
            segment=len(result.path_records),
            detail=f"{len(self.frontier)} pending paths"))
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
        try:
            self.executor.activity_restore(payload["activity"])
        except ValueError as exc:
            raise ResumeMismatch(
                f"checkpoint activity arrays do not fit this netlist: "
                f"{exc}") from exc
        if self.segment_cache is not None \
                and payload["activity"].get("repr") == "sim":
            # capture mode skips finalize()'s sim-plane absorption (the
            # kernel folds per-segment activity instead), so activity
            # restored into the *sim* would otherwise never reach the
            # profile: fold it in now, before any new segment does
            import numpy as np
            planes = payload["activity"]
            val = np.asarray(planes["val"])
            known = np.asarray(planes["known"])
            result.profile.absorb(np.asarray(planes["toggled"]),
                                  np.asarray(planes["ever_x"]),
                                  val & known, known)
        counters = dict(payload["counters"])
        self.batches_done = counters.pop("batches_done", 0)
        for key, value in counters.items():
            setattr(result, key, value)
        result.path_records = list(payload["path_records"])
        result.per_path_exercised = list(payload["per_path_exercised"])
        result.journal = list(payload["journal"])
        result.resumed = True
        for blob, forced, depth, parent, origin_pc in payload["frontier"]:
            self.frontier.push(PendingPath(
                SimState.from_bytes(blob), forced, depth, parent,
                origin_pc))
        if payload.get("strategy") == self.frontier.name:
            self.frontier.restore_meta(payload.get("strategy_meta", {}))
        result.journal.append(RunEvent(
            "resume", wave=self.batches_done,
            segment=len(result.path_records),
            detail=f"{len(self.frontier)} pending paths restored"))
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
                  "cache_hits": result.segment_cache_hits,
                  "cache_misses": result.segment_cache_misses,
                  "batches": self.batches_done})
