"""Integration: all three executors agree through the shared kernel.

The exercisable/unexercisable gate dichotomy is the analysis *product*;
Algorithm 1's soundness argument does not depend on the order paths are
simulated or on which simulation backend runs each segment.  This test
drives the same tiny bm32 workload -- one symbolic input, one
data-dependent branch -- through the serial cycle executor, the
event-driven executor and the lane-parallel batched engine, under every
frontier strategy, and requires the dichotomy to come out identical.
"""

import pytest

from repro.coanalysis.engine import CoAnalysisEngine
from repro.coanalysis.frontier import FRONTIER_STRATEGIES
from repro.isa import ASSEMBLERS
from repro.processors import CoreTarget
from repro.workloads import INPUT_BASE, built_core

# one lw of a symbolic word, one sltu/bne on it, distinct stores per arm
TINY_SOURCE = """
    addiu r1, r0, 64
    lw r2, 0(r1)        ; symbolic input
    addiu r3, r0, 8
    sltu r4, r2, r3
    bne r4, r0, small
    addiu r5, r0, 1
    j store
small:
    addiu r5, r0, 2
store:
    addiu r6, r0, 96
    sw r5, 0(r6)
_halt:
    j _halt
"""


def tiny_target() -> CoreTarget:
    netlist, meta = built_core("bm32")
    program = ASSEMBLERS["bm32"]().assemble(TINY_SOURCE, name="tiny")
    return CoreTarget(netlist, meta, program,
                      symbolic_ranges=[(INPUT_BASE, INPUT_BASE + 1)])


def run_engine(engine_name: str, frontier: str, **kw):
    return CoAnalysisEngine(tiny_target(), application="tiny",
                            frontier=frontier, backend=engine_name,
                            **kw).run()


@pytest.fixture(scope="module")
def serial_dfs():
    return run_engine("serial", "dfs")


def test_serial_explores_the_branch(serial_dfs):
    assert serial_dfs.splits >= 1
    assert serial_dfs.paths_created == 1 + 2 * serial_dfs.splits
    gates = serial_dfs.profile.exercisable_gates()
    assert 0 < len(gates) < serial_dfs.total_gates


@pytest.mark.parametrize("engine_name", ["serial", "event", "batch"])
@pytest.mark.parametrize("frontier", sorted(FRONTIER_STRATEGIES))
def test_dichotomy_engine_and_order_invariant(engine_name, frontier,
                                              serial_dfs):
    if engine_name == "serial" and frontier == "dfs":
        pytest.skip("the reference run itself")
    result = run_engine(engine_name, frontier)
    assert result.profile.exercisable_gates() == \
        serial_dfs.profile.exercisable_gates()
    # structural bookkeeping holds regardless of backend/order
    assert result.paths_created == 1 + 2 * result.splits
    assert result.paths_skipped <= result.paths_created


@pytest.mark.parametrize("engine_name", ["serial", "event", "batch"])
@pytest.mark.parametrize("frontier", sorted(FRONTIER_STRATEGIES))
def test_governed_stop_then_resume_is_equivalent(engine_name, frontier,
                                                 serial_dfs, tmp_path):
    """A governed run stopped mid-exploration (PartialResult) and then
    resumed converges to the same dichotomy as an unbounded run, on
    every backend and frontier order."""
    from repro.coanalysis.results import PartialResult
    from repro.resilience.governor import RunBudget

    ckpt = tmp_path / f"{engine_name}_{frontier}.ckpt"
    partial = run_engine(engine_name, frontier, checkpoint=str(ckpt),
                         budget=RunBudget(max_segments=1))
    assert isinstance(partial, PartialResult)
    assert not partial.complete
    assert partial.stop_reason == "segments"
    assert partial.pending_paths >= 1
    assert partial.metrics.checkpoints >= 1
    assert partial.metrics.stop_reason == "segments"
    assert "stop_reason" in partial.summary()

    resumed = run_engine(engine_name, frontier, checkpoint=str(ckpt),
                         resume=True)
    assert resumed.complete and resumed.resumed
    assert resumed.profile.exercisable_gates() == \
        serial_dfs.profile.exercisable_gates()
    assert resumed.paths_created == 1 + 2 * resumed.splits


# two sequential symbolic branches with different-length arms: a BFS
# frontier batch holds more paths than 2 lanes, and paths inside one
# batch retire at different lockstep cycles -- the setup that forces
# mid-wave compaction
TWO_BRANCH_SOURCE = """
    addiu r1, r0, 64
    lw r2, 0(r1)        ; symbolic input a
    lw r7, 1(r1)        ; symbolic input b
    addiu r3, r0, 8
    sltu r4, r2, r3
    bne r4, r0, small_a
    addiu r5, r0, 1
    addiu r5, r5, 1
    addiu r5, r5, 1
    j second
small_a:
    addiu r5, r0, 2
second:
    sltu r4, r7, r3
    bne r4, r0, small_b
    addiu r6, r0, 1
    addiu r6, r6, 1
    addiu r6, r6, 1
    j store
small_b:
    addiu r6, r0, 2
store:
    addiu r8, r0, 96
    sw r5, 0(r8)
    sw r6, 1(r8)
_halt:
    j _halt
"""


def two_branch_target() -> CoreTarget:
    netlist, meta = built_core("bm32")
    program = ASSEMBLERS["bm32"]().assemble(TWO_BRANCH_SOURCE,
                                            name="twobranch")
    return CoreTarget(netlist, meta, program,
                      symbolic_ranges=[(INPUT_BASE, INPUT_BASE + 2)])


def test_batch_compaction_matches_serial():
    """Mid-wave lane compaction is result-invisible: capping live
    occupancy at 2 lanes forces retired slots to be refilled from the
    frontier while other lanes keep running, and the dichotomy, path
    accounting and profile still match the serial reference bit for
    bit."""
    from repro.coanalysis.batch_executor import BatchSegmentExecutor
    from repro.coanalysis.kernel import ExplorationKernel

    reference = CoAnalysisEngine(two_branch_target(),
                                 application="twobranch").run()
    assert reference.splits >= 2        # both branches actually forked

    executor = BatchSegmentExecutor(two_branch_target(), max_lanes=2)
    result = ExplorationKernel(executor, application="twobranch",
                               frontier="bfs").run()
    assert result.profile.exercisable_gates() == \
        reference.profile.exercisable_gates()
    assert (result.profile.toggled == reference.profile.toggled).all()
    assert (result.profile.ever_x == reference.profile.ever_x).all()
    assert result.paths_created == 1 + 2 * result.splits
    stats = result.batch_stats
    assert stats.segments == len(result.path_records)
    # a BFS batch carried more paths than the 2 live lanes, and arms
    # of different length retire at different cycles: compaction fired
    assert stats.compactions > 0
    assert stats.refills > 0


#: RunMetrics fields that describe the run's attempts, not its answer
ATTEMPT_METRICS = ("checkpoints", "resumes", "frontier_high_water",
                   "phase_seconds", "wall_seconds")


@pytest.mark.parametrize("engine_name", ["serial", "batch"])
def test_resumed_run_metrics_match_uninterrupted(engine_name, tmp_path):
    """A run stopped by a segment budget and resumed reports the same
    trace metrics -- halts and per-outcome counts included -- as one
    that ran straight through."""
    from repro.resilience.governor import RunBudget

    def run(**kw):
        return CoAnalysisEngine(two_branch_target(),
                                application="twobranch",
                                backend=engine_name, **kw).run()

    whole = run()
    ckpt = tmp_path / "run.ckpt"
    partial = run(checkpoint=str(ckpt), budget=RunBudget(max_segments=3))
    assert not partial.complete
    assert partial.metrics.halts > 0
    resumed = run(checkpoint=str(ckpt), resume=True)
    assert resumed.resumed
    got, want = resumed.metrics.summary(), whole.metrics.summary()
    for key in ATTEMPT_METRICS:
        del got[key], want[key]
    assert got == want
    assert sum(got["outcomes"].values()) == got["paths_explored"]


def test_resumed_run_appends_to_its_trace(tmp_path):
    """A run stopped and resumed with the same trace path keeps both
    attempts' events in that file, and the file aggregates to the
    metrics of a run that went straight through."""
    from collections import Counter

    from repro.coanalysis.trace import aggregate_trace, read_trace
    from repro.reporting.runner import run_one
    from repro.resilience.governor import RunBudget

    whole = run_one("dr5", "mult")
    ckpt, trace = tmp_path / "run.ckpt", tmp_path / "run.jsonl"
    partial = run_one("dr5", "mult", checkpoint=str(ckpt),
                      trace=str(trace), budget=RunBudget(max_segments=3))
    assert not partial.complete
    resumed = run_one("dr5", "mult", checkpoint=str(ckpt),
                      trace=str(trace), resume=True)
    assert resumed.complete and resumed.resumed
    events = read_trace(trace)
    kinds = Counter(event.kind for event in events)
    assert (kinds["run_start"], kinds["deadline"], kinds["resume"]) \
        == (2, 1, 1)
    got, want = aggregate_trace(events).summary(), whole.metrics.summary()
    for key in ATTEMPT_METRICS:
        del got[key], want[key]
    assert got == want


def test_batch_trace_carries_compaction_stats(tmp_path):
    """Every "batch" trace event reports lane occupancy plus the
    compaction counters for that frontier batch."""
    import json

    trace = tmp_path / "batch.jsonl"
    from repro.coanalysis.trace import JsonlTraceSink, Tracer
    result = CoAnalysisEngine(tiny_target(), application="tiny",
                              backend="batch",
                              tracer=Tracer([JsonlTraceSink(trace)])).run()
    assert result.complete
    events = [json.loads(line)
              for line in trace.read_text().splitlines() if line]
    batch_events = [e for e in events if e.get("kind") == "batch"]
    assert batch_events
    for event in batch_events:
        assert "lanes" in event
        assert "compactions" in event
        assert "refills" in event


def test_metrics_cross_check(serial_dfs):
    """Every run carries trace-derived metrics agreeing with its own
    counters (the acceptance criterion for the trace layer)."""
    m = serial_dfs.metrics
    assert m.splits == serial_dfs.splits
    assert m.merges_covered == serial_dfs.paths_skipped
    assert m.simulated_cycles == serial_dfs.simulated_cycles
    assert m.paths_explored == len(serial_dfs.path_records)
