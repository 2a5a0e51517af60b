"""Ablation: simulation engine throughput (the "scalable" in the title).

The event-driven kernel reproduces the paper's iverilog architecture;
the vectorized levelized engine is what makes whole-core co-analysis
tractable in Python, and the bit-packed batched engine is what makes a
*forked frontier* tractable: 64 lanes share every settle.  This
bench quantifies the gaps in gate-evaluations/second on the largest
core (bm32) and on a small circuit where the event kernel's sparseness
wins back some ground, and records the headline numbers in
``BENCH_engines.json`` at the repo root so per-PR perf is diffable.
"""

import json
import time
import timeit
from pathlib import Path

import numpy as np
import pytest

from repro.logic import Logic, LVec
from repro.rtl import Design
from repro.sim import (LANE_CAPACITY, BatchCycleSim, CompiledNetlist,
                       CycleSim, EventSim, compile_netlist)
from repro.sim.batch_kernels import reference_sweep
from repro.workloads import built_core

CYCLES_BIG = 50
CYCLES_SMALL = 200
SEGMENT_CYCLES = 8       # <=8-cycle segments: the co-analysis fork cadence
REPLAY_FORKS = 20
#: Div cycles simulated before the settle comparison's state is taken
MID_RUN_CYCLES = 40
SETTLE_REPS = 50
SETTLE_ROUNDS = 9
SETTLE_MIN_SPEEDUP = 3.0
#: batched-vs-serial replay bar at the engine's 64 lanes
BATCH_MIN_SPEEDUP = 5.0
#: perf trajectory at the repo root -- committed, so the diff of this
#: file in a PR *is* the perf regression report
TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_engines.json"
TRAJECTORY_KEEP = 50


def _git_commit(cwd: Path = Path(__file__).resolve().parent) -> str:
    """The working tree's ``git describe --always --dirty`` stamp: the
    short commit hash, with ``-dirty`` when tracked files differ from
    it (an uncommitted change is not its parent commit); "unknown"
    outside git."""
    import subprocess
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _record_trajectory(entry: dict) -> None:
    """Record ``entry`` in the committed BENCH_engines.json history.

    Entries are stamped with :func:`_git_commit`; re-running the bench
    on the same stamp *replaces* that stamp's measurement for the
    same (design, lanes, cycles) configuration instead of blind-
    appending, so local re-runs don't flood the trajectory, and a run
    on an uncommitted change never replaces its parent's entry.
    """
    from repro.resilience.artifacts import atomic_write_json
    entry = dict(entry, commit=_git_commit())
    history = []
    if TRAJECTORY.exists():
        try:
            history = json.loads(TRAJECTORY.read_text()).get("runs", [])
        except (ValueError, OSError):
            history = []        # a torn file must not poison the bench
    key = ("commit", "design", "lanes", "cycles")
    history = [run for run in history
               if run.get("commit") == "unknown"
               or tuple(run.get(k) for k in key)
               != tuple(entry.get(k) for k in key)]
    history.append(entry)
    atomic_write_json(TRAJECTORY,
                      {"bench": "bench_engines",
                       "runs": history[-TRAJECTORY_KEEP:]})


def test_commit_stamp_marks_uncommitted_changes(tmp_path):
    """A clean tree is stamped with its short hash, a modified one with
    ``<hash>-dirty``, and a directory outside git with "unknown"."""
    import subprocess

    def git(*args):
        return subprocess.run(["git", *args], cwd=tmp_path / "repo",
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()

    (tmp_path / "repo").mkdir()
    (tmp_path / "outside").mkdir()
    git("init", "-q")
    (tmp_path / "repo" / "f.txt").write_text("one\n")
    git("add", "f.txt")
    git("-c", "user.name=bench", "-c", "user.email=bench@example.com",
        "commit", "-q", "-m", "one")
    head = git("rev-parse", "--short", "HEAD")
    assert _git_commit(tmp_path / "repo") == head
    (tmp_path / "repo" / "f.txt").write_text("two\n")
    assert _git_commit(tmp_path / "repo") == f"{head}-dirty"
    assert _git_commit(tmp_path / "outside") == "unknown"


def _counter(width=8):
    d = Design("cnt")
    r = d.reg(width, "c", reset=True)
    s, _ = r.q.add(d.const(1, width))
    r.drive(s)
    d.output("y", r.q)
    return d.finalize()


def test_cycle_engine_on_bm32(benchmark):
    nl, _ = built_core("bm32")
    compiled = compile_netlist(nl)

    def run():
        sim = CycleSim(compiled, record_activity=False)
        sim.set_input("rst", Logic.L1)
        sim.set_input("pmem_data", LVec.zeros(32))
        sim.set_input("dmem_rdata", LVec.zeros(32))
        sim.step()
        sim.set_input("rst", Logic.L0)
        for _ in range(CYCLES_BIG):
            sim.step()
        return sim

    sim = benchmark(run)
    assert sim.cycle == CYCLES_BIG + 1
    gate_evals = nl.gate_count() * CYCLES_BIG
    print(f"\n  bm32: {nl.gate_count()} gates x {CYCLES_BIG} cycles = "
          f"{gate_evals} gate-evals per round")


def test_event_engine_on_bm32(benchmark):
    nl, _ = built_core("bm32")

    def run():
        sim = EventSim(nl)
        sim.poke_by_name("rst", Logic.L1)
        for i in range(32):
            sim.poke_by_name(f"pmem_data[{i}]", Logic.L0)
            sim.poke_by_name(f"dmem_rdata[{i}]", Logic.L0)
        sim.tick()
        sim.poke_by_name("rst", Logic.L0)
        for _ in range(5):   # the event kernel is the slow faithful path
            sim.tick()
        return sim

    sim = benchmark.pedantic(run, rounds=1, iterations=1)
    assert sim.cycle == 6


def test_cycle_engine_small_circuit(benchmark):
    nl = _counter()
    compiled = compile_netlist(nl)

    def run():
        sim = CycleSim(compiled, record_activity=False)
        sim.set_input("rst", Logic.L1)
        sim.step()
        sim.set_input("rst", Logic.L0)
        for _ in range(CYCLES_SMALL):
            sim.step()
        return sim

    assert benchmark(run).cycle == CYCLES_SMALL + 1


def test_event_engine_small_circuit(benchmark):
    nl = _counter()

    def run():
        sim = EventSim(nl)
        sim.poke_by_name("rst", Logic.L1)
        sim.tick()
        sim.poke_by_name("rst", Logic.L0)
        for _ in range(CYCLES_SMALL):
            sim.tick()
        return sim

    assert benchmark(run).cycle == CYCLES_SMALL + 1


def test_compile_cost(benchmark):
    nl, _ = built_core("bm32")
    compiled = benchmark(lambda: CompiledNetlist(nl))
    assert compiled.n_nets == len(nl.nets)


def _warmed_sim(compiled):
    sim = CycleSim(compiled, record_activity=False)
    sim.set_input("rst", Logic.L1)
    sim.set_input("pmem_data", LVec.zeros(32))
    sim.set_input("dmem_rdata", LVec.zeros(32))
    sim.step()
    sim.set_input("rst", Logic.L0)
    for _ in range(10):
        sim.step()
    return sim


def _replay(sim, snap):
    """One fork of Algorithm 1's hot loop: restore + short segment."""
    sim.restore(snap)
    for _ in range(SEGMENT_CYCLES):
        sim.step()


def _mid_run_div_sim():
    """A bm32 Div simulator ``MID_RUN_CYCLES`` cycles past reset."""
    from repro.coanalysis.backend import prepare_initial_state
    from repro.workloads import WORKLOADS, build_target

    target = build_target("bm32", WORKLOADS["Div"])
    sim = target.make_sim()
    prepare_initial_state(target, sim)
    for _ in range(MID_RUN_CYCLES):
        target.on_edge(sim)
        sim.clock_edge()
        target.drive_all(sim)
    return sim


def test_segment_replay_fork_heavy(benchmark):
    """The co-analysis hot path: restore a snapshot, replay a short
    segment, fork again -- every non-idle settle is a full level-table
    settle.  Gates, each >= SETTLE_MIN_SPEEDUP with identical planes,
    against the fused per-group reference sweep
    (:func:`~repro.sim.batch_kernels.reference_sweep`) on a mid-run bm32
    Div state: the serial level-table settle on its bool planes, and
    the batched engine's lane level tables on that state held in every
    lane of a one-word plane."""
    nl, _ = built_core("bm32")
    compiled = compile_netlist(nl)

    sim = _warmed_sim(compiled)
    snap = sim.snapshot()

    def forks():
        for _ in range(REPLAY_FORKS):
            _replay(sim, snap)

    benchmark.pedantic(forks, rounds=3, iterations=1, warmup_rounds=1)

    div = _mid_run_div_sim()
    sweep = reference_sweep(div.c)
    _assert_settle_beats_sweep("level-table settle", div, sweep)

    batch = BatchCycleSim(div.c, record_activity=False)
    for _ in range(LANE_CAPACITY):
        batch.alloc_lane()
    every_lane = ~np.uint64(0)
    batch.val[:] = div.val * every_lane
    batch.known[:] = div.known * every_lane
    _assert_settle_beats_sweep("64-lane batched settle", batch, sweep)
    assert (batch.lane_planes(0)[0] == div.val).all()


def _assert_settle_beats_sweep(label, sim, sweep):
    """Gate: a full ``sim.settle()`` beats the fused ``sweep`` on a copy
    of the same planes by >= SETTLE_MIN_SPEEDUP, and both leave the
    planes identical."""
    val, known = sim.val.copy(), sim.known.copy()

    def settle():
        sim.mark_all_dirty()
        sim.settle()

    settle()
    sweep(val, known)
    assert (val == sim.val).all() and (known == sim.known).all()
    # interleaved, best of SETTLE_ROUNDS each: both legs sample the
    # same stretch of a shared, noisy host
    t_settle = t_fused = float("inf")
    for _ in range(SETTLE_ROUNDS):
        t_settle = min(t_settle, timeit.timeit(settle, number=SETTLE_REPS))
        t_fused = min(t_fused, timeit.timeit(lambda: sweep(val, known),
                                             number=SETTLE_REPS))
    speedup = t_fused / t_settle
    print(f"\n  bm32 Div {label} on the {sim.kernel} kernel "
          f"({SETTLE_REPS} reps): "
          f"{t_settle*1000:.1f} ms, fused sweep {t_fused*1000:.1f} ms "
          f"-> {speedup:.1f}x")
    assert speedup >= SETTLE_MIN_SPEEDUP, (
        f"{label} only {speedup:.2f}x faster than the fused sweep "
        f"(expected >= {SETTLE_MIN_SPEEDUP}x)")


def test_batch_engine_replay_speedup(benchmark):
    """The tentpole claim: one batched settle advances a whole wave.

    Replays the same warmed bm32 snapshot once per lane for
    ``CYCLES_BIG`` cycles as one lockstep 64-lane batched run, requires
    bit-identical final planes on every lane, and demands a
    >= BATCH_MIN_SPEEDUP win over the serial engine replaying the same
    states one at a time.  The entry -- with the compaction counters of
    a real batched co-analysis -- lands in the BENCH_engines.json
    trajectory.
    """
    from repro.coanalysis.batch_executor import BatchSegmentExecutor
    from repro.coanalysis.kernel import ExplorationKernel
    from repro.workloads import WORKLOADS, build_target

    nl, _ = built_core("bm32")
    compiled = compile_netlist(nl)
    serial = _warmed_sim(compiled)
    snap = serial.snapshot()

    def serial_round():
        for _ in range(LANE_CAPACITY):
            serial.restore(snap)
            for _ in range(CYCLES_BIG):
                serial.step()

    def batch_round():
        batch = BatchCycleSim(compiled, record_activity=False)
        lanes = []
        for _ in range(LANE_CAPACITY):
            lane = batch.alloc_lane()
            # the snapshot carries the input values (rst low, zeroed
            # memory buses) -- restore alone is the whole induction
            batch.lane_restore(lane, snap, settle=False)
            lanes.append(lane)
        for _ in range(CYCLES_BIG):
            batch.settle()
            batch.clock_edge()
        batch.settle()
        return batch, lanes

    benchmark.pedantic(batch_round, rounds=3, iterations=1,
                       warmup_rounds=1)

    t0 = time.perf_counter()
    serial_round()
    serial_ms = (time.perf_counter() - t0) * 1000
    serial.settle()

    t0 = time.perf_counter()
    batch, lanes = batch_round()
    t_batch_ms = (time.perf_counter() - t0) * 1000

    # equal results: every lane's final planes match the serial engine's
    for lane in lanes:
        val, known = batch.lane_planes(lane)
        assert (val == serial.val).all()
        assert (known == serial.known).all()

    speedup = serial_ms / t_batch_ms
    throughput = LANE_CAPACITY * CYCLES_BIG / t_batch_ms
    print(f"\n  batched replay ({LANE_CAPACITY} lanes x {CYCLES_BIG} "
          f"cycles, {batch.kernel} kernel): serial {serial_ms:.1f} ms, "
          f"batch {t_batch_ms:.1f} ms -> {speedup:.1f}x, "
          f"{throughput:.0f} lane-cycles/ms")

    # compaction accounting from a real batched co-analysis (the replay
    # loop above never retires a lane): capping live occupancy below
    # inSort's frontier width forces freed slots to be refilled
    # mid-wave, so the recorded counters exercise the compaction path,
    # not just report zeros
    coa = ExplorationKernel(
        BatchSegmentExecutor(build_target("bm32", WORKLOADS["inSort"]),
                             max_lanes=4),
        application="inSort", frontier="bfs").run()
    stats = coa.batch_stats
    assert stats.compactions > 0 and stats.refills > 0
    _record_trajectory({
        "date": time.strftime("%Y-%m-%d"),
        "design": "bm32",
        "kernel": batch.kernel,
        "gates": nl.gate_count(),
        "lanes": LANE_CAPACITY,
        "cycles": CYCLES_BIG,
        "serial_ms": round(serial_ms, 2),
        "batch_ms": round(t_batch_ms, 2),
        "speedup": round(speedup, 2),
        "lane_cycles_per_ms": round(throughput, 1),
        "coanalysis": {
            "design": "bm32", "benchmark": "inSort",
            "max_lanes": 4,
            "waves": stats.waves,
            "peak_lanes": stats.peak_lanes,
            "compactions": stats.compactions,
            "refills": stats.refills,
            "realized_parallelism":
                round(stats.realized_parallelism(), 2),
        },
    })
    assert speedup >= BATCH_MIN_SPEEDUP, (
        f"batched replay only {speedup:.2f}x faster than serial "
        f"(expected >= {BATCH_MIN_SPEEDUP}x)")


def test_traced_coanalysis_smoke(benchmark, artifact_dir):
    """One full co-analysis with the structured trace on: leaves the
    JSONL event stream and its aggregated metrics as CI artifacts, and
    proves the stream alone reconstructs the engine's counters."""
    from repro.coanalysis.trace import aggregate_trace, read_trace
    from repro.reporting.runner import run_one

    trace_path = artifact_dir / "TRACE_coanalysis_smoke.jsonl"

    def run():
        return run_one("dr5", "mult", trace=trace_path)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    events = read_trace(trace_path)
    assert events[0].kind == "run_start"
    assert events[-1].kind == "run_end"

    replayed = aggregate_trace(events)
    assert replayed.paths_explored == len(result.path_records)
    assert replayed.splits == result.splits
    assert replayed.merges_covered == result.paths_skipped
    assert replayed.simulated_cycles == result.simulated_cycles
    assert replayed.summary() == result.metrics.summary()

    from repro.resilience.artifacts import atomic_write_json
    atomic_write_json(artifact_dir / "METRICS_coanalysis_smoke.json",
                      result.metrics.summary())
    print(f"\n  trace: {len(events)} events, "
          f"{replayed.paths_explored} paths, "
          f"{replayed.simulated_cycles} cycles, "
          f"frontier high-water {replayed.frontier_high_water}")
