"""Experiment runner: the full (design x benchmark) co-analysis grid.

Every table and figure in the paper's evaluation is a projection of one
grid of co-analysis runs (3 designs x 6 benchmarks).  :func:`run_grid`
runs that grid, :func:`run_one` on each pair with its defaults, and
keeps no results between processes: since the settle is compiled,
re-running the 18 pairs is cheaper than loading stored results back.
Every ``run_one`` simulates its own segments; the only state it saves
is its checkpoint, to resume from.  :func:`pair_fingerprint` keys a
configuration for the job service's dedup.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..coanalysis.engine import ENGINES, CoAnalysisEngine
from ..coanalysis.results import CoAnalysisResult
from ..coanalysis.trace import JsonlTraceSink, ProgressLine, Tracer
from ..csm.constraints import ConstraintSet, parse_constraints
from ..csm.manager import ConservativeStateManager
from ..csm.strategies import MergeStrategy, UberConservative
from ..store import RunFingerprint, run_fingerprint
from ..workloads import WORKLOAD_ORDER, WORKLOADS, build_target

DESIGN_ORDER = ["bm32", "omsp430", "dr5"]     # paper table column order


def _make_tracer(trace, progress: bool, resume: bool) -> Optional[Tracer]:
    sinks = []
    if trace:
        # a resumed run appends: the trace keeps every attempt's events
        sinks.append(JsonlTraceSink(trace, mode="a" if resume else "w"))
    if progress:
        sinks.append(ProgressLine())
    return Tracer(sinks) if sinks else None


def _target_and_constraints(design: str, benchmark: str,
                            use_constraints: bool = True):
    """The pair's target and its CSM constraint set (None when the
    workload has none for ``design`` or ``use_constraints`` is off)."""
    workload = WORKLOADS[benchmark]
    target = build_target(design, workload)
    text = workload.constraints.get(design) if use_constraints else None
    if not text:
        return target, None
    return target, ConstraintSet(parse_constraints(text),
                                 target.state_net_positions())


def pair_fingerprint(design: str, benchmark: str,
                     strategy: Optional[MergeStrategy] = None,
                     use_constraints: bool = True,
                     engine: str = "serial", frontier: str = "dfs",
                     max_cycles_per_path: int = 20000,
                     max_total_cycles: Optional[int] = 2_000_000,
                     ) -> RunFingerprint:
    """Fingerprint the configuration :func:`run_one` would run with
    the same arguments (the job service dedupes on its digest).

    Builds the target and constraint set itself.
    """
    target, constraints = _target_and_constraints(design, benchmark,
                                                  use_constraints)
    return run_fingerprint(
        netlist=target.netlist, strategy=strategy or UberConservative(),
        constraints=constraints, design=design, application=benchmark,
        program=target.program, data_init=target.data_init,
        symbolic_ranges=target.symbolic_ranges,
        engine=engine, frontier=frontier,
        max_cycles_per_path=max_cycles_per_path,
        max_total_cycles=max_total_cycles)


def run_one(design: str, benchmark: str,
            strategy: Optional[MergeStrategy] = None,
            max_cycles_per_path: int = 20000,
            max_total_cycles: int = 2_000_000,
            use_constraints: bool = True,
            checkpoint=None,
            resume: bool = False,
            frontier: str = "dfs",
            engine: str = "serial",
            trace=None,
            progress: bool = False,
            budget=None) -> CoAnalysisResult:
    """One symbolic co-analysis run.

    ``strategy`` is the CSM merge strategy; ``frontier`` schedules the
    path frontier (``dfs`` or ``bfs``).  ``engine`` picks the
    simulation backend (``serial``, the default, ``event`` or
    ``batch``) -- all of them run in this process, through the same
    :class:`~repro.coanalysis.kernel.ExplorationKernel`.  ``batch``
    simulates the whole frontier in lockstep on the bit-packed
    lane-parallel engine (up to 64 paths per settle, one process, freed
    lanes refilled from the frontier by compaction).
    ``checkpoint``/``resume`` journal the run to disk and continue an
    interrupted one (see :mod:`repro.resilience`); ``trace`` writes the
    structured event stream as JSONL (a resumed run appends to it, so
    the file keeps every attempt) and ``progress`` keeps a live status
    line.  ``budget`` is an optional
    :class:`~repro.resilience.governor.RunBudget` governing the run
    (deadline / RSS ceiling / frontier and segment caps -- a tripped
    limit returns a :class:`~repro.coanalysis.results.PartialResult`).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: "
                         + ", ".join(ENGINES))
    target, constraints = _target_and_constraints(design, benchmark,
                                                  use_constraints)
    strategy = strategy or UberConservative()
    csm = ConservativeStateManager(strategy, constraints=constraints)
    tracer = _make_tracer(trace, progress, resume)
    return CoAnalysisEngine(target, csm=csm,
                            max_cycles_per_path=max_cycles_per_path,
                            max_total_cycles=max_total_cycles,
                            application=benchmark,
                            checkpoint=checkpoint, resume=resume,
                            frontier=frontier, tracer=tracer,
                            backend=engine, budget=budget).run()


def run_grid(verbose: bool = False) -> Dict[str, Dict[str, CoAnalysisResult]]:
    """Run the full co-analysis grid, ``results[design][benchmark]``:
    :func:`run_one` with its defaults on every pair of
    :data:`DESIGN_ORDER` x ``WORKLOAD_ORDER``.  ``verbose`` prints one
    progress line per pair."""
    results: Dict[str, Dict[str, CoAnalysisResult]] = {}
    for design in DESIGN_ORDER:
        results[design] = {}
        for benchmark in WORKLOAD_ORDER:
            t0 = time.perf_counter()
            result = run_one(design, benchmark)
            if verbose:
                m = result.metrics
                print(f"  {design:>8} / {benchmark:<10}"
                      f" paths={result.paths_created:<5}"
                      f" merged={m.merges_covered:<5}"
                      f" cycles={m.simulated_cycles:<7}"
                      f" frontier_max={m.frontier_high_water:<4}"
                      f" exercisable={result.exercisable_gate_count}"
                      f" ({time.perf_counter() - t0:.1f}s)")
            results[design][benchmark] = result
    return results
