"""Experiment runner: the full (design x benchmark) co-analysis grid.

Every table and figure in the paper's evaluation is a projection of one
grid of co-analysis runs (3 designs x 6 benchmarks).  This module runs
that grid once and caches results on disk, so the per-table benchmark
harnesses in ``benchmarks/`` can each render their artifact without
re-simulating.

Caching is content-addressed (:mod:`repro.store`): every grid entry is
keyed by the :func:`~repro.store.fingerprint.run_fingerprint` of its
configuration -- netlist structure, CSM config, assembled binary,
engine, frontier, budgets -- so entries self-invalidate the moment any
ingredient changes, with no version constant to bump.  ``run_one`` can
additionally memoize *segment results* through the same store
(``cache=``): a re-run of an identical configuration replays settled
segments instead of re-simulating them.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from ..coanalysis.engine import CoAnalysisEngine
from ..coanalysis.results import CoAnalysisResult
from ..coanalysis.trace import JsonlTraceSink, ProgressLine, Tracer
from ..csm.constraints import ConstraintSet, parse_constraints
from ..csm.manager import ConservativeStateManager
from ..csm.strategies import MergeStrategy, UberConservative
from ..resilience.artifacts import default_cache_dir  # noqa: F401 (re-export)
from ..store import ContentStore, RunFingerprint, SegmentResultCache, \
    run_fingerprint
from ..workloads import WORKLOAD_ORDER, WORKLOADS, build_target

DESIGN_ORDER = ["bm32", "omsp430", "dr5"]     # paper table column order

ENGINES = ("serial", "event", "batch")


def _make_tracer(trace, progress: bool) -> Optional[Tracer]:
    from ..coanalysis.trace import TraceSink
    sinks = []
    if isinstance(trace, TraceSink):
        sinks.append(trace)            # caller-configured sink (service)
    elif trace:
        sinks.append(JsonlTraceSink(trace))
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


def _pair_fingerprint(design: str, benchmark: str,
                      strategy: Optional[MergeStrategy],
                      target, constraints,
                      engine: str = "serial", frontier: str = "dfs",
                      max_cycles_per_path: int = 20000,
                      max_total_cycles: Optional[int] = 2_000_000,
                      ) -> RunFingerprint:
    """Fingerprint one (design, benchmark) configuration."""
    return run_fingerprint(
        netlist=target.netlist, strategy=strategy,
        constraints=constraints, design=design, application=benchmark,
        program=target.program, data_init=target.data_init,
        symbolic_ranges=target.symbolic_ranges,
        engine=engine, frontier=frontier,
        max_cycles_per_path=max_cycles_per_path,
        max_total_cycles=max_total_cycles)


def pair_fingerprint(design: str, benchmark: str,
                     strategy: Optional[MergeStrategy] = None,
                     use_constraints: bool = True,
                     engine: str = "serial", frontier: str = "dfs",
                     max_cycles_per_path: int = 20000,
                     max_total_cycles: Optional[int] = 2_000_000,
                     ) -> RunFingerprint:
    """Fingerprint a (design, benchmark) run the way :func:`run_one`
    would key its caches.

    Builds the target and constraint set itself, so a submission keyed
    on this digest shares segment caches and run manifests with a
    direct ``repro run --cache`` of the same configuration.
    """
    target, constraints = _target_and_constraints(design, benchmark,
                                                  use_constraints)
    return _pair_fingerprint(
        design, benchmark, strategy or UberConservative(),
        target, constraints, engine=engine, frontier=frontier,
        max_cycles_per_path=max_cycles_per_path,
        max_total_cycles=max_total_cycles)


def _register_run(store: ContentStore, fp: RunFingerprint,
                  result: CoAnalysisResult, checkpoint, trace) -> None:
    """Write the ``run-<digest>`` manifest, registering the run's
    on-disk artifacts (checkpoint journal, JSONL trace) as blobs."""
    artifacts: Dict[str, str] = {}
    for label, source in (("checkpoint", checkpoint), ("trace", trace)):
        path = getattr(source, "path", source)
        try:
            if path is not None and Path(path).is_file():
                artifacts[label] = store.put_bytes(
                    Path(path).read_bytes())
        except OSError:
            continue                    # unreadable artifact: skip it
    store.put_manifest(f"run-{fp.digest}", {
        "kind": "run",
        "fingerprint": fp.digest,
        "components": fp.components,
        "summary": result.summary(),
        "segments_manifest": f"segments-{fp.digest}",
        "artifacts": artifacts,
    })


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
            budget=None,
            cache=None) -> CoAnalysisResult:
    """One symbolic co-analysis run.

    ``strategy`` is the CSM merge strategy; ``frontier`` schedules the
    path frontier (``dfs``/``bfs``/``novelty``).  ``engine`` picks the
    simulation backend (``serial``, the default, ``event`` or
    ``batch``) -- all of them run in this process, through the same
    :class:`~repro.coanalysis.kernel.ExplorationKernel`.  ``batch``
    simulates the whole frontier in lockstep on the bit-packed
    lane-parallel engine (up to 64 paths per settle, one process, freed
    lanes refilled from the frontier by compaction).
    ``checkpoint``/``resume`` journal the run to disk and continue an
    interrupted one (see :mod:`repro.resilience`); ``trace`` writes the
    structured event stream as JSONL and ``progress`` keeps a live
    status line.  ``budget`` is an optional
    :class:`~repro.resilience.governor.RunBudget` governing the run
    (deadline / RSS ceiling / frontier and segment caps -- a tripped
    limit returns a :class:`~repro.coanalysis.results.PartialResult`).

    ``cache`` is a directory (or :class:`~repro.store.ContentStore`)
    holding a content-addressed artifact store: settled segment results
    are memoized under the run's fingerprint, so re-running an identical
    (binary, netlist, CSM, engine, strategy) configuration replays
    segments instead of re-simulating them, and a ``run-<digest>``
    manifest records the run and its artifacts.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: "
                         + ", ".join(ENGINES))
    target, constraints = _target_and_constraints(design, benchmark,
                                                  use_constraints)
    strategy = strategy or UberConservative()
    csm = ConservativeStateManager(strategy, constraints=constraints)
    tracer = _make_tracer(trace, progress)

    store = fp = segment_cache = None
    if cache is not None:
        store = cache if isinstance(cache, ContentStore) \
            else ContentStore(Path(cache))
        fp = _pair_fingerprint(
            design, benchmark, strategy, target, constraints,
            engine=engine, frontier=frontier,
            max_cycles_per_path=max_cycles_per_path,
            max_total_cycles=max_total_cycles)
        segment_cache = SegmentResultCache(store, fp.digest)

    result = CoAnalysisEngine(target, csm=csm,
                              max_cycles_per_path=max_cycles_per_path,
                              max_total_cycles=max_total_cycles,
                              application=benchmark,
                              checkpoint=checkpoint, resume=resume,
                              frontier=frontier, tracer=tracer,
                              backend={"serial": "cycle",
                                       "event": "event",
                                       "batch": "batch"}[engine],
                              budget=budget,
                              segment_cache=segment_cache).run()
    if store is not None:
        _register_run(store, fp, result, checkpoint, trace)
    return result


def _load_grid_entry(store: ContentStore,
                     name: str) -> Optional[CoAnalysisResult]:
    """Load one cached grid result; any corruption -- truncated blob,
    bad pickle, missing manifest key, wrong type -- falls through to a
    fresh run instead of crashing the whole grid."""
    try:
        manifest = store.get_manifest(name)
        if not manifest:
            return None
        result = pickle.loads(store.get_bytes(manifest["result"]))
        return result if isinstance(result, CoAnalysisResult) else None
    except Exception:
        return None


def run_grid(designs: Sequence[str] = tuple(DESIGN_ORDER),
             benchmarks: Sequence[str] = tuple(WORKLOAD_ORDER),
             strategy_factory: Callable[[], MergeStrategy] =
             UberConservative,
             cache_dir: Optional[Path] = None,
             verbose: bool = False,
             ) -> Dict[str, Dict[str, CoAnalysisResult]]:
    """Run (or load) the full co-analysis grid.

    Returns ``results[design][benchmark]``.  When ``cache_dir`` is
    given, completed runs are stored in a content-addressed
    :class:`~repro.store.ContentStore` there and reused.  Entries are
    keyed by each pair's full run fingerprint -- netlist structure, CSM
    strategy and constraints, assembled binary, budgets -- so *any*
    change to those inputs gets a fresh run automatically, and ablation
    strategies get distinct entries for free.
    """
    store = ContentStore(Path(cache_dir)) if cache_dir is not None \
        else None
    results: Dict[str, Dict[str, CoAnalysisResult]] = {}
    for design in designs:
        results[design] = {}
        for benchmark in benchmarks:
            strategy = strategy_factory()
            name = None
            if store is not None:
                target, constraints = _target_and_constraints(design,
                                                              benchmark)
                fp = _pair_fingerprint(design, benchmark, strategy,
                                       target, constraints)
                name = f"grid-{fp.digest}"
                cached = _load_grid_entry(store, name)
                if cached is not None:
                    results[design][benchmark] = cached
                    continue
            t0 = time.perf_counter()
            result = run_one(design, benchmark, strategy=strategy)
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
            if store is not None:
                # the blob write and the manifest write are each atomic,
                # and the manifest goes last: a run killed mid-store
                # leaves no entry, never a torn one
                digest = store.put_bytes(
                    pickle.dumps(result,
                                 protocol=pickle.HIGHEST_PROTOCOL))
                store.put_manifest(name, {
                    "kind": "grid",
                    "design": design,
                    "benchmark": benchmark,
                    "strategy": strategy.name,
                    "fingerprint": fp.digest,
                    "components": fp.components,
                    "result": digest,
                })
    return results
