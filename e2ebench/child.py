"""One analysis process of the grid-serial / batch-bfs workloads.

``run.py`` launches this file as a fresh interpreter, so every sample
pays the real start-up: interpreter, ``import repro``, core build,
netlist compile and assembly.  Modes:

* ``setup``: set up and exit (a set-up time sample);
* ``run``: set up, then run as many whole rounds of the workload's
  operations as fit in ``--seconds`` (at least one);
* ``traced``: like ``run`` but exactly one round, with span wrappers
  installed (see ``spans.py``); writes the spans as JSONL.

The child writes one JSON document to ``--out``; ``run.py`` turns it
into metrics and checks the answers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from spans import KERNEL_SPAN, SpanRecorder
from workloads import ANALYSIS, label, round_order

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _counts(result) -> dict:
    """The exact counts one operation must repeat on every run."""
    m = result.metrics
    csm = result.csm_stats or {}
    out = {
        "segments": m.paths_explored,
        "splits": m.splits,
        "merges": m.merges_covered,
        "halts": m.halts,
        "batches": m.batches,
        "frontier_high_water": m.frontier_high_water,
        "csm_observed": csm.get("observed", 0),
        "csm_skipped": csm.get("skipped", 0),
        "csm_distinct_pcs": csm.get("distinct_pcs", 0),
    }
    stats = result.batch_stats
    if stats is not None:
        out.update(lockstep_cycles=stats.lockstep_cycles,
                   lane_cycles=stats.lane_cycles,
                   peak_lanes=stats.peak_lanes,
                   compactions=stats.compactions,
                   refills=stats.refills)
    return out


def main(argv=None) -> int:
    launched = time.time()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced"),
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--launched", type=float, default=None,
                    help="wall-clock time the parent launched us")
    ap.add_argument("--out", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    if args.launched is not None:
        launched = args.launched

    sys.path.insert(0, str(ROOT / "src"))
    spec = ANALYSIS[args.workload]
    from repro.reporting.runner import run_one
    from repro.sim.cycle_sim import compile_netlist
    from repro.workloads import WORKLOADS, build_target, built_core
    batch = spec["run_kwargs"].get("engine") == "batch"
    if batch:
        from repro.sim.batch_kernels import batch_kernels_for
    imported = time.time()

    recorder = None
    if args.mode == "traced":
        recorder = SpanRecorder()
        recorder.install()
        run_one = recorder.wrap(run_one, KERNEL_SPAN)

    # -- set-up: warm every per-process cache the operations use -------
    setup = {"import_s": imported - launched, "build_core_s": 0.0,
             "compile_s": 0.0, "assemble_s": 0.0, "kernels_s": 0.0}
    designs = sorted({d for d, _ in spec["pairs"]})
    for design in designs:
        t = time.perf_counter()
        netlist, _meta = built_core(design)
        setup["build_core_s"] += time.perf_counter() - t
        t = time.perf_counter()
        compiled = compile_netlist(netlist)
        setup["compile_s"] += time.perf_counter() - t
        if batch:
            t = time.perf_counter()
            batch_kernels_for(compiled, 1)
            setup["kernels_s"] += time.perf_counter() - t
    for design, bench in spec["pairs"]:
        t = time.perf_counter()
        build_target(design, WORKLOADS[bench])
        setup["assemble_s"] += time.perf_counter() - t
    ready = time.time()

    doc = {"mode": args.mode, "setup_s": ready - launched,
           "setup": setup, "rounds": []}
    if args.mode != "setup":
        scratch = Path(args.scratch)
        scratch.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        round_index = 0
        while True:
            t = time.perf_counter()
            doc["rounds"].append(_round(
                args, spec, round_order(args.workload, args.seed,
                                        round_index),
                run_one, recorder, scratch))
            round_index += 1
            # whole rounds only: stop unless another one fits
            now = time.perf_counter()
            if args.mode == "traced" or \
                    now + (now - t) - start > args.seconds:
                break
        shutil.rmtree(scratch, ignore_errors=True)
        doc["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, args.out)
    return 0


def _round(args, spec, pairs, run_one, recorder, scratch) -> dict:
    ops = []
    trace_paths = []
    t0 = time.perf_counter()
    for i, (design, bench) in enumerate(pairs):
        kwargs = dict(spec["run_kwargs"])
        trace_path = None
        if spec["trace_file"]:
            trace_path = scratch / f"trace-{i}.jsonl"
            kwargs["trace"] = str(trace_path)
        if recorder is not None:
            recorder.op = i
        op = {"label": label((design, bench))}
        start = time.perf_counter()
        try:
            result = run_one(design, bench, **kwargs)
        except Exception as exc:          # noqa: BLE001 -- a failed op
            op["error"] = f"{type(exc).__name__}: {exc}"
            result = None
        op["start"] = start - t0
        op["end"] = time.perf_counter() - t0
        if recorder is not None:
            recorder.op = -1
        if result is not None:
            summary = result.summary()
            op["complete"] = bool(result.complete)
            op["answer"] = {k: summary[k] for k in (
                "exercisable_gates", "paths_created", "paths_skipped",
                "simulated_cycles", "truncated_paths")}
            op["counts"] = _counts(result)
        if recorder is not None:
            op["settle_kinds"] = recorder.settle_kinds()
        trace_paths.append(trace_path)
        ops.append(op)
    wall = ops[-1]["end"] - ops[0]["start"]
    for op, path in zip(ops, trace_paths):
        if path is not None and path.is_file():
            op["trace_bytes"] = path.stat().st_size
            with open(path, "rb") as fh:
                op.setdefault("counts", {})["trace_events"] = \
                    sum(1 for _ in fh)
            path.unlink()
    out = {"wall_s": wall, "ops": ops}
    if recorder is not None:
        out["spans"] = recorder.totals()
        out["span_count"] = len(recorder.spans)
        if args.spans:
            recorder.write_jsonl(args.spans, [o["label"] for o in ops],
                                 t0)
    return out


if __name__ == "__main__":
    sys.exit(main())
