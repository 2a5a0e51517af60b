"""End-to-end co-analysis benchmark: one command, three workloads.

    python3 e2ebench/run.py --workload grid-serial --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics of an untraced run;
``--trace 1`` runs one traced round beside one untraced round and
reports the per-layer metrics (see README.md).  Every operation's
answer is checked against ``reference.json`` and every exact count
against earlier runs of the same source tree; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from
``BENCHMARK.json`` at the repository root.

A run measures as many whole rounds of its workload as fit in
``--seconds`` (at least one) and reports medians over them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import service_load
from workloads import SERVICE, WORKLOADS, operation_labels

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: set-up-only processes per run, besides the measured ones: setup_s
#: is the median over all of them
PROBES = 4
#: the batch engine's default lane width (the workload uses it)
LANES = 64
#: a run must end within 180 s; this leaves room to stop a server
RUN_DEADLINE_S = 140.0
#: the answer fields every operation is checked on
ANSWER_FIELDS = ("exercisable_gates", "paths_created", "paths_skipped",
                 "simulated_cycles")


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- environment -----------------------------------------------------------
def environment_stamp() -> Dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy,
            "load1": os.getloadavg()[0]}


def cpu_times() -> List[int]:
    """The machine's aggregate CPU jiffies (the ``cpu`` line of
    /proc/stat); the eighth field is time stolen by the hypervisor."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_pct(before: List[int], after: List[int]) -> float:
    if len(before) < 8 or len(after) < 8:
        return 0.0
    total = sum(after) - sum(before)
    return 100.0 * (after[7] - before[7]) / total if total else 0.0


def source_digest() -> str:
    """Digest of the program and benchmark sources: exact counts must
    repeat across runs with the same digest."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + \
        sorted(HERE.glob("*.py")) + [HERE / "reference.json"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


# -- analysis workloads ------------------------------------------------------
class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its deadline")
        return left


def launch_child(args, mode: str, work: Path, tag: str,
                 deadline: Deadline, seconds: float = 0.0) -> Dict:
    out = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--mode", mode,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--out", str(out), "--scratch", str(work / f"scratch-{tag}")]
    if mode == "traced":
        cmd += ["--spans", str(RESULTS / f"{args.workload}-seed"
                                          f"{args.seed}-spans.jsonl")]
    cmd += ["--launched", repr(time.time())]
    subprocess.run(cmd, cwd=str(ROOT), stdout=sys.stderr.fileno(),
                   timeout=deadline.left(), check=True)
    with open(out) as fh:
        return json.load(fh)


def run_analysis(args, work: Path, deadline: Deadline) -> Dict:
    probes = [launch_child(args, "setup", work, f"probe{k}", deadline)
              for k in range(PROBES)]
    if not args.trace:
        measured = {"run": launch_child(args, "run", work, "run",
                                        deadline, args.seconds)}
    else:
        # alternate which side runs first, so slow drift of the host
        # does not always favour the same one
        modes = ("run", "traced") if args.seed % 2 == 0 \
            else ("traced", "run")
        measured = {mode: launch_child(args, mode, work, mode, deadline)
                    for mode in modes}
    docs = probes + list(measured.values())
    ops, counts = [], []
    for doc in measured.values():
        for rnd in doc["rounds"]:
            ops.extend(rnd["ops"])
            counts.append(_round_counts(rnd))
    data = {"ops": ops, "counts": counts,
            "setup_samples": [d["setup_s"] for d in docs]}
    if not args.trace:
        data["metrics"] = analysis_e2e(measured["run"], docs)
    else:
        data["metrics"] = analysis_layers(measured["traced"],
                                          measured["run"], docs)
    return data


def _round_counts(rnd: Dict) -> Dict[str, Dict[str, int]]:
    """Exact counts of one round, keyed by operation label."""
    out: Dict[str, Dict[str, int]] = {}
    for op in rnd["ops"]:
        counts = dict(op.get("counts", {}))
        for kind, n in op.get("settle_kinds", {}).items():
            counts[f"settle_{kind}"] = n
        if "answer" in op:
            counts["simulated_cycles"] = op["answer"]["simulated_cycles"]
        out[op["label"]] = counts
    if "spans" in rnd:
        out["_spans"] = {f"calls.{name}": v["calls"]
                         for name, v in rnd["spans"].items()}
    return out


def analysis_e2e(run: Dict, docs: List[Dict]) -> Dict[str, float]:
    rounds = run["rounds"]
    walls = [r["wall_s"] for r in rounds]
    ops = [op for r in rounds for op in r["ops"]]
    cycles = sum(op["answer"]["simulated_cycles"] for op in ops
                 if "answer" in op)
    return {
        "setup_s": median([d["setup_s"] for d in docs]),
        "wall_s": median(walls),
        "latency_p50_s": median([op["end"] - op["start"] for op in ops]),
        "sim_cycles_per_s": cycles / sum(walls),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def _setup_layers(docs: List[Dict]) -> Dict[str, float]:
    return {f"setup.{part}": median([d["setup"][part] for d in docs])
            for part in ("import_s", "build_core_s", "assemble_s",
                         "compile_s", "kernels_s")}


def analysis_layers(traced: Dict, untraced: Dict,
                    docs: List[Dict]) -> Dict[str, float]:
    rnd = traced["rounds"][0]
    spans = rnd["spans"]
    ops = rnd["ops"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def total(key):
        return sum(op.get("counts", {}).get(key, 0) for op in ops)

    def kinds(kind):
        return sum(op["settle_kinds"][kind] for op in ops)

    cycles = sum(op["answer"]["simulated_cycles"] for op in ops
                 if "answer" in op)
    sim_names = ("sim.settle", "sim.clock_edge", "sim.snapshot",
                 "sim.restore", "sim.activity")
    lockstep, lane_cycles = total("lockstep_cycles"), total("lane_cycles")
    realized = lane_cycles / lockstep if lockstep else 0.0
    segments = total("segments")
    observed = total("csm_observed")
    wall = rnd["wall_s"]
    out = _setup_layers(docs)
    out.update({
        "setup.server_ready_s": 0.0,
        "sim.settle_calls": calls("sim.settle"),
        "sim.full_settles": kinds("full"),
        "sim.incremental_settles": kinds("incremental"),
        "sim.noop_settles": kinds("noop"),
        "sim.settle_s": self_s("sim.settle"),
        "sim.clock_edge_s": self_s("sim.clock_edge"),
        "sim.snapshot_s": self_s("sim.snapshot"),
        "sim.restore_s": self_s("sim.restore"),
        "sim.activity_s": self_s("sim.activity"),
        "sim.us_per_cycle": (1e6 * self_s(*sim_names) / cycles
                             if calls("sim.settle") else 0.0),
        "batch.settle_calls": calls("batch.settle"),
        "batch.settle_s": self_s("batch.settle"),
        "batch.clock_edge_s": self_s("batch.clock_edge"),
        "batch.lane_restore_s": self_s("batch.lane_restore"),
        "batch.lane_snapshot_s": self_s("batch.lane_snapshot"),
        "batch.activity_s": self_s("batch.activity"),
        "batch.lockstep_cycles": lockstep,
        "batch.lane_cycles": lane_cycles,
        "batch.realized_parallelism": realized,
        "batch.lane_occupancy": realized / LANES,
        "batch.peak_lanes": max((op.get("counts", {}).get("peak_lanes", 0)
                                 for op in ops), default=0),
        "batch.compactions": total("compactions"),
        "batch.refills": total("refills"),
        "harness.drive_calls": calls("harness.drive"),
        "harness.drive_s": self_s("harness.drive"),
        "harness.on_edge_s": self_s("harness.on_edge"),
        "harness.observe_s": self_s(
            "harness.is_done", "harness.current_pc",
            "harness.at_branch_point", "harness.monitored_has_x"),
        "memory.read_calls": calls("memory.read"),
        "memory.read_s": self_s("memory.read"),
        "memory.write_s": self_s("memory.write"),
        "csm.observe_calls": calls("csm.observe"),
        "csm.observe_s": self_s("csm.observe"),
        "csm.covered_ratio": (total("csm_skipped") / observed
                              if observed else 0.0),
        "csm.distinct_pcs": total("csm_distinct_pcs"),
        "kernel.segments": segments,
        "kernel.paths_created": sum(op["answer"]["paths_created"]
                                    for op in ops if "answer" in op),
        "kernel.splits": total("splits"),
        "kernel.merges": total("merges"),
        "kernel.simulated_cycles": cycles,
        "kernel.batches": total("batches"),
        "kernel.frontier_high_water": max(
            (op.get("counts", {}).get("frontier_high_water", 0)
             for op in ops), default=0),
        "kernel.self_s": self_s("kernel.run_one"),
        "kernel.us_per_segment": (1e6 * self_s("kernel.run_one")
                                  / segments if segments else 0.0),
        "trace.events": calls("trace.emit"),
        "trace.emit_s": self_s("trace.emit"),
        "trace.bytes": sum(op.get("trace_bytes", 0) for op in ops),
        "traced_wall_s": wall,
        "unattributed_s": wall - self_s(*spans),
        "span_overhead_frac": wall / untraced["rounds"][0]["wall_s"] - 1,
    })
    return out


# -- service workload --------------------------------------------------------
def run_service(args, work: Path, deadline: Deadline) -> Dict:
    setups = [service_load.setup_probe(ROOT, work / f"probe{k}")
              for k in range(PROBES)]
    deadline.left()
    rounds: Dict[str, List[Dict]] = {}
    if not args.trace:
        start = time.monotonic()
        rounds["run"] = []
        while True:
            t = time.monotonic()
            rounds["run"].append(service_load.run_round(
                ROOT, work / f"round{len(rounds['run'])}", args.seed,
                len(rounds["run"]), deadline.end, traced=False))
            deadline.left()
            # whole rounds only: stop unless another one fits
            now = time.monotonic()
            if now + (now - t) - start > args.seconds:
                break
    else:
        modes = ("run", "traced") if args.seed % 2 == 0 \
            else ("traced", "run")
        for mode in modes:
            rounds[mode] = [service_load.run_round(
                ROOT, work / mode, args.seed, 0, deadline.end,
                traced=mode == "traced")]
            deadline.left()
    all_rounds = [r for rs in rounds.values() for r in rs]
    setups += [r["setup_s"] for r in all_rounds]
    ops, counts = [], []
    for rnd in all_rounds:
        rnd_counts: Dict[str, Dict[str, int]] = {}
        for p in rnd["passes"]:
            for op in p["ops"]:
                op["pass"] = p["name"]
                view = op.get("view") or {}
                if view:
                    op["answer"] = view.get("summary", {})
                    op["complete"] = view.get("state") == "DONE"
                    if not op["complete"]:
                        op.setdefault("error", f"job ended "
                                               f"{view.get('state')}: "
                                               f"{view.get('error', '')}")
                ops.append(op)
                metrics = view.get("metrics", {})
                rnd_counts[f"{p['name']}:{op['label']}"] = {
                    k: metrics.get(k, 0) for k in (
                        "paths_explored", "splits", "merges_covered",
                        "halts", "simulated_cycles", "batches",
                        "frontier_high_water", "cache_hits",
                        "cache_misses")}
        if "metrics" in rnd:
            counters = rnd["metrics"].get("counters", {})
            rnd_counts["_service"] = {
                **{k: counters.get(k, 0) for k in sorted(counters)},
                "store.objects": rnd["store"]["objects"],
                "store.manifests": rnd["store"]["manifests"],
                "trace.events": sum(t["events"]
                                    for t in rnd["trace_files"])}
        counts.append(rnd_counts)
    data = {"ops": ops, "counts": counts, "setup_samples": setups}
    if not args.trace:
        data["metrics"] = service_e2e(rounds["run"], setups)
    else:
        data["metrics"] = service_layers(rounds["traced"][0],
                                         rounds["run"][0], setups)
    return data


def _service_ops(rnd: Dict) -> List[Dict]:
    return [op for p in rnd["passes"] for op in p["ops"]]


def service_e2e(rounds: List[Dict], setups: List[float]) -> Dict:
    walls = [r["wall_s"] for r in rounds]
    ops = [op for r in rounds for op in _service_ops(r)]
    cycles = sum((op.get("view") or {}).get("summary", {})
                 .get("simulated_cycles", 0) for op in ops)
    return {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "latency_p50_s": median([op["end"] - op["start"] for op in ops]),
        "sim_cycles_per_s": cycles / sum(walls),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


def service_layers(traced: Dict, untraced: Dict,
                   setups: List[float]) -> Dict[str, float]:
    ops = _service_ops(traced)
    views = [op["view"] for op in ops if op.get("view")]
    executed = [v for v in views if v.get("started") is not None]
    runs = [v["finished"] - v["started"] for v in executed]
    in_worker = [v.get("metrics", {}).get("wall_seconds", 0.0)
                 for v in executed]
    metrics = traced["metrics"]
    counters = metrics.get("counters", {})
    cache = metrics.get("segment_cache", {})

    def job_total(key):
        return sum(v.get("metrics", {}).get(key, 0) for v in executed)

    segments = job_total("paths_explored")
    return {
        "setup.server_ready_s": median(setups),
        "kernel.segments": segments,
        "kernel.paths_created": sum(v.get("summary", {})
                                    .get("paths_created", 0)
                                    for v in executed),
        "kernel.splits": job_total("splits"),
        "kernel.merges": job_total("merges_covered"),
        "kernel.simulated_cycles": job_total("simulated_cycles"),
        "kernel.batches": job_total("batches"),
        "kernel.frontier_high_water": max(
            (v.get("metrics", {}).get("frontier_high_water", 0)
             for v in executed), default=0),
        "trace.events": sum(t["events"] for t in traced["trace_files"]),
        "trace.bytes": sum(t["bytes"] for t in traced["trace_files"]),
        "store.segment_cache_hits": cache.get("hits", 0),
        "store.segment_cache_misses": cache.get("misses", 0),
        "store.segment_cache_hit_ratio": cache.get("hit_ratio", 0.0),
        "store.objects": traced["store"]["objects"],
        "store.object_bytes": traced["store"]["object_bytes"],
        "store.manifests": traced["store"]["manifests"],
        "service.submit_s": median([op["submit_s"] for op in ops
                                    if "submit_s" in op]),
        "service.queue_wait_s": median([v["started"] - v["created"]
                                        for v in executed]),
        "service.run_s": median(runs),
        "service.in_worker_s": median(in_worker),
        "service.worker_overhead_s": median(
            [r - w for r, w in zip(runs, in_worker)]),
        "service.dedup_ratio": metrics.get("dedup_hit_ratio", 0.0),
        "service.executed": counters.get("executed", 0),
        "service.cache_served": counters.get("cache_served", 0),
        "traced_wall_s": traced["wall_s"],
        # spans cannot reach the spawned workers: nothing is attributed
        "unattributed_s": traced["wall_s"],
        "span_overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1,
    }


# -- checks ---------------------------------------------------------------------
def check_answers(workload: str, ops: List[Dict]) -> List[str]:
    """One line per failed operation, naming the pair and the field."""
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)[workload]
    missing = sorted(operation_labels(workload) - set(reference))
    if missing:
        raise KeyError(f"reference.json lacks {workload} {missing}")
    failures = []
    for op in ops:
        where = f"{workload} {op['label']}" + (
            f" ({op['pass']} pass)" if "pass" in op else "")
        if "error" in op:
            failures.append(f"{where}: {op['error']}")
            continue
        if not op.get("complete"):
            failures.append(f"{where}: run did not complete")
            continue
        expected = reference[op["label"]]
        diffs = [f"{k} {op['answer'].get(k)} != {expected[k]}"
                 for k in ANSWER_FIELDS
                 if op["answer"].get(k) != expected[k]]
        if op["answer"].get("truncated_paths"):
            diffs.append(f"truncated_paths "
                         f"{op['answer']['truncated_paths']} != 0")
        if diffs:
            failures.append(f"{where}: " + "; ".join(diffs))
    return failures


def check_drift(workload: str, samples: List[Dict],
                digest: str) -> List[str]:
    """Compare every exact count with the first value recorded for the
    same source digest (this run's earlier rounds or earlier runs)."""
    path = RESULTS / f"counts-{workload}-{digest}.json"
    for stale in RESULTS.glob(f"counts-{workload}-*.json"):
        if stale != path:
            stale.unlink()
    try:
        with open(path) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError):
        baseline = {}
    errors = []
    for sample in samples:
        for key, counts in sample.items():
            base = baseline.setdefault(key, {})
            for name, value in counts.items():
                if name in base and base[name] != value:
                    errors.append(f"{workload} {key} {name}: {value} "
                                  f"!= {base[name]} recorded earlier")
                else:
                    base.setdefault(name, value)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return errors


# -- entry point -----------------------------------------------------------------
def load_metric_units() -> Dict[str, Dict[str, str]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    units = load_metric_units()
    # children must see SIGINT with its default meaning, even when this
    # process was started with it ignored (the server drains on SIGINT);
    # SIGTERM unwinds through the clean-up that stops every child
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = Deadline(RUN_DEADLINE_S)
    stamp = environment_stamp()
    cpu_before = cpu_times()
    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.workload == SERVICE:
            data = run_service(args, work, deadline)
        else:
            data = run_analysis(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # CPU time the hypervisor took from this machine during the run
    stamp["steal_pct"] = steal_pct(cpu_before, cpu_times())
    digest = source_digest()
    failures = check_answers(args.workload, data["ops"])
    drift = check_drift(args.workload, data["counts"], digest)
    wanted = units["per_layer" if args.trace else "end_to_end"]
    metrics = data["metrics"]
    unknown = sorted(set(metrics) - set(wanted))
    if unknown or (not args.trace and set(metrics) != set(wanted)):
        raise KeyError(f"metrics differ from BENCHMARK.json: "
                       f"{sorted(set(metrics) ^ set(wanted))}")
    # a layer the workload bypasses does no work: it reports zero
    metrics = {name: metrics.get(name, 0) for name in wanted}
    failed = len(failures)
    attempted = len(data["ops"])
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": stamp, "source_digest": digest,
        "setup_samples": data["setup_samples"],
        "failures": failures, "drift": drift,
        "metrics": metrics, "ops": data["ops"],
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"# operations: {attempted} attempted, {failed} failed; "
          f"set-up samples: {len(data['setup_samples'])}; "
          f"results: {out.relative_to(ROOT)}")
    for line in failures + drift:
        print(f"# ERROR {line}")
    for name in wanted:
        print(f"{name:32} {metrics[name]!r:>24} {wanted[name]}")
    print(json.dumps({
        "correct": not failures and not drift,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": wanted[name]}
                    for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
