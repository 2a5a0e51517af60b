"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run``      -- symbolic co-analysis of a benchmark on a core
  (``analyze`` is the historical alias); ``--engine`` picks the
  simulation backend, ``--strategy`` the frontier scheduling policy,
  ``--csm`` the merge strategy, ``--trace``/``--progress`` the
  observability sinks
* ``bespoke``  -- analysis + bespoke generation + validation (+ Verilog out)
* ``verify``   -- formal equivalence check of the bespoke netlist
  (SAT miter under the co-analysis assumptions; ``--mode`` picks
  simulation spot-checks, the SAT proof, or both)
* ``grid``     -- the full evaluation grid: Tables 3/4, Figures 5/6
* ``power``    -- bespoke power savings + input-independent peak bound
* ``asm``      -- assemble a program file for one of the ISAs
* ``trace``    -- concrete run with a VCD waveform dump
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .analysis import (analyze_coverage, analyze_peak_power,
                       compare_power, timing_slack)
from .bespoke import area_report, generate_bespoke, validate_bespoke
from .coanalysis.concrete import run_concrete
from .coanalysis.engine import ENGINES
from .coanalysis.frontier import FRONTIER_STRATEGIES
from .coanalysis.results import CoAnalysisError, PartialResult
from .resilience.artifacts import atomic_write_text
from .resilience.governor import RunBudget
from .csm import CSM_STRATEGIES
from .isa import ASSEMBLERS
from .netlist import write_verilog
from .reporting import (DESIGN_ORDER, figure5, figure6, run_grid, table3,
                        table4)
from .reporting.runner import run_one
from .sim.vcd import VcdWriter
from .workloads import WORKLOAD_ORDER, WORKLOADS, build_target

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


def _add_pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("design", choices=["omsp430", "bm32", "dr5"])
    p.add_argument("benchmark", choices=WORKLOAD_ORDER)


def _run_budget(args) -> Optional[RunBudget]:
    budget = RunBudget(deadline_seconds=args.deadline,
                       max_rss_mb=args.max_rss_mb,
                       max_frontier=args.max_frontier,
                       max_segments=args.max_segments)
    return None if budget.unlimited else budget


def cmd_analyze(args) -> int:
    result = run_one(args.design, args.benchmark,
                     strategy=CSM_STRATEGIES[args.csm](),
                     use_constraints=not args.no_constraints,
                     checkpoint=args.checkpoint, resume=args.resume,
                     frontier=args.strategy, engine=args.engine,
                     trace=args.trace, progress=args.progress,
                     budget=_run_budget(args))
    summary = result.summary()
    if result.resumed:
        print(f"# resumed from checkpoint {args.checkpoint}",
              file=sys.stderr)
    if args.trace:
        print(f"# trace written to {args.trace}", file=sys.stderr)
    if args.json:
        summary["metrics"] = result.metrics.summary()
        # always present in machine output, even on a complete run:
        # scripts branch on it without probing for the key first
        summary["stop_reason"] = getattr(result, "stop_reason", None)
        print(json.dumps(summary, indent=2))
    else:
        for key, value in summary.items():
            print(f"{key:>20}: {value}")
    if not result.complete:
        assert isinstance(result, PartialResult)
        hint = (f"; resume with --checkpoint {args.checkpoint} --resume"
                if args.checkpoint else
                "; re-run with --checkpoint to make partial runs resumable")
        print(f"# partial result ({result.stop_reason}): "
              f"{result.stop_detail or 'governed stop'} -- "
              f"{result.pending_paths} paths pending{hint}",
              file=sys.stderr)
        return 4
    return 0


def cmd_bespoke(args) -> int:
    result = run_one(args.design, args.benchmark)
    workload = WORKLOADS[args.benchmark]
    original = build_target(args.design, workload)
    bespoke_nl = generate_bespoke(original.netlist, result.profile)
    report = area_report(original.netlist, bespoke_nl)
    print(f"gates: {report['gates_before']} -> {report['gates_after']} "
          f"({report['gate_reduction_percent']}% reduction)")
    print(f"area : {report['area_before']} -> {report['area_after']} "
          f"({report['area_reduction_percent']}% reduction)")
    from .netlist.stats import pruned_breakdown
    print("pruned gates by cell kind:")
    print(pruned_breakdown(original.netlist, bespoke_nl))
    bespoke = build_target(args.design, workload, netlist=bespoke_nl)
    validation = validate_bespoke(original, bespoke, result,
                                  cases=workload.cases)
    print(f"validation: "
          f"{'PASS' if validation.ok else 'FAIL'} "
          f"({validation.cases_run} cases)")
    for mismatch in validation.mismatches:
        print("  !!", mismatch)
    if args.output:
        atomic_write_text(args.output, write_verilog(bespoke_nl))
        print(f"bespoke netlist written to {args.output}")
    return 0 if validation.ok else 1


def cmd_verify(args) -> int:
    from .bespoke.validate import validate_bespoke as _validate
    from .coanalysis.engine import CoAnalysisEngine
    from .coanalysis.trace import JsonlTraceSink, Tracer
    from .csm.constraints import ConstraintSet, parse_constraints
    from .csm.manager import ConservativeStateManager
    from .netlist.stats import pruned_breakdown
    from .reporting import equivalence_table

    workload = WORKLOADS[args.benchmark]
    target = build_target(args.design, workload)
    constraints = None
    text = workload.constraints.get(args.design)
    if text and not args.no_constraints:
        constraints = ConstraintSet(parse_constraints(text),
                                    target.state_net_positions())
    # run the engine directly (not run_one) so the CSM's reachable
    # super-states stay accessible for assumption cubes
    csm = ConservativeStateManager(CSM_STRATEGIES[args.csm](),
                                   constraints=constraints)
    engine = CoAnalysisEngine(target, csm=csm, application=args.benchmark)
    result = engine.run()
    bespoke_nl = generate_bespoke(target.netlist, result.profile)
    bespoke = build_target(args.design, workload, netlist=bespoke_nl)

    tracer = Tracer([JsonlTraceSink(args.trace)]) if args.trace else None
    states = None
    if args.csm_states:
        states = [s for lst in csm.repository.values() for s in lst]
    validation = _validate(target, bespoke, result, cases=workload.cases,
                           mode=args.mode, unroll=args.unroll,
                           max_conflicts=args.max_conflicts,
                           csm_states=states, tracer=tracer)
    if tracer is not None:
        tracer.close()
        print(f"# trace written to {args.trace}", file=sys.stderr)

    payload = {
        "design": args.design,
        "benchmark": args.benchmark,
        "mode": validation.mode,
        "ok": validation.ok,
        "equiv": validation.equiv,
        "equiv_status": validation.equiv_status,
        "equiv_replay": validation.equiv_replay,
        "sim_cases": validation.cases_run,
        "sim_ok": validation.sim_ok if args.mode != "sat" else None,
        "mismatches": validation.mismatches,
        "gates": {"original": validation.original_gates,
                  "bespoke": validation.bespoke_gates},
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        if args.mode in ("sat", "both"):
            print(equivalence_table([validation.equiv]))
            replay = validation.equiv_replay
            if replay:
                print(f"counterexample replay: "
                      f"{'CONFIRMED' if replay['confirmed'] else 'refuted'}"
                      f" -- {replay['note']}")
        if args.mode in ("sim", "both"):
            print(f"simulation spot-check: "
                  f"{'PASS' if validation.sim_ok else 'FAIL'} "
                  f"({validation.cases_run} cases)")
        for mismatch in validation.mismatches:
            print("  !!", mismatch)
        print("pruned gates by cell kind:")
        print(pruned_breakdown(target.netlist, bespoke_nl))
        print(f"verdict: {'PASS' if validation.ok else 'FAIL'}")
    if args.report:
        atomic_write_text(args.report, json.dumps(payload, indent=2))
        print(f"equivalence report written to {args.report}",
              file=sys.stderr)
    return 0 if validation.ok else 1


def cmd_grid(args) -> int:
    results = run_grid(verbose=not args.quiet)
    print()
    print(table3(results, WORKLOAD_ORDER, DESIGN_ORDER))
    print()
    print(table4(results, WORKLOAD_ORDER, DESIGN_ORDER))
    if args.figures:
        print()
        print(figure5(results, WORKLOAD_ORDER, DESIGN_ORDER))
        print(figure6(results, WORKLOAD_ORDER, DESIGN_ORDER))
    return 0


def cmd_power(args) -> int:
    workload = WORKLOADS[args.benchmark]
    target = build_target(args.design, workload)
    peak = analyze_peak_power(target, application=args.benchmark)
    bespoke_nl = generate_bespoke(target.netlist, peak.analysis.profile)
    bespoke = build_target(args.design, workload, netlist=bespoke_nl)
    savings = compare_power(target, bespoke, workload.cases[0])
    print(f"input-independent peak switching bound: "
          f"{peak.peak_bound:.1f} (cycle {peak.peak_cycle}, "
          f"path {peak.peak_path})")
    print(f"measured concrete peak (case 0)       : "
          f"{savings.original.peak_energy:.1f}")
    print(f"bespoke energy saving                  : "
          f"{savings.energy_saving_percent:.1f}%")
    print(f"bespoke leakage saving                 : "
          f"{savings.leakage_saving_percent:.1f}%")
    return 0


def cmd_timing(args) -> int:
    result = run_one(args.design, args.benchmark)
    target = build_target(args.design, WORKLOADS[args.benchmark])
    slack = timing_slack(target.netlist, result.profile)
    print(f"full critical path       : "
          f"{slack.full.critical_delay:.2f} gate-delays "
          f"({len(slack.full.critical_path)} stages, "
          f"endpoint {slack.full.endpoint})")
    print(f"exercisable critical path: "
          f"{slack.exercisable.critical_delay:.2f} gate-delays")
    print(f"application timing slack : {slack.slack_percent:.1f}%")
    return 0


def cmd_coverage(args) -> int:
    target = build_target(args.design, WORKLOADS[args.benchmark])
    report = analyze_coverage(target, application=args.benchmark)
    if args.json:
        print(json.dumps(report.summary(), indent=2))
        return 0
    for key, value in report.summary().items():
        print(f"{key:>18}: {value}")
    if report.dead:
        labels = report.dead_labels()
        print(f"{'dead addresses':>18}: {report.dead}"
              + (f" (labels: {labels})" if labels else ""))
    return 0


def cmd_store(args) -> int:
    from .store import ContentStore
    store = ContentStore(Path(args.cache))
    if args.action == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            for key, value in stats.items():
                print(f"{key:>15}: {value}")
        return 0
    if args.action == "ls":
        rows = []
        for name, manifest in sorted(store.manifests()):
            if manifest is None:
                rows.append({"name": name, "kind": "?",
                             "error": "unreadable"})
                continue
            row = {"name": name,
                   "kind": manifest.get("kind", "?")}
            components = manifest.get("components")
            if isinstance(components, dict):
                row["design"] = components.get("design")
                row["application"] = components.get("application")
            rows.append(row)
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            for row in rows:
                extra = " ".join(f"{k}={v}" for k, v in row.items()
                                 if k not in ("name", "kind")
                                 and v is not None)
                print(f"{row['kind']:>8}  {row['name']}"
                      + (f"  {extra}" if extra else ""))
        return 0
    if args.action == "gc":
        report = store.gc()
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(f"kept {report['kept']} objects, removed "
                  f"{report['removed']} "
                  f"({report['freed_bytes']} bytes freed)")
        return 0
    # verify
    report = store.verify()
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"objects: {report['objects']} "
              f"({len(report['corrupt_objects'])} corrupt), "
              f"manifests: {report['manifests']} "
              f"({len(report['unreadable_manifests'])} unreadable), "
              f"missing blobs: {len(report['missing_blobs'])}")
        for item in (report["corrupt_objects"]
                     + report["unreadable_manifests"]
                     + report["missing_blobs"]):
            print(f"  !! {item}")
        print("OK" if report["ok"] else "CORRUPT")
    return 0 if report["ok"] else 1


def cmd_serve(args) -> int:
    from .service import DEFAULT_PORT, Scheduler, ServiceAPI
    if args.port is None:
        args.port = DEFAULT_PORT
    scheduler = Scheduler(Path(args.cache), workers=args.workers).start()
    api = ServiceAPI(scheduler, host=args.host, port=args.port,
                     verbose=args.verbose)
    print(f"# job service on {api.url} (store: {args.cache}, "
          f"{args.workers} workers)", file=sys.stderr)
    try:
        api.serve_forever()
    except KeyboardInterrupt:
        print("# shutting down: draining workers to checkpoints",
              file=sys.stderr)
    finally:
        api.shutdown()
        scheduler.stop()
    return 0


def _job_row(view: dict) -> str:
    state = view.get("state", "?")
    spec = view.get("spec", {})
    flags = []
    if view.get("cache_hit"):
        flags.append("cached")
    if view.get("coalesced_into") and not view.get("cache_hit"):
        flags.append(f"=>{view['coalesced_into']}")
    if view.get("resume_of"):
        flags.append(f"resumes:{view['resume_of']}")
    if view.get("stop_reason"):
        flags.append(f"stop:{view['stop_reason']}")
    return (f"{view.get('job', '?'):>14}  {state:<9} "
            f"{spec.get('design', '?')}/{spec.get('benchmark', '?')} "
            f"csm={spec.get('csm', '?')} engine={spec.get('engine', '?')}"
            + (f"  [{' '.join(flags)}]" if flags else ""))


#: CLI exit code for each terminal job state (mirrors `repro run`)
_EXIT_FOR_STATE = {"DONE": 0, "FAILED": 2, "CANCELLED": 3, "PARTIAL": 4}


def cmd_submit(args) -> int:
    from .service import ServiceClient, ServiceError
    client = ServiceClient(args.url)
    spec = {"design": args.design, "benchmark": args.benchmark,
            "csm": args.csm, "engine": args.engine,
            "frontier": args.strategy,
            "use_constraints": not args.no_constraints,
            "deadline_seconds": args.deadline,
            "max_rss_mb": args.max_rss_mb,
            "max_frontier": args.max_frontier,
            "max_segments": args.max_segments,
            "submitter": args.submitter,
            "dedup": not args.no_dedup,
            "resume_from": args.resume_from}
    try:
        view = client.submit(spec)
        if args.wait:
            view = client.wait(view["job"], timeout=args.timeout)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(view, indent=2))
    else:
        print(_job_row(view))
    if args.wait:
        return _EXIT_FOR_STATE.get(view.get("state"), 2)
    return 0


def cmd_jobs(args) -> int:
    from .service import ServiceClient, ServiceError
    client = ServiceClient(args.url)
    try:
        if args.cancel:
            view = client.cancel(args.cancel)
            print(json.dumps(view, indent=2) if args.json
                  else _job_row(view))
            return 0
        if args.trace:
            for event in client.trace_lines(args.trace):
                print(json.dumps(event, separators=(",", ":")))
            return 0
        if args.metrics:
            print(json.dumps(client.metrics(), indent=2))
            return 0
        if args.job_id:
            view = client.artifacts(args.job_id) if args.artifacts \
                else client.job(args.job_id)
            print(json.dumps(view, indent=2) if args.json
                  else _job_row(view) if not args.artifacts
                  else json.dumps(view, indent=2))
            return 0
        views = client.jobs()
        if args.json:
            print(json.dumps(views, indent=2))
        else:
            for view in views:
                print(_job_row(view))
            if not views:
                print("# no jobs", file=sys.stderr)
        return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_asm(args) -> int:
    assembler = ASSEMBLERS[args.design]()
    source = Path(args.source).read_text()
    program = assembler.assemble(source, name=Path(args.source).stem)
    digits = (assembler.word_width + 3) // 4
    for addr, word in enumerate(program.words):
        print(f"{addr:04x}: {word:0{digits}x}")
    print(f"; {program.size} words, labels: "
          f"{', '.join(f'{k}={v}' for k, v in sorted(program.labels.items()))}",
          file=sys.stderr)
    return 0


def cmd_disasm(args) -> int:
    from .isa.disasm import disassemble_program
    assembler = ASSEMBLERS[args.design]()
    source = Path(args.source).read_text()
    program = assembler.assemble(source, name=Path(args.source).stem)
    by_addr = {v: k for k, v in program.labels.items()}
    for addr, text in enumerate(
            disassemble_program(args.design, program.words)):
        label = f"{by_addr[addr]}:" if addr in by_addr else ""
        print(f"{addr:04x}: {label:<12} {text}")
    return 0


def cmd_trace(args) -> int:
    workload = WORKLOADS[args.benchmark]
    target = build_target(args.design, workload)
    nets = target.pc_nets + list(target.monitored_nets)
    with VcdWriter(args.output, target.netlist, nets=nets) as vcd:
        run = run_concrete(target, workload.cases[args.case],
                           max_cycles=args.max_cycles,
                           cycle_observer=lambda sim, _path, cycle:
                           vcd.sample(sim, cycle))
    print(f"{run.cycles} cycles dumped to {args.output} "
          f"({len(nets)} signals)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Design-agnostic symbolic simulation for "
                    "hardware-software co-analysis (DAC'22 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("run", "run symbolic co-analysis"),
            ("analyze", "alias of `run` (historical name)")):
        p = sub.add_parser(name, help=help_text)
        _add_pair_args(p)
        p.add_argument("--strategy", choices=sorted(FRONTIER_STRATEGIES),
                       default="dfs",
                       help="frontier scheduling policy (default: dfs, "
                            "the paper's depth-first stack)")
        p.add_argument("--csm", choices=sorted(CSM_STRATEGIES),
                       default="uber",
                       help="conservative-state-manager merge strategy")
        p.add_argument("--engine", choices=ENGINES, default="serial",
                       help="simulation backend (default: serial; batch "
                            "runs the whole frontier in lockstep, up to "
                            "64 paths per settle)")
        p.add_argument("--no-constraints", action="store_true",
                       help="ignore the workload's CSM constraint file")
        p.add_argument("--json", action="store_true")
        p.add_argument("--trace", metavar="PATH",
                       help="write the structured exploration event "
                            "stream to PATH as JSON Lines")
        p.add_argument("--progress", action="store_true",
                       help="keep a live progress line on stderr")
        p.add_argument("--checkpoint", metavar="PATH",
                       help="journal the run to this file so it can be "
                            "resumed after an interruption")
        p.add_argument("--resume", action="store_true",
                       help="continue from the newest intact record in "
                            "--checkpoint instead of starting fresh")
        p.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget; a governed run past it "
                            "checkpoints and exits 4 with a partial "
                            "result (resume with --resume)")
        p.add_argument("--max-rss-mb", type=float, default=None,
                       metavar="MB",
                       help="memory watchdog: stop gracefully once the "
                            "process RSS exceeds MB mebibytes")
        p.add_argument("--max-frontier", type=int, default=None,
                       metavar="N",
                       help="stop gracefully once more than N paths are "
                            "pending (bounds checkpoint size and memory)")
        p.add_argument("--max-segments", type=int, default=None,
                       metavar="N",
                       help="stop gracefully after N explored segments")
        p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bespoke", help="generate + validate a bespoke core")
    _add_pair_args(p)
    p.add_argument("-o", "--output", help="write bespoke Verilog here")
    p.set_defaults(func=cmd_bespoke)

    p = sub.add_parser("verify",
                       help="formal equivalence check of the bespoke "
                            "netlist (SAT miter + counterexample replay)")
    _add_pair_args(p)
    p.add_argument("--mode", choices=["sim", "sat", "both"],
                   default="sat",
                   help="simulation spot-checks, the SAT proof, or both "
                        "(default: sat)")
    p.add_argument("--unroll", type=int, default=1, metavar="K",
                   help="compare K chained transition-function frames "
                        "(default: 1)")
    p.add_argument("--max-conflicts", type=int, default=None, metavar="N",
                   help="CDCL conflict budget before reporting UNKNOWN")
    p.add_argument("--csm-states", action="store_true",
                   help="restrict frame-0 state to the CSM's reachable "
                        "super-states (one assumption cube per state)")
    p.add_argument("--csm", choices=sorted(CSM_STRATEGIES),
                   default="uber",
                   help="conservative-state-manager merge strategy")
    p.add_argument("--no-constraints", action="store_true",
                   help="ignore the workload's CSM constraint file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", metavar="PATH",
                   help="write typed equivalence events to PATH (JSONL)")
    p.add_argument("--report", metavar="PATH",
                   help="write the JSON equivalence report to PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grid", help="full evaluation grid (Tables 3/4)")
    p.add_argument("--figures", action="store_true")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("power", help="power savings and peak bound")
    _add_pair_args(p)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("timing", help="application-specific timing slack")
    _add_pair_args(p)
    p.set_defaults(func=cmd_timing)

    p = sub.add_parser("coverage", help="symbolic program coverage")
    _add_pair_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("store",
                       help="inspect/maintain a content-addressed "
                            "artifact store (a job service's jobs and "
                            "artifacts)")
    p.add_argument("action", choices=["ls", "stats", "gc", "verify"],
                   help="ls: list manifests; stats: object/manifest "
                        "counts; gc: drop unreferenced blobs; verify: "
                        "re-hash every blob")
    p.add_argument("--cache", metavar="DIR", default=".repro_cache",
                   help="store root (default: .repro_cache)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_store)

    p = sub.add_parser("serve",
                       help="run the job service: an HTTP API over a "
                            "deduplicating scheduler and worker pool")
    p.add_argument("--cache", metavar="DIR", default=".repro_cache",
                   help="content-addressed store backing the queue and "
                        "every job artifact (default: .repro_cache)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port (default: 8351)")
    p.add_argument("--workers", type=_positive_int, default=2, metavar="N",
                   help="jobs running at once, each in its own worker "
                        "process (default: 2)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit",
                       help="submit a co-analysis job to a running "
                            "`repro serve` instance")
    _add_pair_args(p)
    p.add_argument("--url", default="http://127.0.0.1:8351",
                   help="service base URL (default: "
                        "http://127.0.0.1:8351)")
    p.add_argument("--csm", choices=sorted(CSM_STRATEGIES),
                   default="uber")
    p.add_argument("--engine", choices=ENGINES, default="serial")
    p.add_argument("--strategy", choices=sorted(FRONTIER_STRATEGIES),
                   default="dfs")
    p.add_argument("--no-constraints", action="store_true")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS")
    p.add_argument("--max-rss-mb", type=float, default=None, metavar="MB")
    p.add_argument("--max-frontier", type=int, default=None, metavar="N")
    p.add_argument("--max-segments", type=int, default=None, metavar="N")
    p.add_argument("--submitter", default="cli",
                   help="label recorded on the job")
    p.add_argument("--no-dedup", action="store_true",
                   help="force a fresh execution even when an identical "
                        "job is in flight or already done")
    p.add_argument("--resume", dest="resume_from", default=None,
                   metavar="JOB",
                   help="continue a PARTIAL/FAILED job's checkpoint as "
                        "a new job, under this submission's budget")
    p.add_argument("--wait", action="store_true",
                   help="block until the job settles; exit 0/2/3/4 for "
                        "DONE/FAILED/CANCELLED/PARTIAL")
    p.add_argument("--timeout", type=float, default=None,
                   metavar="SECONDS", help="give up --wait after this")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs",
                       help="inspect a running job service: list/show "
                            "jobs, stream traces, cancel, metrics")
    p.add_argument("job_id", nargs="?", default=None,
                   help="show one job instead of listing all")
    p.add_argument("--url", default="http://127.0.0.1:8351")
    p.add_argument("--cancel", metavar="JOB",
                   help="cancel a queued or running job")
    p.add_argument("--trace", metavar="JOB",
                   help="stream the job's JSONL trace (follows a "
                        "running job until it settles)")
    p.add_argument("--metrics", action="store_true",
                   help="print the service /metrics payload")
    p.add_argument("--artifacts", action="store_true",
                   help="with a job id: print artifact digests + summary")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("asm", help="assemble a program")
    p.add_argument("design", choices=["omsp430", "bm32", "dr5"])
    p.add_argument("source", help="assembly source file")
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("disasm", help="assemble then disassemble a program")
    p.add_argument("design", choices=["omsp430", "bm32", "dr5"])
    p.add_argument("source", help="assembly source file")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("trace", help="concrete run with VCD dump")
    _add_pair_args(p)
    p.add_argument("-o", "--output", default="trace.vcd")
    p.add_argument("--case", type=int, default=0)
    p.add_argument("--max-cycles", type=int, default=6000)
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not getattr(args, "checkpoint",
                                                      None):
        parser.error("--resume requires --checkpoint")
    try:
        return args.func(args)
    except CoAnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        checkpoint = getattr(args, "checkpoint", None)
        hint = f"; resume with --checkpoint {checkpoint} --resume" \
            if checkpoint else ""
        print(f"interrupted{hint}", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
