"""Formatting of the paper's tables from co-analysis results.

* Table 1: benchmark applications (metadata)
* Table 2: target platform characterization (metadata)
* Table 3: gate count analysis (exercisable gates + % reduction)
* Table 4: simulation path and runtime analysis
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

from ..coanalysis.results import CoAnalysisResult


def _rule(widths: Sequence[int]) -> str:
    return "+".join("-" * (w + 2) for w in [0, *widths, 0])[1:-1]


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Plain-text grid renderer used by every table/bench report."""
    srows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [_rule(widths)]
    lines.append("|" + "|".join(f" {h:<{w}} "
                                for h, w in zip(headers, widths)) + "|")
    lines.append(_rule(widths))
    for row in srows:
        lines.append("|" + "|".join(f" {c:<{w}} "
                                    for c, w in zip(row, widths)) + "|")
    lines.append(_rule(widths))
    return "\n".join(lines)


def table1(workloads) -> str:
    """Paper Table 1: benchmark applications."""
    rows = [(w.name, w.description) for w in workloads]
    return render_table(["Benchmark", "Description"], rows)


def table2(metas) -> str:
    """Paper Table 2: target platform characterization."""
    rows = [(m.name, m.isa, m.features) for m in metas]
    return render_table(["Design", "ISA", "Features"], rows)


ResultGrid = Mapping[str, Mapping[str, CoAnalysisResult]]
# results[design][benchmark] -> CoAnalysisResult


def table3(results: ResultGrid, benchmarks: Sequence[str],
           designs: Sequence[str]) -> str:
    """Paper Table 3: exercisable gate count and % reduction."""
    headers = ["Benchmark"]
    for design in designs:
        any_result = next(iter(results[design].values()))
        headers += [f"{design} (tgc {any_result.total_gates})",
                    "% reduction"]
    rows = []
    for bench in benchmarks:
        row: List[object] = [bench]
        for design in designs:
            r = results[design][bench]
            row += [r.exercisable_gate_count,
                    f"{r.reduction_percent:.2f}"]
        rows.append(row)
    return render_table(headers, rows)


def table4(results: ResultGrid, benchmarks: Sequence[str],
           designs: Sequence[str]) -> str:
    """Paper Table 4: paths created / skipped and simulated cycles."""
    headers = ["Benchmark"]
    for design in designs:
        headers += [f"{design} created", "skipped", "cycles"]
    rows = []
    for bench in benchmarks:
        row: List[object] = [bench]
        for design in designs:
            r = results[design][bench]
            row += [r.paths_created, r.paths_skipped, r.simulated_cycles]
        rows.append(row)
    return render_table(headers, rows)


def results_csv(results: ResultGrid, benchmarks: Sequence[str],
                designs: Sequence[str]) -> str:
    """Machine-readable dump of every reported metric."""
    lines = ["design,benchmark,total_gates,exercisable_gates,"
             "reduction_percent,paths_created,paths_skipped,"
             "simulated_cycles,wall_seconds"]
    for design in designs:
        for bench in benchmarks:
            r = results[design][bench]
            lines.append(
                f"{design},{bench},{r.total_gates},"
                f"{r.exercisable_gate_count},{r.reduction_percent:.2f},"
                f"{r.paths_created},{r.paths_skipped},"
                f"{r.simulated_cycles},{r.wall_seconds:.3f}")
    return "\n".join(lines)


def resilience_table(results: Iterable) -> str:
    """Operational health of a set of runs, one row per result.

    Surfaces the run-governor and fault-tolerance story an operator
    needs after a long campaign: whether each run completed or stopped
    early (and why), how many paths were left pending, and how many
    checkpoints landed.
    """
    headers = ["Design", "Benchmark", "Complete", "Stop reason",
               "Pending", "Checkpoints", "Resumed"]
    rows: List[List[object]] = []
    for r in results:
        checkpoints = sum(1 for e in r.journal if e.kind == "checkpoint")
        rows.append([
            r.design, r.application,
            "yes" if r.complete else "no",
            "-" if r.complete else getattr(r, "stop_reason", "?"),
            getattr(r, "pending_paths", 0),
            checkpoints,
            "yes" if r.resumed else "no"])
    return render_table(headers, rows)


def equivalence_table(outcomes: Iterable) -> str:
    """Formal equivalence results, one row per miter check.

    ``outcomes`` holds :class:`repro.equiv.miter.EquivOutcome` objects
    or their ``summary()`` dicts; rendered by ``repro verify`` and the
    validation benchmark.
    """
    headers = ["Design", "Unroll", "Result", "Vars", "Clauses",
               "Compare pts", "Structural", "Conflicts", "Time (s)"]
    rows: List[List[object]] = []
    for o in outcomes:
        s = o.summary() if hasattr(o, "summary") else dict(o)
        rows.append([
            s.get("design", ""), s.get("unroll", 1),
            s.get("status", "?"), s.get("vars", 0), s.get("clauses", 0),
            s.get("compare_points", 0), s.get("proved_structurally", 0),
            s.get("conflicts", 0),
            f"{float(s.get('wall_seconds', 0.0)):.3f}"])
    return render_table(headers, rows)
