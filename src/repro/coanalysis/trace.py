"""Structured observability for exploration runs.

The :class:`~repro.coanalysis.kernel.ExplorationKernel` narrates every
step of Algorithm 1 as a stream of typed :class:`TraceEvent` records --
``segment_start`` / ``halt`` / ``fork`` / ``merge`` / ``checkpoint`` /
``resume`` and friends -- and fans them out to pluggable sinks:

* :class:`JsonlTraceSink` appends one JSON object per line, so a long
  run leaves a machine-readable log that ``jq``/pandas can slice;
* :class:`MetricsAggregator` folds the stream into a
  :class:`RunMetrics` summary (paths, merges, frontier high-water mark,
  wall time per phase) that ``reporting/`` and ``benchmarks/`` consume
  instead of ad-hoc counters;
* :class:`ProgressLine` keeps a single live status line on a terminal.

Events describe the *kernel's* view of the run, so the same vocabulary
applies to the serial, event-driven, and lane-batched backends.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, IO, Iterable, List, Optional

#: the closed vocabulary of event kinds the kernel emits.  Sinks may
#: rely on unknown kinds never appearing; bump alongside the kernel.
EVENT_KINDS = (
    "run_start",      # exploration begins (design, application, engine,
                      # strategy, settle kernel)
    "segment_start",  # a pending path was popped and dispatched
    "segment_end",    # one segment finished (outcome, cycles, pc)
    "halt",           # $monitor_x tripped: a state reached the CSM
    "fork",           # CSM expanded a state; both branches scheduled
    "merge",          # CSM covered a state; path discarded
    "checkpoint",     # a journal record was written
    "resume",         # run continued from a checkpoint record
    "interrupt",      # the run was interrupted (checkpoint written)
    "deadline",       # governor: wall-clock/segment budget spent
    "mem_pressure",   # governor: RSS ceiling or frontier cap reached
    "interrupted",    # governor: SIGINT/SIGTERM turned into a stop
    "batch",          # one frontier batch (wave) completed
    "phase",          # wall-time accounting for one run phase
    "run_end",        # exploration finished (summary counters)
    "equiv_start",    # a formal equivalence check began (miter sizes)
    "equiv_outcome",  # it finished (UNSAT / SAT / UNKNOWN, conflicts)
)


@dataclass
class TraceEvent:
    """One typed observation from the kernel.

    Only ``kind``, ``seq`` and ``t`` are always present; the remaining
    fields carry whatever the kind needs (a ``segment_end`` has
    ``path_id``/``outcome``/``cycles``, a ``fork`` has ``pc``, ...).
    """

    kind: str
    seq: int = 0
    t: float = 0.0                      # seconds since run_start
    path_id: Optional[int] = None
    pc: Optional[int] = None
    cycles: Optional[int] = None
    outcome: Optional[str] = None
    frontier: Optional[int] = None      # frontier size after the event
    detail: str = ""
    data: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind, "seq": self.seq,
                                  "t": round(self.t, 6)}
        for key in ("path_id", "pc", "cycles", "outcome", "frontier"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.detail:
            out["detail"] = self.detail
        out.update(self.data)
        return out


class TraceSink:
    """Receives every :class:`TraceEvent` of a run, in order."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        pass


class JsonlTraceSink(TraceSink):
    """Appends one JSON object per event to ``path`` (JSON Lines).

    ``mode="a"`` continues an existing file instead of truncating it --
    a resumed run then leaves one trace whose ``resume`` events mark
    each attempt boundary.
    """

    def __init__(self, path, mode: str = "w"):
        from pathlib import Path
        if mode not in ("w", "a"):
            raise ValueError(f"JsonlTraceSink mode must be 'w' or 'a', "
                             f"not {mode!r}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[IO[str]] = open(self.path, mode)

    def emit(self, event: TraceEvent) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(event.to_json(),
                                  separators=(",", ":"), default=str))
        self._fh.write("\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None


def read_trace(path) -> List[TraceEvent]:
    """Parse a JSONL trace file back into :class:`TraceEvent` records."""
    events: List[TraceEvent] = []
    from pathlib import Path
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        raw = json.loads(line)
        event = TraceEvent(kind=raw.pop("kind"), seq=raw.pop("seq", 0),
                           t=raw.pop("t", 0.0))
        for key in ("path_id", "pc", "cycles", "outcome", "frontier"):
            if key in raw:
                setattr(event, key, raw.pop(key))
        event.detail = raw.pop("detail", "")
        event.data = raw
        events.append(event)
    return events


@dataclass
class RunMetrics:
    """Aggregated run statistics derived purely from the trace stream.

    These mirror (and are cross-checked against) the engine's own
    counters; having them derivable from the event stream is what lets
    an operator reconstruct a run's story from the JSONL file alone.
    """

    paths_explored: int = 0             # segment_end events
    splits: int = 0                     # fork events
    merges_covered: int = 0             # merge events (paths skipped)
    halts: int = 0                      # halt events (CSM presentations)
    simulated_cycles: int = 0
    frontier_high_water: int = 0
    batches: int = 0
    checkpoints: int = 0
    resumes: int = 0
    #: why a governed run stopped early (None = ran to completion)
    stop_reason: Optional[str] = None
    outcomes: Dict[str, int] = field(default_factory=dict)
    equiv_checks: int = 0               # equiv_outcome events
    equiv_outcomes: Dict[str, int] = field(default_factory=dict)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "paths_explored": self.paths_explored,
            "splits": self.splits,
            "merges_covered": self.merges_covered,
            "halts": self.halts,
            "simulated_cycles": self.simulated_cycles,
            "frontier_high_water": self.frontier_high_water,
            "batches": self.batches,
            "checkpoints": self.checkpoints,
            "resumes": self.resumes,
            "stop_reason": self.stop_reason,
            "outcomes": dict(self.outcomes),
            "equiv_checks": self.equiv_checks,
            "equiv_outcomes": dict(self.equiv_outcomes),
            "phase_seconds": {k: round(v, 6)
                              for k, v in self.phase_seconds.items()},
            "wall_seconds": round(self.wall_seconds, 6),
        }


class MetricsAggregator(TraceSink):
    """Folds the event stream into a :class:`RunMetrics`.

    Kinds it does not count are skipped: the ``cache_hit`` and
    ``cache_miss`` events of traces written while runs had a segment
    cache, and the ``cache_hits`` of their ``resume`` events, leave
    every counter as it is.
    """

    def __init__(self):
        self.metrics = RunMetrics()

    def emit(self, event: TraceEvent) -> None:
        m = self.metrics
        if event.frontier is not None:
            m.frontier_high_water = max(m.frontier_high_water,
                                        event.frontier)
        if event.kind == "segment_end":
            m.paths_explored += 1
            if event.cycles:
                m.simulated_cycles += event.cycles
            if event.outcome:
                m.outcomes[event.outcome] = \
                    m.outcomes.get(event.outcome, 0) + 1
        elif event.kind == "fork":
            m.splits += 1
        elif event.kind == "merge":
            m.merges_covered += 1
        elif event.kind == "halt":
            m.halts += 1
        elif event.kind == "batch":
            m.batches += 1
        elif event.kind == "checkpoint":
            m.checkpoints += 1
        elif event.kind == "resume":
            m.resumes += 1
            # a resumed run inherits the counters accumulated before the
            # interruption, so the stream stays consistent with the
            # engine's totals
            for key in ("paths_explored", "splits", "merges_covered",
                        "halts", "simulated_cycles", "batches"):
                if key in event.data:
                    setattr(m, key, event.data[key])
            if "outcomes" in event.data:
                m.outcomes = dict(event.data["outcomes"])
            # an earlier attempt's stop, read from the same appended
            # trace, no longer stands once the run continues
            m.stop_reason = None
        elif event.kind in ("deadline", "mem_pressure", "interrupted"):
            m.stop_reason = str(event.data.get("reason", event.kind))
        elif event.kind == "equiv_outcome":
            m.equiv_checks += 1
            if event.outcome:
                m.equiv_outcomes[event.outcome] = \
                    m.equiv_outcomes.get(event.outcome, 0) + 1
        elif event.kind == "phase":
            name = str(event.data.get("phase", "unknown"))
            m.phase_seconds[name] = m.phase_seconds.get(name, 0.0) \
                + float(event.data.get("seconds", 0.0))
        elif event.kind == "run_end":
            m.wall_seconds = event.t


def aggregate_trace(events: Iterable[TraceEvent]) -> RunMetrics:
    """Replay a (parsed) event stream through a fresh aggregator."""
    agg = MetricsAggregator()
    for event in events:
        agg.emit(event)
    return agg.metrics


class ProgressLine(TraceSink):
    """A single live ``\\r``-rewritten status line for interactive runs."""

    def __init__(self, stream: Optional[IO[str]] = None,
                 min_interval: float = 0.1):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last = 0.0
        self._explored = 0
        self._cycles = 0
        self._frontier = 0
        #: a status line is on the stream without its newline
        self._unterminated = False

    def emit(self, event: TraceEvent) -> None:
        if event.kind == "segment_end":
            self._explored += 1
            self._cycles += event.cycles or 0
        if event.frontier is not None:
            self._frontier = event.frontier
        if event.kind == "run_end":
            self._render(event.t, final=True)
            return
        now = time.monotonic()
        if now - self._last >= self.min_interval:
            self._last = now
            self._render(event.t)

    def _render(self, t: float, final: bool = False) -> None:
        line = (f"\r[explore] paths={self._explored} "
                f"frontier={self._frontier} cycles={self._cycles} "
                f"t={t:.1f}s")
        self.stream.write(line)
        if final:
            self.stream.write("\n")
        self.stream.flush()
        self._unterminated = not final

    def close(self) -> None:
        if self._unterminated:
            self.stream.write("\n")
            self.stream.flush()
            self._unterminated = False


class Tracer:
    """Stamps and fans events out to the configured sinks.

    A ``Tracer`` always carries a :class:`MetricsAggregator` so every
    run has a metrics summary for free; extra sinks (JSONL file, live
    progress line) are optional.
    """

    def __init__(self, sinks: Optional[List[TraceSink]] = None):
        self.aggregator = MetricsAggregator()
        self.sinks: List[TraceSink] = [self.aggregator] + list(sinks or [])
        self._seq = 0
        self._t0 = time.perf_counter()

    @property
    def metrics(self) -> RunMetrics:
        return self.aggregator.metrics

    def emit(self, kind: str, **fields) -> None:
        data = fields.pop("data", {})
        event = TraceEvent(kind=kind, seq=self._seq,
                           t=time.perf_counter() - self._t0,
                           data=dict(data), **fields)
        self._seq += 1
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
