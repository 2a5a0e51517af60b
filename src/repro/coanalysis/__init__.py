"""Symbolic hardware-software co-analysis engine (Algorithm 1).

The one front door is :class:`CoAnalysisEngine`, run on any
:class:`SymbolicTarget`: it is the :class:`ExplorationKernel`, which
holds the exploration loop and declares every exploration setting,
with the simulation backend built for the target.  Backends (serial
cycle engine, event-driven engine, lane-parallel batch) plug in as
:class:`SimBackend` implementations, the frontier order is picked by
name (``"dfs"`` or ``"bfs"``), and observability plugs in as trace
sinks on a :class:`Tracer`.  The trace is a run's one log: its events
and ``result.metrics`` record checkpoints, resumes, interrupts and
governed stops.
"""

from .backend import (SimBackend, boundary_outcome, prepare_initial_state,
                      simulate_segment)
from .engine import CoAnalysisEngine
from .executors import EventSimBridge, SerialExecutor
from .frontier import (FRONTIER_STRATEGIES, BreadthFirstFrontier,
                       DepthFirstFrontier, FrontierStrategy,
                       make_frontier)
from .kernel import (BatchContext, ExplorationKernel, PendingPath,
                     SegmentResult)
from .results import (CheckpointError, CoAnalysisError, CoAnalysisResult,
                      PathRecord, ResumeMismatch)
from .target import SymbolicTarget
from .trace import (JsonlTraceSink, MetricsAggregator, ProgressLine,
                    RunMetrics, TraceEvent, Tracer, TraceSink,
                    aggregate_trace, read_trace)

__all__ = [
    "ExplorationKernel", "SimBackend", "SegmentResult",
    "BatchContext", "PendingPath",
    "boundary_outcome", "prepare_initial_state", "simulate_segment",
    "CoAnalysisEngine",
    "SerialExecutor", "EventSimBridge",
    "FrontierStrategy", "DepthFirstFrontier", "BreadthFirstFrontier",
    "FRONTIER_STRATEGIES", "make_frontier",
    "Tracer", "TraceSink", "TraceEvent", "JsonlTraceSink",
    "MetricsAggregator", "ProgressLine", "RunMetrics",
    "aggregate_trace", "read_trace",
    "CoAnalysisResult", "CoAnalysisError", "PathRecord",
    "CheckpointError", "ResumeMismatch",
    "SymbolicTarget",
]
