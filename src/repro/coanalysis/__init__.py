"""Symbolic hardware-software co-analysis engine (Algorithm 1).

The one front door is :class:`CoAnalysisEngine`, run on any
:class:`SymbolicTarget`.  The exploration loop lives in
:class:`ExplorationKernel`; simulation backends (serial cycle engine,
event-driven engine, lane-parallel batch) plug in as
:class:`SimBackend` implementations, frontier ordering as
:class:`FrontierStrategy` instances, and observability as trace sinks
on a :class:`Tracer`.
"""

from .backend import (SimBackend, boundary_outcome, prepare_initial_state,
                      simulate_segment)
from .engine import CoAnalysisEngine
from .executors import EventSimBridge, SerialExecutor
from .frontier import (FRONTIER_STRATEGIES, BreadthFirstFrontier,
                       DepthFirstFrontier, FrontierStrategy,
                       NoveltyFrontier, make_frontier)
from .kernel import (BatchContext, ExplorationKernel, PendingPath,
                     SegmentResult)
from .results import (CheckpointError, CoAnalysisError, CoAnalysisResult,
                      PathRecord, ResumeMismatch, RunEvent)
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
    "NoveltyFrontier", "FRONTIER_STRATEGIES", "make_frontier",
    "Tracer", "TraceSink", "TraceEvent", "JsonlTraceSink",
    "MetricsAggregator", "ProgressLine", "RunMetrics",
    "aggregate_trace", "read_trace",
    "CoAnalysisResult", "CoAnalysisError", "PathRecord", "RunEvent",
    "CheckpointError", "ResumeMismatch",
    "SymbolicTarget",
]
