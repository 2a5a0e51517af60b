"""Spans for the traced run, recorded from the benchmark's own files.

:class:`SpanRecorder` replaces public layer entry points with timing
wrappers.  Each call records one span -- name, start, end, parent span
and the analysis (operation) it belongs to -- kept in memory until the
round ends and then written out as JSONL.  A span's self time is its
duration minus the durations of its direct children, so the self times
of every span inside an operation add up to the operation's time.
Nothing under ``src/`` changes: the wrappers are installed on the
classes of the imported package, in the traced child process only.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Dict, List, Optional

#: span name -> (module, class, attribute), wrapped in the
#: traced run.  ``run_one`` is wrapped where the benchmark calls it.
WRAPPED = {
    "sim.settle": ("repro.sim.cycle_sim", "CycleSim", "settle"),
    "sim.clock_edge": ("repro.sim.cycle_sim", "CycleSim", "clock_edge"),
    "sim.snapshot": ("repro.sim.cycle_sim", "CycleSim", "snapshot"),
    "sim.restore": ("repro.sim.cycle_sim", "CycleSim", "restore"),
    "sim.activity": ("repro.sim.cycle_sim", "CycleSim",
                     "record_activity_now"),
    "batch.settle": ("repro.sim.batch_sim", "BatchCycleSim", "settle"),
    "batch.clock_edge": ("repro.sim.batch_sim", "BatchCycleSim",
                         "clock_edge"),
    "batch.lane_restore": ("repro.sim.batch_sim", "BatchCycleSim",
                           "lane_restore"),
    "batch.lane_snapshot": ("repro.sim.batch_sim", "BatchCycleSim",
                            "lane_snapshot"),
    "batch.activity": ("repro.sim.batch_sim", "BatchCycleSim",
                       "record_activity_now"),
    "harness.drive": ("repro.processors.harness", "CoreTarget", "drive"),
    "harness.on_edge": ("repro.processors.harness", "CoreTarget",
                        "on_edge"),
    "harness.is_done": ("repro.processors.harness", "CoreTarget",
                        "is_done"),
    "harness.current_pc": ("repro.coanalysis.target", "SymbolicTarget",
                           "current_pc"),
    "harness.at_branch_point": ("repro.coanalysis.target",
                                "SymbolicTarget", "at_branch_point"),
    "harness.monitored_has_x": ("repro.coanalysis.target",
                                "SymbolicTarget", "monitored_has_x"),
    "memory.read": ("repro.sim.memory", "XMemory", "read"),
    "memory.write": ("repro.sim.memory", "XMemory", "write"),
    "csm.observe": ("repro.csm.manager", "ConservativeStateManager",
                    "observe"),
    "trace.emit": ("repro.coanalysis.trace", "Tracer", "emit"),
}

#: the span that frames one operation; its self time is the kernel's
KERNEL_SPAN = "kernel.run_one"


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        #: (name index, start, end, parent span id or -1, operation)
        self.spans: List[Optional[tuple]] = []
        self.self_seconds: List[float] = []
        self.calls: List[int] = []
        #: open spans: [span id, seconds covered by direct children]
        self._stack: List[list] = []
        self.op = -1
        #: CycleSim instances seen by ``settle``, for their counters
        self.sims: Dict[int, object] = {}

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.self_seconds.append(0.0)
            self.calls.append(0)
        return self._index[name]

    def wrap(self, fn, name: str, on_call=None):
        """``fn`` wrapped to record one span per call."""
        idx = self._name(name)
        spans, stack = self.spans, self._stack
        self_seconds, calls = self.self_seconds, self.calls
        clock = time.perf_counter
        recorder = self

        def timed(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_seconds[idx] += duration - frame[1]
                calls[idx] += 1
                if parent is not None:
                    parent[1] += duration
                spans[span_id] = (idx, start, end,
                                  parent[0] if parent else -1,
                                  recorder.op)
                if on_call is not None:
                    on_call(args)

        return functools.update_wrapper(timed, fn)

    def install(self) -> None:
        """Wrap every entry point in :data:`WRAPPED` on its class."""
        for name, (module, owner, attr) in WRAPPED.items():
            cls = getattr(importlib.import_module(module), owner)
            original = cls.__dict__[attr]
            hook = self._remember_sim if name == "sim.settle" else None
            setattr(cls, attr, self.wrap(original, name, hook))

    def _remember_sim(self, args) -> None:
        sim = args[0]
        self.sims[id(sim)] = sim

    def settle_kinds(self) -> Dict[str, int]:
        """The public settle counters of every CycleSim seen since the
        last call, summed; forgets those sims."""
        out = {"full": 0, "incremental": 0, "noop": 0}
        for sim in self.sims.values():
            out["full"] += sim.full_settles
            out["incremental"] += sim.incremental_settles
            out["noop"] += sim.noop_settles
        self.sims.clear()
        return out

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count and summed self seconds."""
        return {name: {"calls": self.calls[i],
                       "self_s": self.self_seconds[i]}
                for i, name in enumerate(self.names)}

    def write_jsonl(self, path, op_labels: List[str], t0: float) -> None:
        """Write every span as one JSON line (times relative to
        ``t0``)."""
        names = self.names
        with open(path, "w") as fh:
            for span_id, span in enumerate(self.spans):
                if span is None:            # still open: cannot happen
                    continue                # after the round returns
                idx, start, end, parent, op = span
                fh.write(json.dumps({
                    "id": span_id, "name": names[idx],
                    "start": start - t0, "end": end - t0,
                    "parent": parent,
                    "analysis": op_labels[op] if op >= 0 else None,
                }) + "\n")
