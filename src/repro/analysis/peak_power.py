"""Input-independent peak power bounds (prior work [5], enabled here).

One of the analyses the paper's tool unlocks: because symbolic
co-analysis covers *all* inputs, the per-cycle switching activity it
observes bounds the switching of any real execution.  A net that is
known-constant in a cycle cannot toggle then; a net carrying X *might*.
So

    peak_bound(cycle) = sum of switch energies of nets that either
                        changed or carry X in that cycle

maximized over every cycle of every explored path is a sound
input-independent peak-power bound, and the same quantity measured on a
concrete run must never exceed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..coanalysis.engine import CoAnalysisEngine
from ..coanalysis.results import CoAnalysisResult
from ..coanalysis.target import SymbolicTarget
from .power import measure_concrete_run, switch_energy


@dataclass
class PeakPowerResult:
    """Peak-bound trace produced alongside a co-analysis run."""

    peak_bound: float                     # max over all cycles/paths
    peak_cycle: int                       # cycle index where it occurred
    peak_path: int
    per_path_peaks: Dict[int, float] = field(default_factory=dict)
    analysis: Optional[CoAnalysisResult] = None


class PeakPowerObserver:
    """Cycle observer computing the symbolic switching upper bound.

    It keeps each path's previous cycle by path id (two net planes per
    path seen): the batched engine interleaves its lanes' cycles, so
    consecutive calls need not come from one path.  A path's first
    cycle (cycle 0) is its baseline.
    """

    def __init__(self, netlist):
        self.energy = switch_energy(netlist)
        #: path id -> (val, known) of that path's previous cycle
        self._prev: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.peak = 0.0
        self.peak_cycle = -1
        self.peak_path = -1
        self.per_path: Dict[int, float] = {}

    def __call__(self, sim, path_id: int, cycle: int) -> None:
        prev = self._prev.get(path_id) if cycle else None
        self._prev[path_id] = (sim.val.copy(), sim.known.copy())
        if prev is None:
            return
        prev_val, prev_known = prev
        may_switch = (~sim.known) | (~prev_known) | (sim.val != prev_val)
        bound = float((may_switch * self.energy).sum())
        if bound > self.per_path.get(path_id, 0.0):
            self.per_path[path_id] = bound
        if bound > self.peak:
            self.peak = bound
            self.peak_cycle = cycle
            self.peak_path = path_id


def analyze_peak_power(target: SymbolicTarget, application: str = "app",
                       **engine_kwargs) -> PeakPowerResult:
    """Run co-analysis with peak-power observation attached."""
    observer = PeakPowerObserver(target.netlist)
    engine = CoAnalysisEngine(target, application=application,
                              cycle_observer=observer, **engine_kwargs)
    result = engine.run()
    return PeakPowerResult(
        peak_bound=observer.peak,
        peak_cycle=observer.peak_cycle,
        peak_path=observer.peak_path,
        per_path_peaks=dict(observer.per_path),
        analysis=result,
    )


def concrete_peak(target: SymbolicTarget, inputs: Dict[int, int],
                  max_cycles: int = 20000) -> float:
    """Measured per-cycle switching peak of one fixed-input run."""
    return measure_concrete_run(target, inputs, max_cycles).peak_energy
