"""Concrete (fixed-input) execution of a target.

Used for three things:

* benchmark program bring-up in tests,
* the paper's validation methodology (section 5.0.1): run fixed inputs on
  the original and bespoke netlists and compare behaviour, and check that
  the concretely-exercised gate set is a subset of the symbolically
  reported exercisable set;
* measuring concrete activity profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..logic.value import Logic
from ..sim.cycle_sim import CycleSim
from .target import SymbolicTarget


@dataclass
class ConcreteRun:
    """Result of one fixed-input execution."""

    cycles: int
    finished: bool
    pc_trace: List[Optional[int]]
    write_trace: List[Tuple[int, int, int]]   # (cycle, addr, value)
    exercised_nets: np.ndarray
    final_sim: CycleSim


def run_concrete(target: SymbolicTarget, inputs: Dict[int, int],
                 max_cycles: int = 20000,
                 cycle_observer=None) -> ConcreteRun:
    """Run the target's program to completion with fixed inputs.

    The one loop that runs a fixed-input program: power metering and
    waveform dumping attach a ``cycle_observer``, a callable(sim,
    path_id, cycle) as in ``CoAnalysisEngine``.  It sees every settled
    cycle in order, ``0..cycles`` inclusive, the done cycle included,
    with ``path_id`` 0.
    """
    sim = target.make_sim()
    target.reset(sim)
    target.apply_concrete_inputs(sim, inputs)   # type: ignore[attr-defined]
    target.drive_all(sim)
    sim.arm_activity()

    pc_trace: List[Optional[int]] = []
    write_trace: List[Tuple[int, int, int]] = []
    finished = False
    cycles = 0
    we_net = getattr(target, "_dmem_we", None)
    while cycles < max_cycles:
        target.drive_all(sim)
        pc_trace.append(target.current_pc(sim))
        # every settled cycle counts, the final one included, as it
        # does in a symbolic segment that ends "done"
        sim.record_activity_now()
        if cycle_observer is not None:
            cycle_observer(sim, 0, cycles)
        if target.is_done(sim):
            finished = True
            break
        if we_net is not None and sim.get_net(we_net) is Logic.L1:
            addr = sim.get_bus(target._dmem_addr)      # type: ignore
            data = sim.get_bus(target._dmem_wdata)     # type: ignore
            if addr.is_known and data.is_known:
                write_trace.append((cycles, addr.to_int(), data.to_int()))
        target.on_edge(sim)
        sim.clock_edge()
        cycles += 1

    return ConcreteRun(
        cycles=cycles,
        finished=finished,
        pc_trace=pc_trace,
        write_trace=write_trace,
        exercised_nets=sim.exercised_nets().copy(),
        final_sim=sim,
    )
