"""Activity-based power and energy estimation.

The bespoke methodology's motivation is ultra-low power: pruning
unexercisable gates removes their leakage entirely and removes the
dynamic power of everything that used to toggle beneath them.  This
module implements the standard early-estimation model

* dynamic energy per toggle  ~ cell switching-energy weight, and
* leakage power              ~ cell area,

on top of the cell library's area weights.  Units are arbitrary
("normalized nW / fJ"), consistent across netlists, so *ratios* between
an original and a bespoke core are meaningful even though absolute
silicon numbers are not (no 65nm characterization data offline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..coanalysis.concrete import run_concrete
from ..coanalysis.target import SymbolicTarget
from ..netlist.netlist import Netlist

#: switching energy per output toggle, in units of a NAND2 toggle
SWITCH_ENERGY = {
    "TIE0": 0.0, "TIE1": 0.0,
    "BUF": 0.6, "NOT": 0.5,
    "AND": 1.1, "OR": 1.1, "NAND": 1.0, "NOR": 1.0,
    "XOR": 1.8, "XNOR": 1.8, "MUX2": 1.6,
    "DFF": 3.0, "DFFR": 3.2, "DFFE": 3.4, "DFFER": 3.6,
}

#: leakage per unit area (NAND2-equivalents), normalized
LEAKAGE_PER_AREA = 1.0

#: clock-tree energy charged per flop per cycle (the clock pin toggles
#: every cycle regardless of data activity)
CLOCK_ENERGY_PER_FLOP = 0.8


def switch_energy(netlist: Netlist) -> np.ndarray:
    """Per-net switching energy: the driving cell's
    :data:`SWITCH_ENERGY`, 0 on a net no gate drives."""
    energy = np.zeros(len(netlist.nets))
    for gate in netlist.gates:
        energy[gate.output] = SWITCH_ENERGY[gate.kind]
    return energy


@dataclass
class PowerReport:
    """Energy/power estimate for one run of one netlist."""

    design: str
    cycles: int
    dynamic_energy: float          # data switching
    clock_energy: float            # clock tree
    leakage_power: float           # per-cycle leakage
    toggles: int
    peak_energy: float             # largest one-cycle switching energy

    @property
    def leakage_energy(self) -> float:
        return self.leakage_power * self.cycles

    @property
    def total_energy(self) -> float:
        return self.dynamic_energy + self.clock_energy \
            + self.leakage_energy

    @property
    def average_power(self) -> float:
        return self.total_energy / max(1, self.cycles)

    def summary(self) -> Dict[str, float]:
        return {
            "design": self.design,
            "cycles": self.cycles,
            "dynamic_energy": round(self.dynamic_energy, 2),
            "clock_energy": round(self.clock_energy, 2),
            "leakage_energy": round(self.leakage_energy, 2),
            "total_energy": round(self.total_energy, 2),
            "average_power": round(self.average_power, 3),
        }


def leakage_power(netlist: Netlist) -> float:
    """Total leakage of a netlist (area-proportional)."""
    return LEAKAGE_PER_AREA * netlist.area()


class PowerMeter:
    """Counts per-net toggles during a simulation for energy estimation.

    Use as a cycle observer (``meter.observe(sim)`` after each settled
    cycle) or via :func:`measure_concrete_run`.  The first observed
    cycle is the baseline; each later one meters one clock edge.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._energy_by_net = switch_energy(netlist)
        self.toggle_counts = np.zeros(len(netlist.nets), dtype=np.int64)
        self._prev_val: Optional[np.ndarray] = None
        self._prev_known: Optional[np.ndarray] = None
        self.cycles = 0
        #: largest switching energy of one metered cycle
        self.peak_energy = 0.0

    def observe(self, sim) -> None:
        """Record one settled cycle of ``sim``."""
        if self._prev_val is not None:
            changed = (sim.val != self._prev_val) | \
                      (sim.known != self._prev_known)
            self.toggle_counts += changed
            self.peak_energy = max(
                self.peak_energy,
                float((changed * self._energy_by_net).sum()))
            self.cycles += 1
        self._prev_val = sim.val.copy()
        self._prev_known = sim.known.copy()

    @property
    def total_toggles(self) -> int:
        return int(self.toggle_counts.sum())

    def dynamic_energy(self) -> float:
        return float((self.toggle_counts * self._energy_by_net).sum())

    def report(self, design: str) -> PowerReport:
        n_flops = len(self.netlist.seq_gates)
        return PowerReport(
            design=design,
            cycles=self.cycles,
            dynamic_energy=self.dynamic_energy(),
            clock_energy=CLOCK_ENERGY_PER_FLOP * n_flops * self.cycles,
            leakage_power=leakage_power(self.netlist),
            toggles=self.total_toggles,
            peak_energy=self.peak_energy,
        )


def measure_concrete_run(target: SymbolicTarget, inputs: Dict[int, int],
                         max_cycles: int = 20000) -> PowerReport:
    """Run the target's application with fixed inputs, metering power:
    every clock edge of the run, the last one into the done cycle
    included."""
    meter = PowerMeter(target.netlist)
    run_concrete(target, inputs, max_cycles,
                 cycle_observer=lambda sim, _path, _cycle:
                 meter.observe(sim))
    return meter.report(target.name)


@dataclass
class SavingsReport:
    """Original-vs-bespoke power comparison (the bespoke payoff)."""

    original: PowerReport
    bespoke: PowerReport

    @property
    def energy_saving_percent(self) -> float:
        return 100.0 * (1 - self.bespoke.total_energy
                        / max(1e-12, self.original.total_energy))

    @property
    def leakage_saving_percent(self) -> float:
        return 100.0 * (1 - self.bespoke.leakage_power
                        / max(1e-12, self.original.leakage_power))


def compare_power(original: SymbolicTarget, bespoke: SymbolicTarget,
                  inputs: Dict[int, int],
                  max_cycles: int = 20000) -> SavingsReport:
    """Meter the same fixed-input run on both netlists."""
    return SavingsReport(
        original=measure_concrete_run(original, inputs, max_cycles),
        bespoke=measure_concrete_run(bespoke, inputs, max_cycles),
    )
