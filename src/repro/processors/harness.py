"""Testbench harness binding a core netlist to the co-analysis engine.

This is the reproduction of the paper's Listing 1 testbench plus the
memory service the real testbench provides: it instantiates the design,
loads the application binary into program memory, initializes
input-dependent data memory to X, services the fetch/load/store ports
each cycle, and exposes the ``$monitor_x`` signal list from the core's
metadata.

Because everything is bound *by net name*, the same class drives both an
original core and its re-synthesized bespoke netlist (whose internal
structure differs but whose port names survive).

The port service runs on net codes: each port's nets are cached as an
index array at construction, :meth:`CoreTarget.drive` is one
``sim.get_codes`` of the address bus, one
:meth:`~repro.sim.memory.XMemory.read` and one ``sim.set_codes`` of the
data bus per read port, and :meth:`CoreTarget.on_edge` commits a store
from the codes of the address and write-data buses.  No per-bit
:class:`~repro.logic.vector.LVec` is built on the per-cycle path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..coanalysis.target import SymbolicTarget
from ..isa.asm import Program
from ..logic.value import Logic
from ..logic.vector import LVec
from ..netlist.netlist import Netlist
from ..sim.cycle_sim import CycleSim
from ..sim.memory import XMemory
from .meta import CoreMeta

DMEM_NAME = "dmem"
DMEM_WORDS = 256


class CoreTarget(SymbolicTarget):
    """A (core, program) pair ready for symbolic or concrete simulation."""

    def __init__(self, netlist: Netlist, meta: CoreMeta, program: Program,
                 symbolic_ranges: Iterable[Tuple[int, int]] = (),
                 data_init: Optional[Dict[int, int]] = None,
                 gpio_symbolic: bool = False):
        super().__init__(netlist)
        if program.word_width != meta.word_width:
            raise ValueError(
                f"program word width {program.word_width} != core word "
                f"width {meta.word_width}")
        self.name = meta.name
        self.meta = meta
        self.program = program
        self.symbolic_ranges = list(symbolic_ranges)
        self.data_init = dict(data_init or {})
        self.gpio_symbolic = gpio_symbolic

        nl = netlist
        self.pc_nets = nl.bus(meta.pc_port, meta.pc_width)

        def port(name: str, width: int) -> np.ndarray:
            return np.array(nl.bus(name, width), dtype=np.intp)

        self._pmem_addr = port(meta.pmem_addr_port, meta.pc_width)
        self._pmem_data = port(meta.pmem_data_port, meta.word_width)
        self._dmem_addr = port(meta.dmem_addr_port, meta.dmem_addr_width)
        self._dmem_rdata = port(meta.dmem_rdata_port, meta.word_width)
        self._dmem_wdata = port(meta.dmem_wdata_port, meta.word_width)
        self._dmem_we = nl.net_index(meta.dmem_we_port)
        self.monitored_nets = [nl.net_index(n)
                               for n in meta.monitored_net_names()
                               if nl.has_net(n)]
        self.branch_point_net = nl.net_index(meta.branch_point) \
            if nl.has_net(meta.branch_point) else None
        self.branch_force_net = nl.net_index(meta.branch_force) \
            if nl.has_net(meta.branch_force) else None
        self._gpio_in = nl.bus("gpio_in", meta.word_width) \
            if nl.has_net("gpio_in[0]") else None
        self._halt_pc = program.labels.get("_halt")

        self.rom = XMemory(1 << meta.pc_width, meta.word_width, name="rom")
        self.rom.load_words(0, program.words)

    # -- engine hooks -------------------------------------------------------
    def prepare_sim(self, sim):
        sim.attach_memory(XMemory(DMEM_WORDS, self.meta.word_width,
                                  name=DMEM_NAME))
        if self._gpio_in is not None:
            sim.set_bus(self._gpio_in,
                        LVec.unknown(self.meta.word_width)
                        if self.gpio_symbolic
                        else LVec.zeros(self.meta.word_width))
        if self.netlist.has_net("irq"):
            sim.set_net(self.netlist.net_index("irq"), Logic.L0)
        return sim

    def apply_symbolic_inputs(self, sim: CycleSim) -> None:
        """Listing 1 step 3: X the input-dependent memory region."""
        dmem = sim.memories[DMEM_NAME]
        for addr, value in self.data_init.items():
            dmem.load_word(addr, value)
        for start, end in self.symbolic_ranges:
            dmem.set_unknown_range(start, end)

    def apply_concrete_inputs(self, sim: CycleSim,
                              inputs: Dict[int, int]) -> None:
        """Validation runs: same layout, fixed known input values."""
        dmem = sim.memories[DMEM_NAME]
        for addr, value in self.data_init.items():
            dmem.load_word(addr, value)
        for addr, value in inputs.items():
            dmem.load_word(addr, value)

    def drive(self, sim: CycleSim) -> None:
        sim.set_codes(self._pmem_data,
                      self.rom.read(sim.get_codes(self._pmem_addr)))
        dmem = sim.memories[DMEM_NAME]
        sim.set_codes(self._dmem_rdata,
                      dmem.read(sim.get_codes(self._dmem_addr)))

    def on_edge(self, sim: CycleSim) -> None:
        we = sim.get_net(self._dmem_we)
        if we is Logic.L0:
            return
        dmem = sim.memories[DMEM_NAME]
        dmem.write(sim.get_codes(self._dmem_addr),
                   sim.get_codes(self._dmem_wdata), enable=we)

    def is_done(self, sim: CycleSim) -> bool:
        if self._halt_pc is None:
            return False
        return self.current_pc(sim) == self._halt_pc

    # -- inspection helpers ----------------------------------------------------
    def read_dmem(self, sim: CycleSim, addr: int) -> LVec:
        return sim.memories[DMEM_NAME].read_concrete(addr)

    def read_dmem_int(self, sim: CycleSim, addr: int) -> int:
        return self.read_dmem(sim, addr).to_int()
