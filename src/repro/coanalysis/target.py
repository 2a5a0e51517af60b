"""The design-under-analysis interface.

The paper's flow is design-agnostic: the user provides (1) the gate-level
netlist, (2) the application binary loaded into program memory, and (3) a
list of control-flow signals to monitor (Figure 1).  A
:class:`SymbolicTarget` packages exactly those ingredients plus the small
amount of testbench glue from Listing 1 (reset sequence, symbolic input
initialization, memory port service).

Processor models in :mod:`repro.processors` subclass this; anything else
(an accelerator, a custom FSM) can too -- the co-analysis engine only sees
this interface.

The observers the engine calls every cycle read net codes, not
:class:`~repro.logic.vector.LVec`: :meth:`SymbolicTarget.current_pc`
decodes the PC bus from ``sim.get_codes`` and
:meth:`SymbolicTarget.monitored_has_x` looks for a code without its
``known`` byte among the ``$monitor_x`` nets.
"""

from __future__ import annotations

from typing import List, Optional

from ..logic.value import Logic
from ..netlist.netlist import Netlist
from ..sim.cycle_sim import CompiledNetlist, CycleSim, compile_netlist
from ..sim.planes import codes_window


class SymbolicTarget:
    """A design prepared for symbolic hardware-software co-analysis."""

    #: human-readable design name (e.g. ``"omsp430"``)
    name: str = "target"

    #: how many drive/settle rounds one cycle needs.  2 covers the common
    #: processor case of two serial harness dependencies (instruction
    #: fetch feeding a load address).
    drive_rounds: int = 2

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        # cached by netlist identity: rebuilding a target per segment
        # replay / per worker job re-uses the one compile
        self.compiled = compile_netlist(netlist)
        #: control-flow signals handed to ``$monitor_x`` (net indices)
        self.monitored_nets: List[int] = []
        #: 1 when a PC-changing instruction is resolving this cycle
        self.branch_point_net: Optional[int] = None
        #: the 1-bit decision net forced to explore each execution path
        self.branch_force_net: Optional[int] = None
        #: program counter bus (LSB first)
        self.pc_nets: List[int] = []

    # -- life-cycle hooks (override as needed) ------------------------------
    def new_sim(self) -> CycleSim:
        """Build the default (cycle-engine) simulator, unprepared."""
        return CycleSim(self.compiled)

    def prepare_sim(self, sim):
        """Attach memories and drive constant inputs.

        Split out of :meth:`make_sim` so an alternative backend (the
        event-driven engine's CycleSim-compatible bridge) can be
        prepared identically: build your own ``sim``, then pass it
        through this hook.
        """
        return sim

    def make_sim(self) -> CycleSim:
        """Build a simulator with this target's memories attached."""
        return self.prepare_sim(self.new_sim())

    def reset(self, sim: CycleSim) -> None:
        """Apply the reset sequence (Listing 1's ``RST_n`` pulse)."""
        sim.set_input("rst", Logic.L1)
        for _ in range(2):
            self.drive_all(sim)
            self.on_edge(sim)
            sim.clock_edge()
        sim.set_input("rst", Logic.L0)

    def drive_all(self, sim: CycleSim) -> None:
        """Settle the design with harness services applied to fixpoint."""
        sim.settle()
        for _ in range(self.drive_rounds):
            self.drive(sim)
            sim.settle()

    def apply_symbolic_inputs(self, sim: CycleSim) -> None:
        """Set application inputs (registers / memory ranges) to X."""

    def drive(self, sim: CycleSim) -> None:
        """Combinational testbench services (e.g. memory read ports)."""

    def on_edge(self, sim: CycleSim) -> None:
        """Clock-edge testbench services (e.g. memory write commits)."""

    # -- observation hooks -----------------------------------------------------
    def current_pc(self, sim: CycleSim) -> Optional[int]:
        """Concrete PC value, or None when the PC contains Xs."""
        if not self.pc_nets:
            return None
        lo, hi = codes_window(sim.get_codes(self.pc_nets))
        return lo if lo == hi else None

    def at_branch_point(self, sim: CycleSim) -> Logic:
        """Settled value of the branch-point qualifier."""
        if self.branch_point_net is None:
            return Logic.L0
        return sim.get_net(self.branch_point_net)

    def monitored_has_x(self, sim: CycleSim) -> bool:
        """``$monitor_x`` condition over the control-flow signal list."""
        codes = sim.get_codes(self.monitored_nets)
        return 0 in codes.tobytes()[1::2]       # a missing known byte

    def is_done(self, sim: CycleSim) -> bool:
        """Program-termination condition (e.g. PC parked at a halt loop)."""
        return False

    # -- conveniences ------------------------------------------------------
    def monitored_names(self) -> List[str]:
        return [self.netlist.net_name(n) for n in self.monitored_nets]

    def state_net_positions(self) -> dict:
        """Map state-net name -> position inside SimState bitplanes.

        This is what lets CSM constraint files name signals
        symbolically (``net r5[6] 1``)."""
        return {self.netlist.net_name(net): pos
                for pos, net in enumerate(self.compiled.state_nets)}
