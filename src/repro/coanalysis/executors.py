"""Segment executors: simulation backends behind the exploration kernel.

Each executor implements the
:class:`~repro.coanalysis.backend.SimBackend` protocol for one way
of simulating a path segment:

* :class:`SerialExecutor` -- one in-process simulator, restored per
  segment.  With ``backend="serial"`` that simulator is the vectorized
  :class:`~repro.sim.cycle_sim.CycleSim` (the production engine); with
  ``backend="event"`` it is an :class:`EventSimBridge`, a
  CycleSim-compatible facade over the event-driven kernel, so the
  paper's literal simulator runs the exact same harness and kernel.
* the lane-packed batch executor lives in
  :mod:`repro.coanalysis.batch_executor`.

The executor owns *how* a segment simulates; halting policy, CSM
merging, forking, budgets, checkpoints and the toggle profile all live
in the kernel.  Each segment starts from cleared toggle/X planes and
hands them back in ``SegmentResult.activity``, so the simulator carries
no activity from one segment to the next.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from ..logic.value import Logic
from ..logic.vector import LVec
from ..sim.cycle_sim import ForcedRestoreWarning, compile_netlist
from ..sim.planes import CODE_DTYPE, CODE_LEVEL, LEVEL_CODE
from ..sim.state import SimState
from .backend import (PendingPath, SegmentResult, SimBackend,
                      prepare_initial_state, simulate_segment)
from .target import SymbolicTarget


class SerialExecutor(SimBackend):
    """One simulator, one segment at a time (Algorithm 1's inner loop)."""

    batch_limit = 1

    def __init__(self, target: SymbolicTarget,
                 cycle_observer=None,
                 backend: str = "serial"):
        self.target = target
        self.netlist = target.netlist
        self.design = target.name
        #: the engine name doubles as the checkpoint engine tag
        self.kind = backend
        #: optional callable(sim, path_id, cycle) invoked on every
        #: settled cycle of every segment, the boundary cycle included
        #: -- the hook of the peak-power and coverage analyses
        self.cycle_observer = cycle_observer
        self.sim = None

    # -- protocol -----------------------------------------------------------
    # run_batch: inherited default (per-segment dispatch via run_segment)

    def prepare(self) -> SimState:
        target = self.target
        if self.kind == "event":
            sim = target.prepare_sim(
                EventSimBridge(target.netlist, target.compiled))
        else:
            sim = target.make_sim()
            self.settle_kernel = sim.kernel
        self.sim = sim
        state = prepare_initial_state(target, sim)
        sim.arm_activity()
        return state

    def finalize(self, result) -> None:
        if isinstance(self.sim, EventSimBridge):
            result.events_executed = self.sim.es.scheduler.events_executed

    # -- one execution path -------------------------------------------------
    def run_segment(self, path: PendingPath, path_id: int,
                    per_path: int,
                    total_remaining: Optional[int]) -> SegmentResult:
        sim = self.sim
        sim.toggled[:] = False
        sim.ever_x[:] = False
        segment = simulate_segment(self.target, sim, path, path_id,
                                   per_path, total_remaining,
                                   self.cycle_observer)
        segment.activity = (sim.toggled.copy(), sim.ever_x.copy(),
                            *sim.value_planes())
        return segment


class EventSimBridge:
    """A CycleSim-compatible facade over :class:`EventSim`.

    Exposes the slice of the :class:`~repro.sim.cycle_sim.CycleSim`
    surface the harness and executor touch -- net/bus/code access
    (converted one bit at a time), memories,
    settle/clock_edge, force/release, snapshot/restore, and the toggle
    activity planes -- backed by the event-driven kernel.  Snapshots use
    the same ``compiled.state_nets`` layout as CycleSim, so CSM
    constraint positions and state fingerprints line up between
    backends.
    """

    def __init__(self, netlist, compiled=None):
        from ..sim.event_sim import EventSim
        self.netlist = netlist
        self.c = compiled if compiled is not None else \
            compile_netlist(netlist)
        self.es = EventSim(netlist)
        self.memories = {}
        self.cycle = 0
        n = len(netlist.nets)
        self.toggled = np.zeros(n, dtype=bool)
        self.ever_x = np.zeros(n, dtype=bool)
        self._armed = False
        self._prev = list(self.es.values)

    # -- memories -----------------------------------------------------------
    def attach_memory(self, memory):
        if memory.name in self.memories:
            raise ValueError(f"memory {memory.name!r} already attached")
        self.memories[memory.name] = memory
        return memory

    # -- net access ---------------------------------------------------------
    def set_net(self, net: int, value: Logic) -> None:
        if net in self.es._forced:
            # the force owns the net until release() (CycleSim contract)
            return
        if self.netlist.nets[net].driver is None:
            self.es.poke(net, value)
        else:
            # transient write to an internal net, re-derived at settle
            self.es._write(net, value)

    def get_net(self, net: int) -> Logic:
        return self.es.get_logic(net)

    def set_bus(self, nets, value: LVec) -> None:
        if len(nets) != value.width:
            raise ValueError("bus width mismatch")
        for net, bit in zip(nets, value.bits):
            self.set_net(net, bit)

    def get_bus(self, nets) -> LVec:
        return LVec([self.es.get_logic(n) for n in nets])

    def set_codes(self, nets, codes) -> None:
        if len(nets) != len(codes):
            raise ValueError("bus width mismatch")
        for net, code in zip(np.asarray(nets).tolist(),
                             np.asarray(codes).tolist()):
            self.set_net(net, CODE_LEVEL[code])

    def get_codes(self, nets) -> np.ndarray:
        get = self.es.get_logic
        return np.fromiter((LEVEL_CODE[get(n)] for n in nets),
                           dtype=CODE_DTYPE, count=len(nets))

    def set_input(self, name: str, value) -> None:
        nl = self.netlist
        if isinstance(value, LVec):
            self.set_bus(nl.bus(name, value.width), value)
        else:
            level = value if isinstance(value, Logic) else \
                (Logic.L1 if value else Logic.L0)
            self.set_net(nl.net_index(name), level)

    # -- value planes (read-only views derived from event values) -----------
    @property
    def val(self) -> np.ndarray:
        to_logic = self.es.domain.to_logic
        return np.fromiter((to_logic(v) is Logic.L1
                            for v in self.es.values),
                           dtype=bool, count=len(self.es.values))

    @property
    def known(self) -> np.ndarray:
        to_logic = self.es.domain.to_logic
        return np.fromiter((to_logic(v).is_known
                            for v in self.es.values),
                           dtype=bool, count=len(self.es.values))

    def value_planes(self):
        """``(val & known, known)`` of every net, as fresh arrays (the
        derived ``val`` is already masked: only a known net reads 1)."""
        return self.val, self.known

    def load_value_planes(self, val, known) -> None:
        """Write full net planes back and re-settle (the bridge's
        ``val``/``known`` are derived views, not writable arrays)."""
        if len(val) != len(self.es.values):
            raise ValueError("value planes do not fit this netlist")
        values = self.es.values
        for net in range(len(values)):
            if known[net]:
                values[net] = Logic.L1 if val[net] else Logic.L0
            else:
                values[net] = Logic.X
        self._resettle_all()

    # -- settling / clocking ------------------------------------------------
    def settle(self) -> None:
        """Drain every event region of the time step, the Symbolic
        region last, so the boundary check reads a settled step."""
        self.es.scheduler.run_time_step()

    def clock_edge(self) -> None:
        es = self.es
        es.scheduler.run_time_step()      # settle pre-edge inputs
        es._posedge()
        es.scheduler.run_time_step()      # NBA commit + resettle
        es.cycle += 1
        es.scheduler.time += 1
        self.cycle += 1

    def mark_all_dirty(self) -> None:
        self._resettle_all()

    def _resettle_all(self) -> None:
        es = self.es
        es._pending_eval.clear()
        es.scheduler.clear()
        for gate in self.netlist.gates:
            if not gate.is_sequential:
                es._schedule_eval(gate.index)
        es.scheduler.run_time_step()

    # -- forcing ------------------------------------------------------------
    def force(self, net: int, value: Logic) -> None:
        self.es.force(net, value)

    def release(self, net: Optional[int] = None) -> None:
        self.es.release(net)

    # -- snapshot / restore -------------------------------------------------
    def snapshot(self, pc: Optional[int] = None) -> SimState:
        sn = self.c.state_nets
        vals = [self.es.get_logic(int(n)) for n in sn]
        return SimState(
            net_val=np.array([v is Logic.L1 for v in vals], dtype=bool),
            net_known=np.array([v.is_known for v in vals], dtype=bool),
            memories={name: mem.snapshot()
                      for name, mem in self.memories.items()},
            cycle=self.cycle,
            pc=pc,
        )

    def restore(self, state: SimState) -> None:
        sn = self.c.state_nets
        if state.net_val.shape != sn.shape:
            raise ValueError("snapshot does not match this netlist")
        es = self.es
        if es._forced:
            # release (not _forced.clear()) so the forced nets' own
            # drivers get re-scheduled, and release BEFORE warning so
            # warnings-as-errors cannot abort with the pins still set
            n_forced = len(es._forced)
            es.release()
            warnings.warn(
                f"restore() with {n_forced} active force(s): "
                f"forces do not survive a restore; re-apply them after "
                f"restoring", ForcedRestoreWarning, stacklevel=2)
        values = es.values
        for pos, net in enumerate(sn):
            if state.net_known[pos]:
                level = Logic.L1 if state.net_val[pos] else Logic.L0
            else:
                level = Logic.X
            values[int(net)] = level
        for name, snap in state.memories.items():
            self.memories[name].restore(snap)
        self.cycle = state.cycle
        es.cycle = state.cycle
        self._resettle_all()
        if self._armed:
            self._prev = list(es.values)

    # -- toggle activity ----------------------------------------------------
    def arm_activity(self) -> None:
        self._armed = True
        self._prev = list(self.es.values)

    def record_activity_now(self) -> None:
        if not self._armed:
            return
        to_logic = self.es.domain.to_logic
        toggled, ever_x = self.toggled, self.ever_x
        prev = self._prev
        for net, value in enumerate(self.es.values):
            if not to_logic(value).is_known:
                ever_x[net] = True
            if value is not prev[net] and value != prev[net]:
                toggled[net] = True
        self._prev = list(self.es.values)
