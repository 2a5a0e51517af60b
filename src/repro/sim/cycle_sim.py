"""Vectorized levelized cycle engine.

The event kernel in :mod:`repro.sim.event_sim` reproduces the paper's
iverilog architecture faithfully, but a pure-Python event queue cannot
sweep a whole processor for thousands of cycles.  This engine is the
throughput path: it compiles the netlist once into one *level table*
per topological level and settles a cycle with five numpy operations
per level.

Encoding: every net is a pair of booleans ``(val, known)``; ``known ==
False`` is ``X`` (``Z`` collapses to ``X``, which is safe for the
non-tristate cell library).  The pair is one row of an ``(n, 2)`` bool
array (:class:`~repro.sim.planes.BoolPlanes`), so a net is also one
2-byte code: ``X`` 0x000, ``0`` 0x100, ``1`` 0x101.

Settling evaluates all combinational gates of a level at once: gather
the codes of each gate's three ports (a cell with fewer ports repeats
port 0), weight them ``1, 2, 4`` and sum -- one number per input
combination -- add the gate kind's slot offset, and look the output
code up in :data:`GATE_TABLE`.  That table is generated from
:data:`repro.logic.tables.COMB_EVAL`, the evaluators the event kernel
uses, so both engines take their gate semantics from one place.

A clock edge is one lookup too.  Every flop's ``(q, d, e, r)`` port
codes (a pin the kind lacks repeats ``d``) are gathered at once,
weighted ``1, 2, 4, 8``, offset by the flop kind's slot and looked up
in :data:`FLOP_TABLE`, which is generated from ``COMB_EVAL["MUX2"]``
composed exactly as the event kernel's ``EventSim._flop_next`` composes
it: an enable muxes hold against load, then a reset muxes that against
0.  Every next state is computed before the one scatter commits them,
which keeps the non-blocking (NBA) semantics of a real edge.

Where the compiled level kernel (:mod:`repro.sim.native`) loads, settle
and edge run the same lookups in C instead: one loop over every gate of
:attr:`CompiledNetlist.gate_rows` in level order, and one over
:attr:`CompiledNetlist.flop_rows` that computes every next state before
writing any.  Forced codes are written before the loop and forced gate
outputs skipped, which equals re-asserting the forces after every level
that drives one.  The numpy level tables run where no compiler works,
and are the bitwise reference the kernel is tested against;
:attr:`CycleSim.kernel` names the one that runs.

The engine supports the three paper-specific features directly:

* **monitoring** -- arbitrary net lists can be read back as net codes
  (:meth:`CycleSim.get_codes`, the testbench's fast path) or as
  :class:`~repro.logic.vector.LVec`;
* **state save/restore** -- :meth:`CycleSim.snapshot` /
  :meth:`CycleSim.restore` capture flop outputs, primary inputs and
  attached memories (comb logic is re-settled on restore);
* **forcing** -- :meth:`CycleSim.force` pins a net to a value during
  settle, which is how the co-analysis engine steers a forked simulation
  down one side of a branch ("appropriate control flow signals are set",
  paper section 3).
"""

from __future__ import annotations

import itertools
import warnings
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..logic.tables import COMB_EVAL
from ..logic.value import Logic
from ..logic.vector import LVec
from ..netlist.cells import LIBRARY
from ..netlist.netlist import Netlist
from . import native
from .memory import XMemory
from .planes import (CODE_0, CODE_1, CODE_DTYPE, CODE_LEVEL, CODE_X,
                     LEVEL_CODE, BoolPlanes, to_codes, to_lvec)
from .state import SimState

#: comb kinds the level table evaluates, in table-slot order (ties are
#: constants, set once and never re-evaluated)
TABLE_KINDS = ("BUF", "NOT", "AND", "NAND", "OR", "NOR", "XOR", "XNOR",
               "MUX2")
#: port weights: ``codes @ _WEIGHTS`` is ``known_bits << 8 | val_bits``
#: over the three ports, which stays below one slot
_WEIGHTS = np.array([1, 2, 4], dtype=CODE_DTYPE)
_SLOT = 8 << 8


def _build_gate_table() -> np.ndarray:
    """Output code of every kind on every 3-port ``X/0/1`` input.

    Entries no such input reaches (a ``val`` bit without its ``known``
    bit) read ``X``.
    """
    inputs = list(itertools.product((Logic.X, Logic.L0, Logic.L1),
                                    repeat=3))
    index = np.array([[LEVEL_CODE[x] for x in ins] for ins in inputs],
                     dtype=CODE_DTYPE) @ _WEIGHTS
    table = np.full(len(TABLE_KINDS) * _SLOT, CODE_X, dtype=CODE_DTYPE)
    for slot, kind in enumerate(TABLE_KINDS):
        arity = LIBRARY[kind].arity
        # padded ports repeat port 0: evaluating them too would make
        # XOR(a, b) the 3-input XOR(a, b, a)
        table[slot * _SLOT + index] = [
            LEVEL_CODE[COMB_EVAL[kind](ins[:arity])] for ins in inputs]
    return table


#: output code by ``slot * _SLOT + codes @ _WEIGHTS``; built at import
GATE_TABLE = _build_gate_table()

#: flop kinds :data:`FLOP_TABLE` evaluates, in table-slot order
FLOP_KINDS = ("DFF", "DFFE", "DFFR", "DFFER")
#: weights of a flop's ``(q, d, e, r)`` port codes (one slot, as above)
_FLOP_WEIGHTS = np.array([1, 2, 4, 8], dtype=CODE_DTYPE)
_FLOP_SLOT = 16 << 8


def _flop_next(kind: str, q: Logic, d: Logic, e: Logic, r: Logic) -> Logic:
    """A flop's next state, composed from ``MUX2`` the way the event
    kernel's ``EventSim._flop_next`` composes it: the enable picks
    between hold and load, then the reset picks between that and 0."""
    mux2 = COMB_EVAL["MUX2"]                  # pins (D0, D1, S)
    if kind in ("DFFE", "DFFER"):
        d = mux2((q, d, e))
    if kind in ("DFFR", "DFFER"):
        d = mux2((d, Logic.L0, r))
    return d


def _build_flop_table() -> np.ndarray:
    """Next-state code of every flop kind on every ``(q, d, e, r)``
    ``X/0/1`` input; unreachable entries read ``X``."""
    inputs = list(itertools.product((Logic.X, Logic.L0, Logic.L1),
                                    repeat=4))
    index = np.array([[LEVEL_CODE[x] for x in ins] for ins in inputs],
                     dtype=CODE_DTYPE) @ _FLOP_WEIGHTS
    table = np.full(len(FLOP_KINDS) * _FLOP_SLOT, CODE_X, dtype=CODE_DTYPE)
    for slot, kind in enumerate(FLOP_KINDS):
        table[slot * _FLOP_SLOT + index] = [
            LEVEL_CODE[_flop_next(kind, *ins)] for ins in inputs]
    return table


#: next Q code by ``slot * _FLOP_SLOT + codes @ _FLOP_WEIGHTS``; built
#: at import
FLOP_TABLE = _build_flop_table()


#: the compiled settle's force arguments when nothing is forced
_NO_FORCES = (None, None, 0, None)


class ForcedRestoreWarning(RuntimeWarning):
    """A snapshot was restored while forces were still active.

    :meth:`CycleSim.restore` drops all active forces (a snapshot captures
    architectural state only, and a stale force would silently steer the
    restored path).  Callers that need a force on the restored path must
    re-apply it *after* restore -- the order the co-analysis engine uses.
    """


class _Group:
    """All gates of one kind within one topological level."""

    __slots__ = ("kind", "ins", "out", "level")

    def __init__(self, kind: str, ins: List[np.ndarray], out: np.ndarray,
                 level: int):
        self.kind = kind
        self.ins = ins
        self.out = out
        self.level = level


def _level_tables(schedule: List[_Group]) -> List[
        Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """``(level, ins, offset, out)`` per logic level of ``schedule``.

    ``ins`` holds the (3, m) port nets of the level's m gates (ports a
    cell lacks repeat port 0) and ``offset`` each gate's
    :data:`GATE_TABLE` slot.  The schedule is level-sorted, so a level
    is one run of its concatenated groups.
    """
    if not schedule:
        return []
    sizes = [len(grp.out) for grp in schedule]
    ins = np.stack([np.concatenate(
        [grp.ins[p] if p < len(grp.ins) else grp.ins[0]
         for grp in schedule]) for p in range(3)])
    offset = np.repeat(np.array(
        [TABLE_KINDS.index(grp.kind) * _SLOT for grp in schedule],
        dtype=CODE_DTYPE), sizes)
    out = np.concatenate([grp.out for grp in schedule])
    gate_level = np.repeat([grp.level for grp in schedule], sizes)
    cuts = (np.flatnonzero(np.diff(gate_level)) + 1).tolist()
    return [(int(gate_level[s]), ins[:, s:e].copy(), offset[s:e], out[s:e])
            for s, e in zip([0] + cuts, cuts + [len(out)])]


class CompiledNetlist:
    """Netlist lowered to index arrays for vectorized evaluation.

    The levelized ``(level, kind)`` evaluation schedule is also
    concatenated into one level table per topological level
    (:attr:`levels`), which :meth:`CycleSim.settle` evaluates and from
    which the batched engine derives its lane level tables
    (:mod:`repro.sim.batch_kernels`).  :attr:`net_comb_level` holds the
    comb level of each net's driver (``-1`` for primary inputs, flop
    outputs and ties): forces are re-asserted after those levels.
    :attr:`flop_ports` and :attr:`flop_offset` hold every flop as one
    :data:`FLOP_TABLE` lookup (see :meth:`CycleSim.clock_edge`).
    :attr:`gate_rows` and :attr:`flop_rows` are the same tables packed,
    and bounds-checked, for the compiled level kernel
    (:mod:`repro.sim.native`).

    Compilation is pure and the result is immutable, so instances are
    shared freely between simulators; use :func:`compile_netlist` to get
    the per-netlist cached instance instead of recompiling per segment.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self.n_nets = len(netlist.nets)
        levels = netlist.levelize()

        # comb schedule: (level, kind) groups in level order; ties are
        # constant and kept out of the re-evaluated schedule entirely
        buckets: Dict[Tuple[int, str], List[int]] = {}
        tie_buckets: Dict[str, List[int]] = {}
        for g in netlist.gates:
            if g.is_sequential:
                continue
            if g.kind in ("TIE0", "TIE1"):
                tie_buckets.setdefault(g.kind, []).append(g.index)
                continue
            buckets.setdefault((levels[g.index], g.kind), []).append(g.index)
        self.schedule: List[_Group] = []
        for (lvl, kind), gate_ids in sorted(buckets.items()):
            arity = netlist.gates[gate_ids[0]].cell.arity
            ins = [np.array([netlist.gates[gi].inputs[p] for gi in gate_ids],
                            dtype=np.int64) for p in range(arity)]
            out = np.array([netlist.gates[gi].output for gi in gate_ids],
                           dtype=np.int64)
            self.schedule.append(_Group(kind, ins, out, lvl))

        self.levels = _level_tables(self.schedule)
        self.ties: List[Tuple[str, np.ndarray]] = [
            (kind, np.array([netlist.gates[gi].output for gi in gate_ids],
                            dtype=np.int64))
            for kind, gate_ids in sorted(tie_buckets.items())]

        # sequential schedule: flops grouped by kind
        seq_buckets: Dict[str, List[int]] = {}
        for g in netlist.gates:
            if g.is_sequential:
                seq_buckets.setdefault(g.kind, []).append(g.index)
        self.flops: List[_Group] = []
        for kind, gate_ids in sorted(seq_buckets.items()):
            arity = netlist.gates[gate_ids[0]].cell.arity
            ins = [np.array([netlist.gates[gi].inputs[p] for gi in gate_ids],
                            dtype=np.int64) for p in range(arity)]
            out = np.array([netlist.gates[gi].output for gi in gate_ids],
                           dtype=np.int64)
            self.flops.append(_Group(kind, ins, out, 0))

        # the same flops as one FLOP_TABLE lookup: (q, d, e, r) port
        # nets per flop (absent pins repeat d) and each flop's slot
        seq = [g for g in netlist.gates if g.is_sequential]
        self.flop_ports = np.array(
            [[g.output for g in seq],
             [g.inputs[0] for g in seq],
             [g.inputs[1] if g.kind in ("DFFE", "DFFER") else g.inputs[0]
              for g in seq],
             [g.inputs[-1] if g.kind in ("DFFR", "DFFER") else g.inputs[0]
              for g in seq]], dtype=np.intp).reshape(4, len(seq))
        self.flop_offset = np.array(
            [FLOP_KINDS.index(g.kind) * _FLOP_SLOT for g in seq],
            dtype=CODE_DTYPE)
        self.gate_rows = native.pack_gates(self.levels, self.n_nets,
                                           GATE_TABLE)
        self.flop_rows = native.pack_flops(self.flop_ports,
                                           self.flop_offset, self.n_nets,
                                           FLOP_TABLE, _FLOP_SLOT)

        # state nets: flop outputs + primary inputs (the restorable part)
        state: List[int] = [n for n in netlist.inputs]
        for grp in self.flops:
            state.extend(grp.out.tolist())
        self.state_nets = np.array(sorted(set(state)), dtype=np.int64)

        # map net -> driver gate (for toggle attribution)
        self.driver = np.full(self.n_nets, -1, dtype=np.int64)
        for g in netlist.gates:
            self.driver[g.output] = g.index

        # net -> comb level of its driver (-1: no comb driver)
        self.net_comb_level = np.full(self.n_nets, -1, dtype=np.int64)
        for lvl, _ins, _offset, out in self.levels:
            self.net_comb_level[out] = lvl


#: per-process compiled-netlist cache keyed by netlist object identity
#: (weakly, so dropping the netlist drops the compile) plus the
#: netlist's structural mutation counter -- a netlist edited after a
#: compile recompiles instead of serving a stale schedule.
_COMPILE_CACHE: ("weakref.WeakKeyDictionary[Netlist, "
                 "Tuple[int, CompiledNetlist]]") = \
    weakref.WeakKeyDictionary()


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compile ``netlist``, memoizing by object identity.

    Repeated target construction over the same netlist (worker
    initializers, per-segment replays, the reporting grid) hits the
    cache instead of re-levelizing and re-bucketing the whole design.
    """
    version = getattr(netlist, "_mutation_version", None)
    if version is None:
        # no mutation counter means edits are invisible to the cache
        # key: a -1 sentinel would match itself forever and serve a
        # stale schedule after the first in-place edit, so treat such
        # netlists as uncacheable and compile fresh every time
        return CompiledNetlist(netlist)
    entry = _COMPILE_CACHE.get(netlist)
    if entry is not None and entry[0] == version:
        return entry[1]
    compiled = CompiledNetlist(netlist)
    _COMPILE_CACHE[netlist] = (version, compiled)
    return compiled


class CycleSim:
    """Cycle-accurate four-valued simulator over a compiled netlist.

    Args:
        compiled: the shared :class:`CompiledNetlist`.

    Toggle/ever-X planes are collected only once armed (see
    :meth:`arm_activity`).
    """

    def __init__(self, compiled: CompiledNetlist):
        self.c = compiled
        n = compiled.n_nets
        # the shared six-plane state layout (see repro.sim.planes);
        # the serial engine is the one-state bool specialization
        self.planes = BoolPlanes(n)
        self.val = self.planes.val
        self.known = self.planes.known         # everything starts X
        self.code = self.planes.code
        self.cycle = 0
        self.memories: Dict[str, XMemory] = {}
        self.toggled = self.planes.toggled
        self.ever_x = self.planes.ever_x
        self._activity_armed = False
        self._prev_code = self.planes.prev_code
        #: force store: net -> (val, known); index arrays are
        #: materialized lazily so N forces stay O(N), not O(N^2)
        self._forces: Dict[int, Tuple[bool, bool]] = {}
        self._force_cache: Optional[Tuple[np.ndarray, np.ndarray,
                                          set, tuple]] = None
        #: a bit changed since the last settle (or mark_all_dirty)
        self._dirty = True
        #: settle counters: ``full_settles`` evaluated every level,
        #: ``noop_settles`` had nothing to do; no settle is partial, so
        #: ``incremental_settles`` stays 0
        self.full_settles = 0
        self.incremental_settles = 0
        self.noop_settles = 0
        self._tie_init()
        #: the compiled level kernel, or None: the numpy tables settle
        self._native = native.load_kernel()
        if self._native is not None:
            #: scratch next states of the edge, and the forced-net mask
            self._next = np.empty(len(compiled.flop_rows), CODE_DTYPE)
            self._forced = np.zeros(n, dtype=np.uint8)
            # raw addresses of buffers this sim and ``compiled`` keep
            # and never rebind
            code = self.code.ctypes.data
            self._settle_args = (code, GATE_TABLE.ctypes.data,
                                 compiled.gate_rows.ctypes.data,
                                 len(compiled.gate_rows))
            self._edge_args = (code, FLOP_TABLE.ctypes.data,
                               compiled.flop_rows.ctypes.data,
                               len(compiled.flop_rows),
                               self._next.ctypes.data)

    @property
    def kernel(self) -> str:
        """The settle kernel that runs: ``"c"`` or ``"numpy"``."""
        return "numpy" if self._native is None else "c"

    # -- memories ------------------------------------------------------------
    def attach_memory(self, memory: XMemory) -> XMemory:
        if memory.name in self.memories:
            raise ValueError(f"memory {memory.name!r} already attached")
        self.memories[memory.name] = memory
        return memory

    # -- net access -----------------------------------------------------------
    def set_net(self, net: int, value: Logic) -> None:
        if net in self._forces:
            # the force owns the net until release(); a write-through
            # would resurface after release in settle-timing-dependent
            # ways (and diverge from the event kernel)
            return
        code = LEVEL_CODE[value]
        if self.code[net] != code:
            self.code[net] = code
            self._dirty = True

    def get_net(self, net: int) -> Logic:
        return CODE_LEVEL[self.code[net]]

    def set_codes(self, nets: Sequence[int], codes: np.ndarray) -> None:
        """Drive ``nets`` with net ``codes`` in one write.  Forced nets
        are left alone, as :meth:`set_net` leaves them, and the dirty
        flag is set only when a bit changes."""
        idx = np.asarray(nets, dtype=np.intp)
        codes = np.asarray(codes, dtype=CODE_DTYPE)
        if len(idx) != len(codes):
            raise ValueError("bus width mismatch")
        if self._forces and \
                not self._forces.keys().isdisjoint(idx.tolist()):
            free = np.array([n not in self._forces for n in idx.tolist()])
            idx, codes = idx[free], codes[free]
        if self.code[idx].tobytes() != codes.tobytes():
            self.code[idx] = codes
            self._dirty = True

    def get_codes(self, nets: Sequence[int]) -> np.ndarray:
        """The net codes of ``nets`` (a copy)."""
        return self.code[nets]

    def set_bus(self, nets: Sequence[int], value: LVec) -> None:
        self.set_codes(nets, to_codes(value))

    def get_bus(self, nets: Sequence[int]) -> LVec:
        return to_lvec(self.get_codes(nets))

    def set_input(self, name: str, value) -> None:
        """Drive a named primary input (scalar Logic/int or LVec)."""
        nl = self.c.netlist
        if isinstance(value, LVec):
            self.set_bus(nl.bus(name, value.width), value)
        else:
            level = value if isinstance(value, Logic) else \
                (Logic.L1 if value else Logic.L0)
            self.set_net(nl.net_index(name), level)

    def mark_all_dirty(self) -> None:
        """Make the next settle evaluate every level.

        Call after writing :attr:`val` / :attr:`known` directly -- bulk
        writes bypass the dirty flag that lets an unchanged settle
        return at once."""
        self._dirty = True

    # -- forcing ------------------------------------------------------------
    def force(self, net: int, value: Logic) -> None:
        """Pin a net to ``value`` during settle until :meth:`release`.

        While forced, the net ignores :meth:`set_net`; after release it
        keeps the forced value until re-driven (by its comb driver at
        the next settle, by a flop at the next edge, or by a new
        ``set_net``).  A net outside ``[0, n_nets)`` raises
        ``IndexError`` and changes nothing.
        """
        if not 0 <= net < self.c.n_nets:
            raise IndexError(f"forced net {net} outside "
                             f"[0, {self.c.n_nets})")
        self._forces[net] = (value is Logic.L1, value.is_known)
        self._force_cache = None
        if self.code[net] != LEVEL_CODE[value]:
            self._dirty = True       # the pin takes effect at settle

    def release(self, net: Optional[int] = None) -> None:
        """Remove one force, or all forces when ``net`` is None."""
        if net is None:
            released = list(self._forces)
            self._forces.clear()
        elif net in self._forces:
            released = [net]
            del self._forces[net]
        else:
            return
        self._force_cache = None
        for n in released:
            self._reassert_driver(n)

    def _reassert_driver(self, net: int) -> None:
        """After a release the net's own driver owns it again: a comb
        driver re-derives it at the next settle, a tie is re-tied in
        place; PIs and flop outputs keep the last value."""
        if self.c.net_comb_level[net] >= 0:
            self._dirty = True
            return
        drv = self.c.driver[net]
        if drv < 0:
            return
        kind = self.c.netlist.gates[drv].kind
        if kind in ("TIE0", "TIE1"):
            code = CODE_1 if kind == "TIE1" else CODE_0
            if self.code[net] != code:
                self.code[net] = code
                self._dirty = True

    def _force_arrays(self) -> Tuple[np.ndarray, np.ndarray, set, tuple]:
        """``(nets, codes, levels, c_args)`` of the active forces:
        ``levels`` are the comb levels that drive a forced net.  Forces
        are re-asserted once after each such level -- pinned before any
        reader level evaluates.  ``c_args`` are the compiled settle's
        force arguments (it skips forced gate outputs instead)."""
        if self._force_cache is None:
            n = len(self._forces)
            nets = np.fromiter(self._forces.keys(), dtype=np.intp,
                               count=n)
            codes = np.fromiter((k << 8 | v
                                 for v, k in self._forces.values()),
                                dtype=CODE_DTYPE, count=n)
            levels = set(self.c.net_comb_level[nets].tolist())
            levels.discard(-1)
            c_args = ()
            if self._native is not None:
                self._forced[:] = 0
                self._forced[nets] = 1
                c_args = (nets.ctypes.data, codes.ctypes.data, n,
                          self._forced.ctypes.data)
            self._force_cache = (nets, codes, levels, c_args)
        return self._force_cache

    # lazily-materialized view, part of the (test-visible) interface
    @property
    def _force_nets(self) -> np.ndarray:
        return self._force_arrays()[0]

    # -- evaluation ------------------------------------------------------------
    def _tie_init(self) -> None:
        for kind, out in self.c.ties:
            self.code[out] = CODE_1 if kind == "TIE1" else CODE_0

    def settle(self) -> None:
        """Re-settle combinational logic, one level table at a time (in
        one call of the compiled kernel where it loads).

        Returns at once (a no-op settle) when no bit changed since the
        last settle and :meth:`mark_all_dirty` was not called.
        """
        if not self._dirty:
            self.noop_settles += 1
            return
        if self._native is not None:
            self._native.serial_settle(
                *self._settle_args,
                *(self._force_arrays()[3] if self._forces
                  else _NO_FORCES))
            self._dirty = False
            self.full_settles += 1
            return
        code = self.code
        weights, lookup = _WEIGHTS, GATE_TABLE.take
        if self._forces:
            f_nets, f_codes, f_levels, _ = self._force_arrays()
            code[f_nets] = f_codes
        else:
            f_levels = ()
        for lvl, ins, offset, out in self.c.levels:
            index = weights @ code[ins]
            index += offset
            code[out] = lookup(index)
            if lvl in f_levels:
                code[f_nets] = f_codes
        self._dirty = False
        self.full_settles += 1

    def clock_edge(self) -> None:
        """Advance all flops one positive edge (synchronous semantics).

        One :data:`FLOP_TABLE` lookup computes every next state from the
        pre-edge codes before any is committed (the vectorized
        equivalent of the event kernel's NBA region), so a flop chained
        directly to another flop's output samples its pre-edge value.
        """
        if self._native is not None:
            if self._native.serial_edge(*self._edge_args):
                self._dirty = True
            self.cycle += 1
            return
        ports = self.c.flop_ports
        codes = self.code[ports]
        index = _FLOP_WEIGHTS @ codes
        index += self.c.flop_offset
        nxt = FLOP_TABLE.take(index)
        if nxt.tobytes() != codes[0].tobytes():
            self.code[ports[0]] = nxt
            self._dirty = True
        self.cycle += 1

    # -- activity ---------------------------------------------------------------
    def arm_activity(self) -> None:
        """Begin toggle recording (call after reset settles)."""
        self._activity_armed = True
        self._prev_code[:] = self.code

    def record_activity_now(self) -> None:
        if not self._activity_armed:
            return
        self.ever_x |= ~self.known
        self.toggled |= self.code != self._prev_code
        self._prev_code[:] = self.code

    def exercised_nets(self) -> np.ndarray:
        """Boolean per-net array: net toggled or was ever X."""
        return self.toggled | self.ever_x

    def value_planes(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(val & known, known)`` of every net, as fresh arrays."""
        return self.code == CODE_1, self.code >= CODE_0

    def reset_activity(self) -> None:
        self.toggled[:] = False
        self.ever_x[:] = False
        self._activity_armed = False

    # -- stepping ---------------------------------------------------------------
    def step(self, drive: Optional[Callable[["CycleSim"], None]] = None,
             on_edge: Optional[Callable[["CycleSim"], None]] = None) -> None:
        """One full clock cycle.

        ``drive`` is called between two settle sweeps so a testbench can
        respond combinationally to design outputs (e.g. feed instruction
        words for the fetched address).  ``on_edge`` is called after the
        settled values are final and before flops advance -- the place to
        commit memory writes.

        Activity contract: toggles are recorded after *every* settle
        sweep inside the cycle, so a net that glitches in the first
        sweep and reverts once ``drive`` responds still counts as
        toggled.  Gate-level glitches dissipate real power, so the
        conservative (exercisable-superset) reading is the sound one
        for the paper's pruning flow.
        """
        self.settle()
        if drive is not None:
            self.record_activity_now()
            drive(self)
            self.settle()
        self.record_activity_now()
        if on_edge is not None:
            on_edge(self)
        self.clock_edge()

    # -- snapshots -----------------------------------------------------------
    def snapshot(self, pc: Optional[int] = None) -> SimState:
        sn = self.c.state_nets
        return SimState(
            net_val=(self.val[sn] & self.known[sn]).copy(),
            net_known=self.known[sn].copy(),
            memories={name: mem.snapshot()
                      for name, mem in self.memories.items()},
            cycle=self.cycle,
            pc=pc,
        )

    def restore(self, state: SimState) -> None:
        """Restore a snapshot: state nets and memories are written back,
        all forces are dropped, and comb logic is re-settled.

        Restoring with forces still active raises
        :class:`ForcedRestoreWarning`: a force is path-steering context,
        not architectural state, so it does not survive a restore --
        re-apply forces after restore, the way
        :class:`~repro.coanalysis.engine.CoAnalysisEngine` forces the
        branch decision on each forked path.
        """
        sn = self.c.state_nets
        if state.net_val.shape != sn.shape:
            raise ValueError("snapshot does not match this netlist")
        if self._forces:
            # drop the forces (and the _force_cache built from them)
            # BEFORE warning: under warnings-as-errors the warn raises,
            # and releasing first guarantees no stale pin or cached
            # force array survives into the next settle either way
            n_forces = len(self._forces)
            self.release()
            warnings.warn(
                f"restore() with {n_forces} active force(s): "
                f"forces do not survive a restore; re-apply them after "
                f"restoring", ForcedRestoreWarning, stacklevel=2)
        if ((state.net_val != self.val[sn])
                | (state.net_known != self.known[sn])).any():
            self.val[sn] = state.net_val
            self.known[sn] = state.net_known
            self._dirty = True
        for name, snap in state.memories.items():
            self.memories[name].restore(snap)
        self.cycle = state.cycle
        self.settle()
        if self._activity_armed:
            self._prev_code[:] = self.code
