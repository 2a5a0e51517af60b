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

The engine supports the three paper-specific features directly:

* **monitoring** -- arbitrary net lists can be read back as
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
from .memory import XMemory
from .planes import CODE_0, CODE_1, CODE_DTYPE, CODE_X, BoolPlanes
from .state import SimState

#: net code of each level, indexed by ``Logic`` (``Z`` reads as ``X``)
_LEVEL_CODE = (CODE_0, CODE_1, CODE_X, CODE_X)
#: level of each net code; codes with ``known`` clear read as ``X``
_CODE_LEVEL = tuple(Logic.L0 if c == CODE_0 else
                    Logic.L1 if c == CODE_1 else Logic.X
                    for c in range(CODE_1 + 1))

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
    index = np.array([[_LEVEL_CODE[x] for x in ins] for ins in inputs],
                     dtype=CODE_DTYPE) @ _WEIGHTS
    table = np.full(len(TABLE_KINDS) * _SLOT, CODE_X, dtype=CODE_DTYPE)
    for slot, kind in enumerate(TABLE_KINDS):
        arity = LIBRARY[kind].arity
        # padded ports repeat port 0: evaluating them too would make
        # XOR(a, b) the 3-input XOR(a, b, a)
        table[slot * _SLOT + index] = [
            _LEVEL_CODE[COMB_EVAL[kind](ins[:arity])] for ins in inputs]
    return table


#: output code by ``slot * _SLOT + codes @ _WEIGHTS``; built at import
GATE_TABLE = _build_gate_table()


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
        record_activity: collect toggle/ever-X planes (see
            :meth:`arm_activity`).
    """

    def __init__(self, compiled: CompiledNetlist,
                 record_activity: bool = True):
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
        self.record_activity = record_activity
        self.toggled = self.planes.toggled
        self.ever_x = self.planes.ever_x
        self._activity_armed = False
        self._prev_code = self.planes.prev_code
        #: force store: net -> (val, known); index arrays are
        #: materialized lazily so N forces stay O(N), not O(N^2)
        self._forces: Dict[int, Tuple[bool, bool]] = {}
        self._force_cache: Optional[Tuple[np.ndarray, np.ndarray,
                                          set]] = None
        #: a bit changed since the last settle (or mark_all_dirty)
        self._dirty = True
        #: settle counters: ``full_settles`` evaluated every level,
        #: ``noop_settles`` had nothing to do; no settle is partial, so
        #: ``incremental_settles`` stays 0
        self.full_settles = 0
        self.incremental_settles = 0
        self.noop_settles = 0
        self._tie_init()

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
        code = _LEVEL_CODE[value]
        if self.code[net] != code:
            self.code[net] = code
            self._dirty = True

    def get_net(self, net: int) -> Logic:
        return _CODE_LEVEL[self.code[net]]

    def set_bus(self, nets: Sequence[int], value: LVec) -> None:
        if len(nets) != value.width:
            raise ValueError("bus width mismatch")
        idx = np.asarray(nets, dtype=np.intp)
        codes = np.fromiter(map(_LEVEL_CODE.__getitem__, value.bits),
                            dtype=CODE_DTYPE, count=value.width)
        if self._forces and not self._forces.keys().isdisjoint(nets):
            free = np.array([n not in self._forces for n in nets])
            idx, codes = idx[free], codes[free]
        if (self.code[idx] != codes).any():
            self.code[idx] = codes
            self._dirty = True

    def get_bus(self, nets: Sequence[int]) -> LVec:
        return LVec([_CODE_LEVEL[c] for c in self.code[nets].tolist()])

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

        Call after writing :attr:`val` / :attr:`known` directly (e.g.
        restoring checkpointed planes) -- bulk writes bypass the dirty
        flag that lets an unchanged settle return at once."""
        self._dirty = True

    # -- forcing ------------------------------------------------------------
    def force(self, net: int, value: Logic) -> None:
        """Pin a net to ``value`` during settle until :meth:`release`.

        While forced, the net ignores :meth:`set_net`; after release it
        keeps the forced value until re-driven (by its comb driver at
        the next settle, by a flop at the next edge, or by a new
        ``set_net``).
        """
        self._forces[net] = (value is Logic.L1, value.is_known)
        self._force_cache = None
        if self.code[net] != _LEVEL_CODE[value]:
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

    def _force_arrays(self) -> Tuple[np.ndarray, np.ndarray, set]:
        """``(nets, codes, levels)`` of the active forces: ``levels`` are
        the comb levels that drive a forced net.  Forces are re-asserted
        once after each such level -- pinned before any reader level
        evaluates."""
        if self._force_cache is None:
            n = len(self._forces)
            nets = np.fromiter(self._forces.keys(), dtype=np.intp,
                               count=n)
            codes = np.fromiter((k << 8 | v
                                 for v, k in self._forces.values()),
                                dtype=CODE_DTYPE, count=n)
            levels = set(self.c.net_comb_level[nets].tolist())
            levels.discard(-1)
            self._force_cache = (nets, codes, levels)
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
        """Re-settle combinational logic, one level table at a time.

        Returns at once (a no-op settle) when no bit changed since the
        last settle and :meth:`mark_all_dirty` was not called.
        """
        if not self._dirty:
            self.noop_settles += 1
            return
        code = self.code
        weights, lookup = _WEIGHTS, GATE_TABLE.take
        if self._forces:
            f_nets, f_codes, f_levels = self._force_arrays()
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

        All next-state values are computed from the pre-edge planes
        before any are committed (the vectorized equivalent of the
        event kernel's NBA region) -- a flop chained directly to
        another flop's output must sample its pre-edge value even when
        the two land in different kind groups.
        """
        val, known = self.val, self.known
        staged: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for grp in self.c.flops:
            kind = grp.kind
            out = grp.out
            d = grp.ins[0]
            vd, kd = val[d], known[d]
            vq, kq = val[out], known[out]
            if kind in ("DFFE", "DFFER"):
                e = grp.ins[1]
                ve, ke = val[e], known[e]
                hold_v, hold_k = vq, kq
                agree = kd & kq & (vd == vq)
                nv = np.where(ke, np.where(ve, vd, hold_v), agree & vd)
                nk = np.where(ke, np.where(ve, kd, hold_k), agree)
            else:
                nv, nk = vd.copy(), kd.copy()
            if kind in ("DFFR", "DFFER"):
                r = grp.ins[-1]
                vr, kr = val[r], known[r]
                r_on = kr & vr
                r_off = kr & ~vr
                known_zero = nk & ~nv
                nk = np.where(r_on, True, np.where(r_off, nk, known_zero))
                nv = np.where(r_on, False, np.where(r_off, nv, False))
            staged.append((out, nv, nk))
        for out, nv, nk in staged:
            if not self._dirty and \
                    ((nv != val[out]) | (nk != known[out])).any():
                self._dirty = True
            val[out] = nv
            known[out] = nk
        self.cycle += 1

    # -- activity ---------------------------------------------------------------
    def arm_activity(self) -> None:
        """Begin toggle recording (call after reset settles)."""
        self._activity_armed = True
        self._prev_code[:] = self.code

    def record_activity_now(self) -> None:
        if not (self.record_activity and self._activity_armed):
            return
        self.ever_x |= ~self.known
        self.toggled |= self.code != self._prev_code
        self._prev_code[:] = self.code

    def exercised_nets(self) -> np.ndarray:
        """Boolean per-net array: net toggled or was ever X."""
        return self.toggled | self.ever_x

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
