"""Lane-parallel cycle simulation: many forked states per settle.

The co-analysis frontier is full of *near-identical* states -- every
fork copies its parent and diverges by one branch decision.  The serial
engine settles them one at a time, paying the full numpy dispatch cost
per state.  :class:`BatchCycleSim` packs up to :data:`LANE_CAPACITY`
(64) independent simulations into the same arrays the serial engine
uses: every net's ``(val, known)`` pair becomes one ``uint64`` word
per plane (:class:`~repro.sim.planes.LanePlanes`), **one bit per
lane**.  A single settle then advances every lane at once -- bitwise
``& | ^ ~`` on uint64 words is lane-parallel for free, the GSIM-style
batched-kernel trick.  The co-analysis frontiers of the paper's runs
are 2-8 paths wide, so one word holds every wave.

Lane lifecycle maps onto Algorithm 1 directly:

* **fork** -- :meth:`BatchCycleSim.fork_lane` copies one bit column
  (plus memories) into a free lane;
* **merge / prune** -- :meth:`BatchCycleSim.drop_lane` releases the
  lane; its bits become garbage that every consumer masks out;
* **explore** -- all live lanes advance in lockstep through
  ``settle()`` / ``clock_edge()``.

Settling is the lane form of the serial engine's level table (see
:mod:`repro.sim.batch_kernels`): per logic level, two gathers of every
gate's dual-rail mux operands, three bitwise ops and one scatter
advance every lane.  Where the compiled level kernel
(:mod:`repro.sim.native`) loads, one C call walks the same gates in the
same order over the same rails buffer, converting the planes to rails
and back inside the call and applying per-lane forces as keep and rail
masks; another runs the clock edge's per-kind enable/reset algebra
over :attr:`CompiledNetlist.flop_rows`.  The numpy tables run where no
compiler works and are the reference (:attr:`BatchCycleSim.kernel`
names the one that runs).  One dirty flag, set only when a bit of a
live lane changes, makes a settle with nothing to do free.

Per-lane state that cannot live in the bit planes -- cycle counters,
attached :class:`~repro.sim.memory.XMemory` instances, forces,
activity arming -- is kept in small per-lane tables.
:class:`LaneView` wraps ``(sim, lane)`` as a CycleSim-compatible
facade so targets, harnesses and tests drive one lane without knowing
about the packing.  Parity with the serial engine is pinned by the
batch/serial equivalence tests.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..logic.value import Logic
from ..logic.vector import LVec
from . import native
from .batch_kernels import batch_kernels_for
from .cycle_sim import CompiledNetlist, ForcedRestoreWarning
from .memory import XMemory
from .planes import (CODE_DTYPE, LANE_CAPACITY, M64, LanePlanes,
                     column_bits, to_codes, to_lvec)
from .state import SimState


#: the compiled lane settle's force arguments when nothing is forced
_NO_FORCES = (None, None, None, None, 0, None)


class LaneCapacityError(RuntimeError):
    """All lanes of a :class:`BatchCycleSim` are in use."""


def _clone_memory(mem: XMemory) -> XMemory:
    clone = XMemory(mem.words, mem.width, name=mem.name)
    clone.restore(mem.snapshot())
    return clone


class BatchCycleSim:
    """Bit-packed lane-parallel four-valued simulator.

    The planes are ``(n_nets,)`` uint64 arrays; bit ``b`` of row ``i``
    is net ``i``'s value in lane ``b``.  All lane-global operations
    (:meth:`settle`, :meth:`clock_edge`, :meth:`record_activity_now`)
    advance every live lane in lockstep; per-lane mutation and
    observation go through the ``lane_*`` methods or a
    :class:`LaneView`.  Args mirror
    :class:`~repro.sim.cycle_sim.CycleSim`.
    """

    def __init__(self, compiled: CompiledNetlist):
        self.c = compiled
        self.planes = LanePlanes(compiled.n_nets)
        self.kernels = batch_kernels_for(compiled)
        #: the settle's dual-rail copy of the planes, flat and as a
        #: ``(2, rows)`` view; the two constant rows after the nets are
        #: set once here and never written again
        self._rails = np.zeros(2 * self.kernels.rows, dtype=np.uint64)
        self._rails2 = self._rails.reshape(2, self.kernels.rows)
        self._rails2[0, -2] = M64      # constant 0: zero-rail set
        self._rails2[1, -1] = M64      # constant 1: one-rail set
        self.val = self.planes.val
        self.known = self.planes.known
        #: bitmask of live lanes (python int)
        self.active_mask = 0
        self.lane_cycle: List[int] = [0] * LANE_CAPACITY
        self.lane_memories: Dict[int, Dict[str, XMemory]] = {}
        self.toggled = self.planes.toggled
        self.ever_x = self.planes.ever_x
        self._armed_mask = 0
        self._prev_val = self.planes.prev_val
        self._prev_known = self.planes.prev_known
        #: force store: net -> [lane_mask, val_bits, known_bits]
        #: (``val_bits``/``known_bits`` are subsets of ``lane_mask``)
        self._forces: Dict[int, List[int]] = {}
        self._force_cache: Optional[Tuple[np.ndarray, np.ndarray,
                                          np.ndarray, set, tuple]] = None
        #: a live lane's bit changed since the last settle (or
        #: mark_all_dirty)
        self._dirty = True
        #: settle counters: ``full_settles`` evaluated every level,
        #: ``noop_settles`` had nothing to do
        self.full_settles = 0
        self.noop_settles = 0
        #: ``(active_mask, live lanes)``: the edge's lane list, rebuilt
        #: only when the mask changes
        self._live: Tuple[int, List[int]] = (0, [])
        #: the compiled level kernel, or None: the numpy tables settle
        self._native = native.load_kernel()
        if self._native is not None:
            n = compiled.n_nets
            flops = compiled.flop_rows
            #: the edge's staged next states; each net's force (or -1)
            self._stage = np.empty(2 * len(flops), dtype=np.uint64)
            self._force_index = np.full(n, -1, dtype=np.int32)
            # raw addresses of buffers this sim, ``compiled`` and the
            # kernels keep and never rebind
            val, known = self.val.ctypes.data, self.known.ctypes.data
            lanes = self.kernels.lane_rows
            self._settle_args = (val, known, self._rails.ctypes.data, n,
                                 self.kernels.rows, lanes.ctypes.data,
                                 len(lanes))
            self._edge_args = (val, known, flops.ctypes.data, len(flops),
                               self._stage.ctypes.data)

    @property
    def kernel(self) -> str:
        """The settle kernel that runs: ``"c"`` or ``"numpy"``."""
        return "numpy" if self._native is None else "c"

    # -- lane lifecycle -----------------------------------------------------
    @property
    def n_lanes(self) -> int:
        return bin(self.active_mask).count("1")

    def active_lanes(self) -> Iterator[int]:
        """Live lane indices, lowest first."""
        mask = self.active_mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def _free_lane(self) -> int:
        free = ~self.active_mask & M64
        if not free:
            raise LaneCapacityError(
                f"all {LANE_CAPACITY} lanes in use; drop or merge a "
                f"lane before forking")
        return (free & -free).bit_length() - 1

    def alloc_lane(self) -> int:
        """Claim a fresh lane: everything X except tie cells, cycle 0."""
        lane = self._free_lane()
        bit = 1 << lane
        self.active_mask |= bit
        self.planes.clear_lane(lane)
        m = np.uint64(bit)
        for kind, out in self.c.ties:
            if kind == "TIE1":
                self.val[out] |= m
            self.known[out] |= m
        self.lane_cycle[lane] = 0
        self.lane_memories[lane] = {}
        self._armed_mask &= ~bit
        # the lane's comb bits are garbage from a previous occupant;
        # the next settle re-derives them
        self._dirty = True
        return lane

    def fork_lane(self, src: int) -> int:
        """Copy lane ``src`` -- planes, memories, cycle, forces, arming --
        into a free lane and return it (Algorithm 1's path fork)."""
        self._check_lane(src)
        lane = self._free_lane()
        bit = 1 << lane
        self.active_mask |= bit
        self.planes.copy_lane(src, lane)
        self.lane_cycle[lane] = self.lane_cycle[src]
        self.lane_memories[lane] = {
            name: _clone_memory(mem)
            for name, mem in self.lane_memories[src].items()}
        src_bit = 1 << src
        if self._armed_mask & src_bit:
            self._armed_mask |= bit
        else:
            self._armed_mask &= ~bit
        for entry in self._forces.values():
            if entry[0] & src_bit:
                entry[0] |= bit
                if entry[1] & src_bit:
                    entry[1] |= bit
                if entry[2] & src_bit:
                    entry[2] |= bit
                self._force_cache = None
        # a settled column copies settled; an unsettled source already
        # set the dirty flag
        return lane

    def drop_lane(self, lane: int) -> None:
        """Release a lane (merge/prune): its bits become masked garbage."""
        self._check_lane(lane)
        bit = 1 << lane
        self.active_mask &= ~bit
        self._armed_mask &= ~bit
        self.lane_memories.pop(lane, None)
        self._strip_forces(bit, reassert=False)

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < LANE_CAPACITY or \
                not (self.active_mask >> lane) & 1:
            raise ValueError(f"lane {lane} is not active")

    def lane_view(self, lane: int) -> "LaneView":
        self._check_lane(lane)
        return LaneView(self, lane)

    # -- per-lane net access --------------------------------------------------
    def lane_set_net(self, lane: int, net: int, value: Logic) -> None:
        bit = 1 << lane
        entry = self._forces.get(net)
        if entry is not None and entry[0] & bit:
            return   # the force owns this lane's bit until release()
        if value.is_known:
            v, k = value is Logic.L1, True
        else:
            v, k = False, False
        word_v = int(self.val[net])
        word_k = int(self.known[net])
        if bool(word_v & bit) != v or bool(word_k & bit) != k:
            self.val[net] = np.uint64((word_v | bit) if v
                                      else (word_v & ~bit))
            self.known[net] = np.uint64((word_k | bit) if k
                                        else (word_k & ~bit))
            self._dirty = True

    def lane_set_codes(self, lane: int, nets: Sequence[int],
                       codes: np.ndarray) -> None:
        """Drive ``nets`` with net ``codes`` in one lane: one masked
        write of the bits that changed.  Nets this lane has forced are
        left alone, as :meth:`lane_set_net` leaves them."""
        idx = np.asarray(nets, dtype=np.intp)
        codes = np.asarray(codes, dtype=CODE_DTYPE)
        if len(idx) != len(codes):
            raise ValueError("bus width mismatch")
        if self._forces and \
                not self._forces.keys().isdisjoint(idx.tolist()):
            bit = 1 << lane
            free = np.array([not self._forces.get(n, (0,))[0] & bit
                             for n in idx.tolist()])
            idx, codes = idx[free], codes[free]
        self._write_column(lane, idx, codes & 1, codes >> 8)

    def lane_set_bus(self, lane: int, nets: Sequence[int],
                     value: LVec) -> None:
        self.lane_set_codes(lane, nets, to_codes(value))

    def _write_column(self, lane: int, idx: np.ndarray, val: np.ndarray,
                      known: np.ndarray) -> None:
        """Write one lane's ``(val, known)`` bits (0/1 per net) of nets
        ``idx``, flipping exactly the bits that differ."""
        sh, one = np.uint64(lane), np.uint64(1)
        flip_v = ((self.val[idx] >> sh) & one) ^ val
        flip_k = ((self.known[idx] >> sh) & one) ^ known
        if flip_v.any() or flip_k.any():
            self.val[idx] ^= flip_v << sh
            self.known[idx] ^= flip_k << sh
            self._dirty = True

    def lane_get_net(self, lane: int, net: int) -> Logic:
        bit = 1 << lane
        if not int(self.known[net]) & bit:
            return Logic.X
        return Logic.L1 if int(self.val[net]) & bit else Logic.L0

    def lane_get_codes(self, lane: int, nets: Sequence[int]) -> np.ndarray:
        """One lane's canonical net codes of ``nets``."""
        sh, one = np.uint64(lane), np.uint64(1)
        known = (self.known[nets] >> sh) & one
        val = (self.val[nets] >> sh) & known
        return (val | known << np.uint64(8)).astype(CODE_DTYPE)

    def lane_get_bus(self, lane: int, nets: Sequence[int]) -> LVec:
        return to_lvec(self.lane_get_codes(lane, nets))

    def mark_all_dirty(self) -> None:
        """Make the next settle evaluate every level (after writing
        :attr:`val` / :attr:`known` directly)."""
        self._dirty = True

    # -- forcing ------------------------------------------------------------
    def lane_force(self, lane: int, net: int, value: Logic) -> None:
        """Pin ``net`` to ``value`` in one lane only (path steering).

        A net outside ``[0, n_nets)`` raises ``IndexError`` and changes
        nothing."""
        if not 0 <= net < self.c.n_nets:
            raise IndexError(f"forced net {net} outside "
                             f"[0, {self.c.n_nets})")
        bit = 1 << lane
        v = value is Logic.L1
        k = value.is_known
        entry = self._forces.setdefault(net, [0, 0, 0])
        entry[0] |= bit
        entry[1] = (entry[1] | bit) if v else (entry[1] & ~bit)
        entry[2] = (entry[2] | bit) if k else (entry[2] & ~bit)
        self._force_cache = None
        word_v = int(self.val[net])
        word_k = int(self.known[net])
        if bool(word_v & bit) != v or bool(word_k & bit) != k:
            self._dirty = True       # the pin takes effect at settle

    def lane_release(self, lane: int, net: Optional[int] = None) -> None:
        """Remove one lane's force on ``net``, or all its forces."""
        bit = 1 << lane
        if net is None:
            self._strip_forces(bit, reassert=True)
            return
        entry = self._forces.get(net)
        if entry is None or not entry[0] & bit:
            return
        entry[0] &= ~bit
        entry[1] &= ~bit
        entry[2] &= ~bit
        if not entry[0]:
            del self._forces[net]
        self._force_cache = None
        self._reassert_driver(net, bit)

    def lane_forced_nets(self, lane: int) -> List[int]:
        bit = 1 << lane
        return [net for net, entry in self._forces.items()
                if entry[0] & bit]

    def _strip_forces(self, lane_bit: int, reassert: bool) -> None:
        released = []
        for net, entry in list(self._forces.items()):
            if not entry[0] & lane_bit:
                continue
            entry[0] &= ~lane_bit
            entry[1] &= ~lane_bit
            entry[2] &= ~lane_bit
            if not entry[0]:
                del self._forces[net]
            released.append(net)
        if released:
            self._force_cache = None
            if reassert:
                for net in released:
                    self._reassert_driver(net, lane_bit)

    def _reassert_driver(self, net: int, lane_bit: int) -> None:
        """After a release the net's driver owns the lane's bit again."""
        if self.c.net_comb_level[net] >= 0:
            self._dirty = True
            return
        drv = self.c.driver[net]
        if drv < 0:
            return
        kind = self.c.netlist.gates[drv].kind
        if kind in ("TIE0", "TIE1"):
            self.lane_set_net(lane_bit.bit_length() - 1, net,
                              Logic.L1 if kind == "TIE1" else Logic.L0)

    def _force_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     set, tuple]:
        """``(nets, keep, rails, levels, c_args)`` of the active forces:
        ``keep`` clears the forced lanes' bits, ``rails`` holds the
        forced ``(zero, one)`` rail bits, and ``levels`` are the comb
        levels that drive a forced net.  Forces are re-asserted once
        after each such level -- pinned before any reader level
        evaluates.  ``c_args`` are the compiled settle's force
        arguments (it applies a force as its output is written)."""
        if self._force_cache is None:
            n = len(self._forces)
            nets = np.fromiter(self._forces.keys(), dtype=np.intp,
                               count=n)
            keep = np.zeros(n, dtype=np.uint64)
            rails = np.zeros((2, n), dtype=np.uint64)
            for i, (lanes, vbits, kbits) in enumerate(self._forces.values()):
                keep[i] = ~lanes & M64
                rails[0, i] = kbits ^ vbits
                rails[1, i] = vbits
            levels = set(self.c.net_comb_level[nets].tolist())
            levels.discard(-1)
            c_args = ()
            if self._native is not None:
                self._force_index[:] = -1
                self._force_index[nets] = np.arange(n, dtype=np.int32)
                c_args = (nets.ctypes.data, keep.ctypes.data,
                          rails[0].ctypes.data, rails[1].ctypes.data, n,
                          self._force_index.ctypes.data)
            self._force_cache = (nets, keep, rails, levels, c_args)
        return self._force_cache

    # -- settling ------------------------------------------------------------
    def settle(self) -> None:
        """Re-settle combinational logic across all lanes at once, one
        lane level table at a time (in one call of the compiled kernel
        where it loads).

        Returns at once (a no-op settle) when no live lane's bit changed
        since the last settle and :meth:`mark_all_dirty` was not called.
        """
        if not self._dirty:
            self.noop_settles += 1
            return
        if self._native is not None:
            self._native.lane_settle(
                *self._settle_args,
                *(self._force_arrays()[4] if self._forces
                  else _NO_FORCES))
            self._dirty = False
            self.full_settles += 1
            return
        n = self.c.n_nets
        flat, rails = self._rails, self._rails2
        val, known = self.val, self.known
        np.bitwise_xor(known, val, out=rails[0, :n])
        rails[1, :n] = val
        if self._forces:
            f_nets, f_keep, f_rails, f_levels, _ = self._force_arrays()
            rails[:, f_nets] = (rails[:, f_nets] & f_keep) | f_rails
        else:
            f_levels = ()
        for lvl, left, right, scatter in self.kernels.tables:
            # the Kleene mux per rail r is the OR of three products:
            # (s_zero & d0_r) | (s_one & d1_r) | (d0_r & d1_r)
            terms = flat[left]
            terms &= flat[right]
            out = terms[0] | terms[1]
            out |= terms[2]
            flat[scatter] = out
            if lvl in f_levels:
                rails[:, f_nets] = (rails[:, f_nets] & f_keep) | f_rails
        val[...] = rails[1, :n]
        np.bitwise_or(rails[0, :n], rails[1, :n], out=known)
        self._dirty = False
        self.full_settles += 1

    def clock_edge(self) -> None:
        """One positive edge for every live lane (staged NBA commit)."""
        if self._native is not None:
            if self._native.lane_edge(*self._edge_args, self.active_mask):
                self._dirty = True
        else:
            self._numpy_edge()
        live = self._live
        if live[0] != self.active_mask:
            live = self._live = (self.active_mask,
                                 list(self.active_lanes()))
        cycles = self.lane_cycle
        for lane in live[1]:
            cycles[lane] += 1

    def _numpy_edge(self) -> None:
        """:meth:`clock_edge`'s planes, one flop kind at a time."""
        val, known = self.val, self.known
        active = np.uint64(self.active_mask)
        staged: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for grp in self.c.flops:
            kind = grp.kind
            out = grp.out
            d = grp.ins[0]
            vd, kd = val[d], known[d]
            if kind in ("DFFE", "DFFER"):
                vq, kq = val[out], known[out]
                e = grp.ins[1]
                ve, ke = val[e], known[e]
                agree = kd & kq & ~(vd ^ vq)
                nv = (ke & ((ve & vd) | (~ve & vq))) | (~ke & agree & vd)
                nk = (ke & ((ve & kd) | (~ve & kq))) | (~ke & agree)
            else:
                nv, nk = vd, kd
            if kind in ("DFFR", "DFFER"):
                r = grp.ins[-1]
                vr, kr = val[r], known[r]
                r_on = kr & vr
                r_off = kr & ~vr
                known_zero = nk & ~nv        # X reset: keep only known-0
                nk = r_on | (r_off & nk) | (~kr & known_zero)
                nv = r_off & nv
            staged.append((out, nv, nk))
        for out, nv, nk in staged:
            if not self._dirty and \
                    (((nv ^ val[out]) | (nk ^ known[out])) & active).any():
                self._dirty = True
            val[out] = nv
            known[out] = nk

    # -- activity ---------------------------------------------------------------
    def lane_arm_activity(self, lane: int) -> None:
        bit = 1 << lane
        self._armed_mask |= bit
        self._blend_prev(np.uint64(bit))

    def _blend_prev(self, mask: np.uint64) -> None:
        inv = ~mask
        self._prev_val &= inv
        self._prev_val |= self.val & mask
        self._prev_known &= inv
        self._prev_known |= self.known & mask

    def record_activity_now(self, lane_bits: Optional[int] = None) -> None:
        """Record toggles/Xs for all armed lanes (or a subset)."""
        mask_int = self._armed_mask if lane_bits is None \
            else self._armed_mask & lane_bits
        if not mask_int:
            return
        mask = np.uint64(mask_int)
        self.ever_x |= ~self.known & mask
        self.toggled |= ((self.val ^ self._prev_val)
                         | (self.known ^ self._prev_known)) & mask
        self._blend_prev(mask)

    def lane_reset_activity(self, lane: int) -> None:
        bit = 1 << lane
        inv = np.uint64(~bit & M64)
        self.toggled &= inv
        self.ever_x &= inv
        self._armed_mask &= ~bit

    def lane_planes(self, lane: int) -> Tuple[np.ndarray, np.ndarray]:
        """This lane's ``(val, known)`` as bool arrays."""
        return (column_bits(self.val, lane),
                column_bits(self.known, lane))

    def lane_activity(self, lane: int) -> Tuple[np.ndarray, np.ndarray]:
        """This lane's ``(toggled, ever_x)`` as bool arrays."""
        return (column_bits(self.toggled, lane),
                column_bits(self.ever_x, lane))

    def lane_exercised(self, lane: int) -> np.ndarray:
        return column_bits(self.toggled | self.ever_x, lane)

    # -- snapshots -----------------------------------------------------------
    def lane_snapshot(self, lane: int,
                      pc: Optional[int] = None) -> SimState:
        """One lane's state in the exact serial SimState layout."""
        sn = self.c.state_nets
        sh, one = np.uint64(lane), np.uint64(1)
        val = ((self.val[sn] >> sh) & one).astype(bool)
        known = ((self.known[sn] >> sh) & one).astype(bool)
        return SimState(
            net_val=val & known,
            net_known=known,
            memories={name: mem.snapshot()
                      for name, mem in self.lane_memories[lane].items()},
            cycle=self.lane_cycle[lane],
            pc=pc,
        )

    def lane_restore(self, lane: int, state: SimState,
                     settle: bool = True) -> None:
        """Restore a (serial-compatible) snapshot into one lane.

        Active forces on the lane are dropped *before* the
        :class:`ForcedRestoreWarning` is issued, so even a
        warnings-as-errors escalation cannot leave stale pins behind.
        With ``settle=False`` the caller batches the re-settle across
        several lane restores (the wave-setup fast path).
        """
        sn = self.c.state_nets
        if state.net_val.shape != sn.shape:
            raise ValueError("snapshot does not match this netlist")
        bit = 1 << lane
        forced = self.lane_forced_nets(lane)
        if forced:
            self.lane_release(lane)
            warnings.warn(
                f"restore() with {len(forced)} active force(s) on lane "
                f"{lane}: forces do not survive a restore; re-apply "
                f"them after restoring", ForcedRestoreWarning,
                stacklevel=2)
        # the settle's dual rails need val inside known
        self._write_column(lane, sn, state.net_val & state.net_known,
                           state.net_known)
        memories = self.lane_memories[lane]
        for name, snap in state.memories.items():
            memories[name].restore(snap)
        self.lane_cycle[lane] = state.cycle
        if settle:
            self.settle()
        if self._armed_mask & bit:
            self._blend_prev(np.uint64(bit))


class LaneView:
    """CycleSim-compatible facade over one lane of a BatchCycleSim.

    Harnesses and targets drive a lane through this view exactly as
    they would a serial :class:`~repro.sim.cycle_sim.CycleSim`.  Note
    that :meth:`settle` and :meth:`clock_edge` are *lane-global* -- all
    live lanes advance in lockstep (which is the point); per-lane reads,
    writes, forces, activity and snapshots touch only this lane.
    """

    __slots__ = ("b", "lane")

    def __init__(self, batch: BatchCycleSim, lane: int):
        self.b = batch
        self.lane = lane

    # -- shared structure ---------------------------------------------------
    @property
    def c(self) -> CompiledNetlist:
        return self.b.c

    @property
    def cycle(self) -> int:
        return self.b.lane_cycle[self.lane]

    @property
    def memories(self) -> Dict[str, XMemory]:
        return self.b.lane_memories[self.lane]

    def attach_memory(self, memory: XMemory) -> XMemory:
        memories = self.b.lane_memories[self.lane]
        if memory.name in memories:
            raise ValueError(f"memory {memory.name!r} already attached")
        memories[memory.name] = memory
        return memory

    # -- net access -----------------------------------------------------------
    def set_net(self, net: int, value: Logic) -> None:
        self.b.lane_set_net(self.lane, net, value)

    def get_net(self, net: int) -> Logic:
        return self.b.lane_get_net(self.lane, net)

    def set_bus(self, nets: Sequence[int], value: LVec) -> None:
        self.b.lane_set_bus(self.lane, nets, value)

    def get_bus(self, nets: Sequence[int]) -> LVec:
        return self.b.lane_get_bus(self.lane, nets)

    def set_codes(self, nets: Sequence[int], codes: np.ndarray) -> None:
        self.b.lane_set_codes(self.lane, nets, codes)

    def get_codes(self, nets: Sequence[int]) -> np.ndarray:
        return self.b.lane_get_codes(self.lane, nets)

    def set_input(self, name: str, value) -> None:
        nl = self.b.c.netlist
        if isinstance(value, LVec):
            self.set_bus(nl.bus(name, value.width), value)
        else:
            level = value if isinstance(value, Logic) else \
                (Logic.L1 if value else Logic.L0)
            self.set_net(nl.net_index(name), level)

    # -- value planes (per-lane bool views) ---------------------------------
    @property
    def val(self) -> np.ndarray:
        return self.b.lane_planes(self.lane)[0]

    @property
    def known(self) -> np.ndarray:
        return self.b.lane_planes(self.lane)[1]

    @property
    def toggled(self) -> np.ndarray:
        return self.b.lane_activity(self.lane)[0]

    @property
    def ever_x(self) -> np.ndarray:
        return self.b.lane_activity(self.lane)[1]

    # -- lockstep stepping ----------------------------------------------------
    def settle(self) -> None:
        self.b.settle()

    def clock_edge(self) -> None:
        self.b.clock_edge()

    def mark_all_dirty(self) -> None:
        self.b.mark_all_dirty()

    def step(self, drive: Optional[Callable[["LaneView"], None]] = None,
             on_edge: Optional[Callable[["LaneView"], None]] = None
             ) -> None:
        """One clock cycle (lane-global settle/edge; see class docs)."""
        batch = self.b
        batch.settle()
        if drive is not None:
            batch.record_activity_now(1 << self.lane)
            drive(self)
            batch.settle()
        batch.record_activity_now(1 << self.lane)
        if on_edge is not None:
            on_edge(self)
        batch.clock_edge()

    # -- forcing --------------------------------------------------------------
    def force(self, net: int, value: Logic) -> None:
        self.b.lane_force(self.lane, net, value)

    def release(self, net: Optional[int] = None) -> None:
        self.b.lane_release(self.lane, net)

    # -- activity -------------------------------------------------------------
    def arm_activity(self) -> None:
        self.b.lane_arm_activity(self.lane)

    def record_activity_now(self) -> None:
        self.b.record_activity_now(1 << self.lane)

    def exercised_nets(self) -> np.ndarray:
        return self.b.lane_exercised(self.lane)

    def reset_activity(self) -> None:
        self.b.lane_reset_activity(self.lane)

    # -- snapshots ------------------------------------------------------------
    def snapshot(self, pc: Optional[int] = None) -> SimState:
        return self.b.lane_snapshot(self.lane, pc=pc)

    def restore(self, state: SimState) -> None:
        self.b.lane_restore(self.lane, state)
