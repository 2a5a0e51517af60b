"""Unit tests for the bit-packed lane-parallel simulator.

The contract under test: every lane of a :class:`BatchCycleSim`
behaves exactly like a fresh serial :class:`CycleSim` fed the same
stimulus -- values, X propagation, forces, activity planes, snapshots.
The serial engine is the oracle throughout.
"""

import itertools
import warnings

import numpy as np
import pytest

from repro.logic import Logic, LVec
from repro.logic.tables import COMB_EVAL
from repro.logic.value import coerce
from repro.netlist import Netlist
from repro.rtl import Design
from repro.sim import (LANE_CAPACITY, BatchCycleSim, CompiledNetlist,
                       CycleSim, ForcedRestoreWarning, LaneCapacityError,
                       XMemory, batch_kernels_for, compile_netlist)
from repro.sim.batch_kernels import reference_sweep
from repro.workloads import built_core

LOGICS = (Logic.L0, Logic.L1, Logic.X)
#: every comb gate of :func:`all_kinds_netlist` and its input pins
KIND_PINS = {"AND": "ab", "OR": "ab", "XOR": "ab", "NAND": "ab",
             "NOR": "ab", "XNOR": "ab", "NOT": "a", "BUF": "b",
             "MUX2": "abs"}


def all_kinds_netlist():
    """One gate of every supported comb kind, shared inputs."""
    nl = Netlist("k")
    a, b, s = (nl.add_net(n) for n in ("a", "b", "s"))
    for n in (a, b, s):
        nl.mark_input(n)
    for kind in ("AND", "OR", "XOR", "NAND", "NOR", "XNOR"):
        nl.add_gate(f"g_{kind}", kind, [a, b], nl.add_net(f"y_{kind}"))
    nl.add_gate("g_NOT", "NOT", [a], nl.add_net("y_NOT"))
    nl.add_gate("g_BUF", "BUF", [b], nl.add_net("y_BUF"))
    nl.add_gate("g_MUX2", "MUX2", [a, b, s], nl.add_net("y_MUX2"))
    nl.add_gate("g_T0", "TIE0", [], nl.add_net("y_T0"))
    nl.add_gate("g_T1", "TIE1", [], nl.add_net("y_T1"))
    return nl


def counter_netlist():
    d = Design("cnt")
    r = d.reg(4, "cnt", reset=True)
    s, _ = r.q.add(d.const(1, 4))
    r.drive(s)
    d.output("y", r.q)
    return d.finalize()


class TestKernelParity:
    def test_lane_tables_match_serial_on_every_kind(self):
        """The lane level tables and the serial gate table are the same
        four-valued function, for every input combination."""
        nl = all_kinds_netlist()
        compiled = CompiledNetlist(nl)
        serial = CycleSim(compiled)
        batch = BatchCycleSim(compiled)
        lane = batch.alloc_lane()
        a, b, s = (nl.net_index(n) for n in ("a", "b", "s"))
        outs = [nl.net_index(f"y_{k}") for k in
                ("AND", "OR", "XOR", "NAND", "NOR", "XNOR",
                 "NOT", "BUF", "MUX2", "T0", "T1")]
        for va in LOGICS:
            for vb in LOGICS:
                for vs in LOGICS:
                    for net, v in ((a, va), (b, vb), (s, vs)):
                        serial.set_net(net, v)
                        batch.lane_set_net(lane, net, v)
                    serial.settle()
                    batch.settle()
                    for out in outs:
                        assert batch.lane_get_net(lane, out) is \
                            serial.get_net(out), \
                            (nl.net_name(out), va, vb, vs)

    def test_kernel_cache_keyed_by_compiled_identity(self):
        nl = all_kinds_netlist()
        c1 = CompiledNetlist(nl)
        assert batch_kernels_for(c1) is batch_kernels_for(c1)
        assert batch_kernels_for(c1, 1) is batch_kernels_for(c1)
        assert batch_kernels_for(CompiledNetlist(nl)) is not \
            batch_kernels_for(c1)
        with pytest.raises(ValueError):
            batch_kernels_for(c1, 2)     # the planes are one word

    def test_divergent_lanes_settle_independently(self):
        """64 lanes, one of the 27 input combinations each (every
        combination at least twice), one shared settle: every comb
        kind's output in every lane is its COMB_EVAL value."""
        nl = all_kinds_netlist()
        batch = BatchCycleSim(CompiledNetlist(nl))
        pins = {p: nl.net_index(p) for p in "abs"}
        combos = [dict(zip("abs", ins)) for ins in
                  itertools.product(LOGICS, repeat=3)]
        for lane in range(LANE_CAPACITY):
            assert batch.alloc_lane() == lane
            for pin, value in combos[lane % len(combos)].items():
                batch.lane_set_net(lane, pins[pin], value)
        batch.settle()
        for lane in range(LANE_CAPACITY):
            combo = combos[lane % len(combos)]
            for kind, kind_pins in KIND_PINS.items():
                want = COMB_EVAL[kind]([combo[p] for p in kind_pins])
                got = batch.lane_get_net(lane, nl.net_index(f"y_{kind}"))
                assert got is want, (kind, lane, combo)
            assert batch.lane_get_net(lane, nl.net_index("y_T0")) is \
                Logic.L0
            assert batch.lane_get_net(lane, nl.net_index("y_T1")) is \
                Logic.L1

    @pytest.mark.parametrize("design", ["bm32", "omsp430", "dr5"])
    def test_lane_tables_match_reference_sweep_on_random_planes(
            self, design):
        """On X-laden random planes (``val`` inside ``known``) one settle
        equals the fused per-group reference sweep bit for bit."""
        compiled = compile_netlist(built_core(design)[0])
        batch = BatchCycleSim(compiled)
        for _ in range(LANE_CAPACITY):
            batch.alloc_lane()
        rng = np.random.default_rng(1)
        shape = batch.known.shape
        batch.known[...] = rng.integers(0, 2**64, shape, dtype=np.uint64)
        batch.val[...] = rng.integers(0, 2**64, shape, dtype=np.uint64) \
            & batch.known
        val, known = batch.val.copy(), batch.known.copy()
        batch.mark_all_dirty()
        batch.settle()
        reference_sweep(compiled)(val, known)
        assert (batch.val == val).all()
        assert (batch.known == known).all()


class TestLaneLifecycle:
    def test_fork_at_capacity_raises(self):
        nl = counter_netlist()
        batch = BatchCycleSim(CompiledNetlist(nl))
        first = batch.alloc_lane()
        for _ in range(LANE_CAPACITY - 1):
            batch.fork_lane(first)
        assert batch.n_lanes == LANE_CAPACITY
        with pytest.raises(LaneCapacityError):
            batch.fork_lane(first)
        with pytest.raises(LaneCapacityError):
            batch.alloc_lane()
        # dropping one lane frees capacity again
        batch.drop_lane(first)
        assert batch.alloc_lane() is not None

    def test_merge_down_to_one_lane_keeps_state(self):
        nl = counter_netlist()
        compiled = CompiledNetlist(nl)
        batch = BatchCycleSim(compiled)
        rst = nl.net_index("rst")
        y = nl.bus("y", 4)
        lanes = [batch.alloc_lane() for _ in range(8)]
        for lane in lanes:
            batch.lane_set_net(lane, rst, Logic.L1)
        batch.settle()
        batch.clock_edge()
        for lane in lanes:
            batch.lane_set_net(lane, rst, Logic.L0)
        # advance lane i by i extra cycles (drop the others as we go)
        survivor = lanes[3]
        for step in range(5):
            batch.settle()
            batch.clock_edge()
        for lane in lanes:
            if lane != survivor:
                batch.drop_lane(lane)
        assert batch.n_lanes == 1
        batch.settle()
        assert batch.lane_get_bus(survivor, y).to_int() == 5
        assert batch.lane_cycle[survivor] == 6

    def test_dropped_lane_slot_is_recycled_clean(self):
        """A recycled lane must not inherit its previous occupant's
        values, forces, memories, or activity."""
        nl = counter_netlist()
        compiled = CompiledNetlist(nl)
        batch = BatchCycleSim(compiled)
        rst = nl.net_index("rst")
        y = nl.bus("y", 4)
        lane = batch.alloc_lane()
        view = batch.lane_view(lane)
        view.attach_memory(XMemory(4, 8, name="m"))
        batch.lane_arm_activity(lane)
        batch.lane_set_net(lane, rst, Logic.L1)
        batch.settle()
        batch.clock_edge()
        batch.lane_set_net(lane, rst, Logic.L0)
        batch.lane_force(lane, rst, Logic.L0)
        for _ in range(3):
            batch.settle()
            batch.record_activity_now()
            batch.clock_edge()
        batch.drop_lane(lane)
        lane2 = batch.alloc_lane()
        assert lane2 == lane                    # lowest slot reused
        assert batch.lane_memories[lane2] == {}
        assert batch.lane_forced_nets(lane2) == []
        assert batch.lane_cycle[lane2] == 0
        toggled, ever_x = batch.lane_activity(lane2)
        assert not toggled.any() and not ever_x.any()
        # fresh lane is all-X (bar ties): the counter output is unknown
        assert batch.lane_get_net(lane2, y[0]) is Logic.X

    def test_fork_copies_state_and_diverges(self):
        nl = counter_netlist()
        batch = BatchCycleSim(CompiledNetlist(nl))
        rst = nl.net_index("rst")
        y = nl.bus("y", 4)
        src = batch.alloc_lane()
        batch.lane_view(src).attach_memory(XMemory(4, 8, name="m"))
        batch.lane_memories[src]["m"].load_word(1, 0x5A)
        batch.lane_set_net(src, rst, Logic.L1)
        batch.settle()
        batch.clock_edge()
        batch.lane_set_net(src, rst, Logic.L0)
        batch.settle()
        batch.clock_edge()          # counter: 1
        child = batch.fork_lane(src)
        assert batch.lane_cycle[child] == batch.lane_cycle[src]
        assert batch.lane_memories[child]["m"].read_concrete(1) \
            .to_int() == 0x5A
        # memories are clones, not aliases
        batch.lane_memories[child]["m"].load_word(1, 0x11)
        assert batch.lane_memories[src]["m"].read_concrete(1) \
            .to_int() == 0x5A
        # hold the child in reset; the parent keeps counting
        batch.lane_set_net(child, rst, Logic.L1)
        batch.settle()
        batch.clock_edge()
        batch.settle()
        assert batch.lane_get_bus(src, y).to_int() == 2
        assert batch.lane_get_bus(child, y).to_int() == 0


class TestSerialParity:
    def test_lockstep_counter_matches_serial_per_lane(self):
        """Four lanes with divergent reset timing, each checked against
        a fresh serial CycleSim fed the identical stimulus."""
        nl = counter_netlist()
        compiled = CompiledNetlist(nl)
        batch = BatchCycleSim(compiled)
        rst = nl.net_index("rst")
        # lane i holds reset for i+1 cycles, then runs free
        release_at = [1, 2, 3, 5]
        lanes = [batch.alloc_lane() for _ in release_at]
        serials = [CycleSim(compiled) for _ in release_at]
        for lane, serial in zip(lanes, serials):
            batch.lane_set_net(lane, rst, Logic.L1)
            serial.set_net(rst, Logic.L1)
        for cycle in range(8):
            for lane, serial, rel in zip(lanes, serials, release_at):
                if cycle == rel:
                    batch.lane_set_net(lane, rst, Logic.L0)
                    serial.set_net(rst, Logic.L0)
            batch.settle()
            batch.clock_edge()
            for serial in serials:
                serial.settle()
                serial.clock_edge()
        batch.settle()
        for lane, serial in zip(lanes, serials):
            serial.settle()
            val, known = batch.lane_planes(lane)
            assert (val == serial.val).all()
            assert (known == serial.known).all()

    def test_x_propagation_parity_per_lane(self):
        """An X-reset lane must reproduce serial X propagation exactly
        while a concrete sibling lane stays fully known."""
        nl = counter_netlist()
        compiled = CompiledNetlist(nl)
        batch = BatchCycleSim(compiled)
        rst = nl.net_index("rst")
        lane_x = batch.alloc_lane()
        lane_c = batch.alloc_lane()
        batch.lane_set_net(lane_x, rst, Logic.X)
        batch.lane_set_net(lane_c, rst, Logic.L1)
        serial_x = CycleSim(compiled)
        serial_x.set_net(rst, Logic.X)
        for _ in range(3):
            batch.settle()
            batch.clock_edge()
            serial_x.settle()
            serial_x.clock_edge()
        batch.settle()
        serial_x.settle()
        val_x, known_x = batch.lane_planes(lane_x)
        assert (known_x == serial_x.known).all()
        assert (val_x == serial_x.val).all()
        # the concrete lane is unpolluted by its sibling's Xs
        y = nl.bus("y", 4)
        assert batch.lane_get_bus(lane_c, y).to_int() == 0

    def test_activity_planes_match_serial(self):
        nl = counter_netlist()
        compiled = CompiledNetlist(nl)
        batch = BatchCycleSim(compiled)
        serial = CycleSim(compiled)
        rst = nl.net_index("rst")
        lane = batch.alloc_lane()
        batch.lane_set_net(lane, rst, Logic.L1)
        serial.set_net(rst, Logic.L1)
        batch.settle()
        batch.clock_edge()
        serial.settle()
        serial.clock_edge()
        batch.lane_set_net(lane, rst, Logic.L0)
        serial.set_net(rst, Logic.L0)
        batch.settle()
        serial.settle()
        batch.lane_arm_activity(lane)
        serial.arm_activity()
        for _ in range(3):
            batch.settle()
            batch.record_activity_now()
            batch.clock_edge()
            serial.settle()
            serial.record_activity_now()
            serial.clock_edge()
        batch.settle()
        batch.record_activity_now()
        serial.settle()
        serial.record_activity_now()
        toggled, ever_x = batch.lane_activity(lane)
        assert (toggled == serial.toggled).all()
        assert (ever_x == serial.ever_x).all()
        assert (batch.lane_exercised(lane) ==
                serial.exercised_nets()).all()

    def test_per_lane_forces_are_isolated(self):
        nl = all_kinds_netlist()
        compiled = CompiledNetlist(nl)
        batch = BatchCycleSim(compiled)
        a, b = nl.net_index("a"), nl.net_index("b")
        y = nl.net_index("y_AND")
        l0, l1 = batch.alloc_lane(), batch.alloc_lane()
        for lane in (l0, l1):
            batch.lane_set_net(lane, a, Logic.L1)
            batch.lane_set_net(lane, b, Logic.L1)
        batch.lane_force(l0, y, Logic.L0)
        batch.settle()
        assert batch.lane_get_net(l0, y) is Logic.L0    # pinned
        assert batch.lane_get_net(l1, y) is Logic.L1    # driven
        # release: the driver owns lane 0's bit again
        batch.lane_release(l0, y)
        batch.settle()
        assert batch.lane_get_net(l0, y) is Logic.L1
        assert batch.lane_forced_nets(l0) == []


class TestSnapshotRestore:
    def _run_serial(self, compiled, nl, cycles):
        serial = CycleSim(compiled)
        serial.attach_memory(XMemory(4, 8, name="m"))
        rst = nl.net_index("rst")
        serial.set_net(rst, Logic.L1)
        serial.step()
        serial.set_net(rst, Logic.L0)
        for _ in range(cycles):
            serial.step()
        return serial

    def test_serial_snapshot_restores_into_a_lane(self):
        """The interop the batched executor depends on: a snapshot
        taken by the *serial* engine restores into a batch lane and the
        lane continues exactly where the serial sim would have."""
        nl = counter_netlist()
        compiled = CompiledNetlist(nl)
        serial = self._run_serial(compiled, nl, 3)
        serial.memories["m"].load_word(2, 0xAB)
        snap = serial.snapshot(pc=7)

        batch = BatchCycleSim(compiled)
        lane = batch.alloc_lane()
        batch.lane_view(lane).attach_memory(XMemory(4, 8, name="m"))
        batch.lane_restore(lane, snap)
        assert batch.lane_cycle[lane] == snap.cycle
        assert batch.lane_memories[lane]["m"].read_concrete(2) \
            .to_int() == 0xAB
        # both continue for two cycles and agree on every net
        for _ in range(2):
            batch.settle()
            batch.clock_edge()
            serial.settle()
            serial.clock_edge()
        batch.settle()
        serial.settle()
        val, known = batch.lane_planes(lane)
        assert (val == serial.val).all()
        assert (known == serial.known).all()

    def test_lane_snapshot_restores_into_serial(self):
        nl = counter_netlist()
        compiled = CompiledNetlist(nl)
        batch = BatchCycleSim(compiled)
        lane = batch.alloc_lane()
        view = batch.lane_view(lane)
        view.attach_memory(XMemory(4, 8, name="m"))
        rst = nl.net_index("rst")
        view.set_net(rst, Logic.L1)
        view.step()
        view.set_net(rst, Logic.L0)
        for _ in range(4):
            view.step()
        snap = view.snapshot(pc=3)
        serial = CycleSim(compiled)
        serial.attach_memory(XMemory(4, 8, name="m"))
        serial.restore(snap)
        serial.settle()
        batch.settle()
        val, known = batch.lane_planes(lane)
        assert (val == serial.val).all()
        assert (known == serial.known).all()
        assert serial.cycle == batch.lane_cycle[lane]

    def test_restore_mismatched_shape_rejected(self):
        nl = counter_netlist()
        batch = BatchCycleSim(CompiledNetlist(nl))
        lane = batch.alloc_lane()
        other = all_kinds_netlist()
        other_sim = CycleSim(CompiledNetlist(other))
        with pytest.raises(ValueError):
            batch.lane_restore(lane, other_sim.snapshot())

    def test_lane_restore_drops_forces_before_warning(self):
        """Batch twin of the serial regression: under -W error the
        raise must not leave the lane's pins (or force cache) live."""
        nl = all_kinds_netlist()
        batch = BatchCycleSim(CompiledNetlist(nl))
        lane = batch.alloc_lane()
        a, b = nl.net_index("a"), nl.net_index("b")
        y = nl.net_index("y_AND")
        batch.lane_set_net(lane, a, Logic.L1)
        batch.lane_set_net(lane, b, Logic.L1)
        batch.settle()
        snap = batch.lane_snapshot(lane)
        batch.lane_force(lane, y, Logic.L0)
        batch.settle()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ForcedRestoreWarning):
                batch.lane_restore(lane, snap)
        assert batch.lane_forced_nets(lane) == []
        batch.settle()
        assert batch.lane_get_net(lane, y) is Logic.L1   # no phantom pin

    def test_restore_into_mid_run_batch_leaves_siblings_alone(self):
        """lane_restore touches exactly one bit column: a sibling lane
        mid-count must be unaffected by the restore's dirty cone."""
        nl = counter_netlist()
        compiled = CompiledNetlist(nl)
        batch = BatchCycleSim(compiled)
        rst = nl.net_index("rst")
        y = nl.bus("y", 4)
        a_lane, b_lane = batch.alloc_lane(), batch.alloc_lane()
        for lane in (a_lane, b_lane):
            batch.lane_set_net(lane, rst, Logic.L1)
        batch.settle()
        batch.clock_edge()
        for lane in (a_lane, b_lane):
            batch.lane_set_net(lane, rst, Logic.L0)
        for _ in range(4):
            batch.settle()
            batch.clock_edge()
        batch.settle()
        snap = batch.lane_snapshot(a_lane)        # counter == 4
        for _ in range(2):
            batch.settle()
            batch.clock_edge()
        batch.settle()
        assert batch.lane_get_bus(a_lane, y).to_int() == 6
        batch.lane_restore(a_lane, snap)
        assert batch.lane_get_bus(a_lane, y).to_int() == 4
        assert batch.lane_get_bus(b_lane, y).to_int() == 6


class TestLaneView:
    def test_view_step_matches_serial_step(self):
        nl = counter_netlist()
        compiled = CompiledNetlist(nl)
        batch = BatchCycleSim(compiled)
        view = batch.lane_view(batch.alloc_lane())
        serial = CycleSim(compiled)
        for sim in (view, serial):
            sim.set_input("rst", Logic.L1)
            sim.step()
            sim.set_input("rst", Logic.L0)
            sim.arm_activity()
            for _ in range(3):
                sim.step()
            sim.settle()
        assert view.get_bus(nl.bus("y", 4)).to_int() == \
            serial.get_bus(nl.bus("y", 4)).to_int() == 3
        assert (view.val == serial.val).all()
        assert (view.known == serial.known).all()
        assert (view.toggled == serial.toggled).all()
        assert (view.exercised_nets() == serial.exercised_nets()).all()

    def test_view_rejects_duplicate_memory(self):
        nl = counter_netlist()
        batch = BatchCycleSim(CompiledNetlist(nl))
        view = batch.lane_view(batch.alloc_lane())
        view.attach_memory(XMemory(4, 8, name="m"))
        with pytest.raises(ValueError):
            view.attach_memory(XMemory(4, 8, name="m"))

    def test_view_of_inactive_lane_rejected(self):
        nl = counter_netlist()
        batch = BatchCycleSim(CompiledNetlist(nl))
        lane = batch.alloc_lane()
        batch.drop_lane(lane)
        with pytest.raises(ValueError):
            batch.lane_view(lane)

    def test_set_bus_and_get_bus_roundtrip(self):
        nl = all_kinds_netlist()
        batch = BatchCycleSim(CompiledNetlist(nl))
        view = batch.lane_view(batch.alloc_lane())
        nets = [nl.net_index("a"), nl.net_index("b"), nl.net_index("s")]
        vec = LVec([Logic.L1, Logic.X, Logic.L0])
        view.set_bus(nets, vec)
        got = view.get_bus(nets)
        assert [g is v for g, v in zip(got.bits, vec.bits)] == [True] * 3


def bus_netlist(width=12):
    """``width`` primary inputs ``d[i]`` and an AND chain over them."""
    nl = Netlist("bus")
    ins = [nl.add_net(f"d[{i}]") for i in range(width)]
    for net in ins:
        nl.mark_input(net)
    acc = ins[0]
    for i, net in enumerate(ins[1:]):
        out = nl.add_net(f"and{i}")
        nl.add_gate(f"g{i}", "AND", [acc, net], out)
        acc = out
    nl.mark_output(acc)
    return nl


class TestLaneSetBus:
    def test_matches_per_bit_lane_set_net(self):
        """Random X-laden buses, forces in the written lane and in other
        lanes, lanes from the lowest to the highest bit: one masked bus
        write leaves the planes exactly as per-bit writes do."""
        nl = bus_netlist()
        compiled = CompiledNetlist(nl)
        nets = nl.bus("d", 12)
        bus, bits = (BatchCycleSim(compiled) for _ in range(2))
        for sim in (bus, bits):
            for _ in range(LANE_CAPACITY):
                sim.alloc_lane()
            sim.lane_force(31, nets[2], Logic.L1)
            sim.lane_force(32, nets[2], Logic.X)
            sim.lane_force(32, nets[7], Logic.L0)
            sim.lane_force(1, nets[7], Logic.L1)
        rng = np.random.default_rng(5)
        for lane in (0, 1, 31, 32, 33, 62, 63):
            for _ in range(4):
                value = LVec([LOGICS[i] for i in rng.integers(0, 3, 12)])
                bus.lane_set_bus(lane, nets, value)
                for net, level in zip(nets, value.bits):
                    bits.lane_set_net(lane, net, level)
                assert (bus.val == bits.val).all()
                assert (bus.known == bits.known).all()
        bus.settle()
        bits.settle()
        assert (bus.val == bits.val).all()
        assert (bus.known == bits.known).all()

    def test_identical_rewrite_leaves_next_settle_a_noop(self):
        nl = bus_netlist()
        batch = BatchCycleSim(CompiledNetlist(nl))
        lane = [batch.alloc_lane() for _ in range(50)][-1]
        nets = nl.bus("d", 12)
        value = LVec.from_str("1X0110X10011")
        batch.lane_set_bus(lane, nets, value)
        batch.settle()
        full = batch.full_settles
        batch.lane_set_bus(lane, nets, value)
        batch.settle()
        assert (batch.full_settles, batch.noop_settles) == (full, 1)
        assert batch.lane_get_bus(lane, nets) == value

    def test_width_mismatch_rejected(self):
        nl = bus_netlist()
        batch = BatchCycleSim(CompiledNetlist(nl))
        lane = batch.alloc_lane()
        with pytest.raises(ValueError):
            batch.lane_set_bus(lane, nl.bus("d", 12), LVec.zeros(11))


class TestSettleCounters:
    """One dirty flag: a settle evaluates every level only after a bit
    of a live lane changed, and is otherwise a noop that leaves the
    planes untouched."""

    LANE = 40           # a live lane past the low ones

    def settled(self):
        """A counter with lanes 0-45 counting, settled."""
        nl = counter_netlist()
        batch = BatchCycleSim(CompiledNetlist(nl))
        rst = nl.net_index("rst")
        for _ in range(46):
            batch.lane_set_net(batch.alloc_lane(), rst, Logic.L1)
        batch.settle()
        batch.clock_edge()
        for lane in batch.active_lanes():
            batch.lane_set_net(lane, rst, Logic.L0)
        batch.settle()
        return nl, batch

    def settle_kinds(self, batch, action):
        """``(full, noop)`` settles of one settle after ``action()``."""
        full, noop = batch.full_settles, batch.noop_settles
        action()
        batch.settle()
        return batch.full_settles - full, batch.noop_settles - noop

    def comb_net(self, batch):
        return int(np.flatnonzero(batch.c.net_comb_level >= 0)[0])

    def test_unchanged_settle_is_a_noop_and_leaves_the_planes(self):
        _nl, batch = self.settled()
        before = [arr.copy() for arr in batch.planes.arrays()]
        assert self.settle_kinds(batch, lambda: None) == (0, 1)
        for old, new in zip(before, batch.planes.arrays()):
            assert (old == new).all()

    def test_fork_of_a_settled_lane_keeps_the_noop(self):
        _nl, batch = self.settled()
        assert self.settle_kinds(
            batch, lambda: batch.fork_lane(self.LANE)) == (0, 1)

    def test_alloc_lane_makes_the_next_settle_full(self):
        _nl, batch = self.settled()
        assert self.settle_kinds(batch, batch.alloc_lane) == (1, 0)

    @pytest.mark.parametrize("action", [
        "lane_set_net", "lane_set_bus", "lane_force", "lane_release",
        "clock_edge", "lane_restore"])
    def test_live_lane_change_makes_the_next_settle_full(self, action):
        nl, batch = self.settled()
        lane, rst = self.LANE, nl.net_index("rst")
        comb = self.comb_net(batch)
        flipped = Logic.L1 if batch.lane_get_net(lane, comb) is Logic.L0 \
            else Logic.L0
        if action == "lane_release":
            batch.lane_force(lane, comb, flipped)
            batch.settle()
        snap = batch.lane_snapshot(lane)
        if action == "lane_restore":
            batch.clock_edge()
            batch.settle()
        do = {
            "lane_set_net": lambda: batch.lane_set_net(lane, rst, Logic.X),
            "lane_set_bus": lambda: batch.lane_set_bus(
                lane, [rst], LVec([Logic.L1])),
            "lane_force": lambda: batch.lane_force(lane, comb, flipped),
            "lane_release": lambda: batch.lane_release(lane, comb),
            "clock_edge": batch.clock_edge,
            "lane_restore": lambda: batch.lane_restore(lane, snap,
                                                       settle=False),
        }[action]
        assert self.settle_kinds(batch, do) == (1, 0)

    def test_edge_that_changes_only_dead_lanes_is_a_noop(self):
        nl, batch = self.settled()
        rst = nl.net_index("rst")
        for lane in list(batch.active_lanes()):
            if lane == self.LANE:
                batch.drop_lane(lane)        # still counting, now dead
            else:
                batch.lane_set_net(lane, rst, Logic.L1)
        batch.settle()
        batch.clock_edge()                  # live lanes reset to 0
        batch.settle()
        assert self.settle_kinds(batch, batch.clock_edge) == (0, 1)
