"""Unit tests for the vectorized cycle engine."""

import itertools

import numpy as np
import pytest

from repro.logic import Logic, LVec
from repro.logic.tables import COMB_EVAL
from repro.netlist import COMB_KINDS, LIBRARY, SEQ_KINDS, TIE_KINDS, Netlist
from repro.rtl import Design, mux
from repro.sim import (CompiledNetlist, CycleSim, EventSim,
                       ForcedRestoreWarning, XMemory, compile_netlist)
from repro.sim.cycle_sim import FLOP_KINDS, TABLE_KINDS


def comb_xor_netlist():
    nl = Netlist("c")
    a = nl.add_net("a")
    b = nl.add_net("b")
    y = nl.add_net("y")
    nl.mark_input(a)
    nl.mark_input(b)
    nl.add_gate("g", "XOR", [a, b], y)
    nl.mark_output(y)
    return nl


class TestCombEvaluation:
    @pytest.mark.parametrize("kind,table", [
        ("AND", {(0, 0): "0", (0, 1): "0", (1, 1): "1", (0, "x"): "0",
                 (1, "x"): "x", ("x", "x"): "x"}),
        ("OR", {(0, 0): "0", (1, 0): "1", (1, "x"): "1", (0, "x"): "x"}),
        ("XOR", {(1, 1): "0", (1, 0): "1", (1, "x"): "x",
                 ("x", "x"): "x"}),
        ("NAND", {(1, 1): "0", (0, "x"): "1", (1, "x"): "x"}),
        ("NOR", {(0, 0): "1", (1, "x"): "0", (0, "x"): "x"}),
        ("XNOR", {(1, 1): "1", (1, "x"): "x"}),
    ])
    def test_two_input_kinds(self, kind, table):
        nl = Netlist("k")
        a = nl.add_net("a")
        b = nl.add_net("b")
        y = nl.add_net("y")
        nl.mark_input(a)
        nl.mark_input(b)
        nl.add_gate("g", kind, [a, b], y)
        nl.mark_output(y)
        sim = CycleSim(CompiledNetlist(nl))
        from repro.logic.value import coerce
        for (va, vb), expect in table.items():
            sim.set_net(a, coerce(va))
            sim.set_net(b, coerce(vb))
            sim.settle()
            assert sim.get_net(y) is coerce(expect), (kind, va, vb)

    def test_not_buf_ties(self):
        nl = Netlist("k")
        a = nl.add_net("a")
        n1 = nl.add_net("n1")
        n2 = nl.add_net("n2")
        t0 = nl.add_net("t0")
        t1 = nl.add_net("t1")
        nl.mark_input(a)
        nl.add_gate("g0", "NOT", [a], n1)
        nl.add_gate("g1", "BUF", [n1], n2)
        nl.add_gate("g2", "TIE0", [], t0)
        nl.add_gate("g3", "TIE1", [], t1)
        sim = CycleSim(CompiledNetlist(nl))
        sim.set_net(a, Logic.L0)
        sim.settle()
        assert sim.get_net(n2) is Logic.L1
        assert sim.get_net(t0) is Logic.L0
        assert sim.get_net(t1) is Logic.L1
        sim.set_net(a, Logic.X)
        sim.settle()
        assert sim.get_net(n2) is Logic.X

    def test_mux2_x_select_agreement(self):
        nl = Netlist("m")
        d0 = nl.add_net("d0")
        d1 = nl.add_net("d1")
        s = nl.add_net("s")
        y = nl.add_net("y")
        for n in (d0, d1, s):
            nl.mark_input(n)
        nl.add_gate("g", "MUX2", [d0, d1, s], y)
        sim = CycleSim(CompiledNetlist(nl))
        sim.set_net(d0, Logic.L1)
        sim.set_net(d1, Logic.L1)
        sim.set_net(s, Logic.X)
        sim.settle()
        assert sim.get_net(y) is Logic.L1
        sim.set_net(d1, Logic.L0)
        sim.settle()
        assert sim.get_net(y) is Logic.X


class TestFlopSemantics:
    def build_dff(self, kind):
        nl = Netlist("f")
        pins = [nl.add_net("d")]
        nl.mark_input(pins[0])
        if "E" in kind:
            e = nl.add_net("e")
            nl.mark_input(e)
            pins.append(e)
        if kind.endswith("R"):
            r = nl.add_net("r")
            nl.mark_input(r)
            pins.append(r)
        q = nl.add_net("q")
        nl.add_gate("ff", kind, pins, q)
        nl.mark_output(q)
        return nl, CycleSim(CompiledNetlist(nl))

    def test_dff_copies_d(self):
        nl, sim = self.build_dff("DFF")
        sim.set_input("d", Logic.L1)
        sim.step()
        assert sim.get_net(nl.net_index("q")) is Logic.L1

    def test_dffr_reset_dominates(self):
        nl, sim = self.build_dff("DFFR")
        sim.set_input("d", Logic.L1)
        sim.set_input("r", Logic.L1)
        sim.step()
        assert sim.get_net(nl.net_index("q")) is Logic.L0

    def test_dffr_x_reset_merges(self):
        nl, sim = self.build_dff("DFFR")
        sim.set_input("d", Logic.L1)
        sim.set_input("r", Logic.X)
        sim.step()
        assert sim.get_net(nl.net_index("q")) is Logic.X
        # merge(0, 0) stays known
        sim.set_input("d", Logic.L0)
        sim.step()
        assert sim.get_net(nl.net_index("q")) is Logic.L0

    def test_dffe_hold_and_load(self):
        nl, sim = self.build_dff("DFFE")
        sim.set_input("d", Logic.L1)
        sim.set_input("e", Logic.L1)
        sim.step()
        assert sim.get_net(nl.net_index("q")) is Logic.L1
        sim.set_input("d", Logic.L0)
        sim.set_input("e", Logic.L0)
        sim.step()
        assert sim.get_net(nl.net_index("q")) is Logic.L1  # held

    def test_dffe_x_enable_merges(self):
        nl, sim = self.build_dff("DFFE")
        sim.set_input("d", Logic.L1)
        sim.set_input("e", Logic.L1)
        sim.step()
        sim.set_input("d", Logic.L0)
        sim.set_input("e", Logic.X)
        sim.step()
        assert sim.get_net(nl.net_index("q")) is Logic.X
        # agreeing data stays known even under X enable
        sim.set_input("d", Logic.X)
        sim.set_input("e", Logic.L1)
        sim.step()
        sim.set_input("e", Logic.X)
        sim.step()
        assert sim.get_net(nl.net_index("q")) is Logic.X

    def test_flop_table_matches_event_kernel(self):
        """All 81 X/0/1 assignments of ``(q, d, e, r)``, through one
        flop of every kind sharing its pins: one ``clock_edge`` equals
        the MUX2 composition of ``EventSim._flop_next`` on the same
        pre-edge values."""
        assert set(FLOP_KINDS) == SEQ_KINDS
        nl = Netlist("flops")
        pins = {p: nl.add_net(p.lower()) for p in "DER"}
        for net in pins.values():
            nl.mark_input(net)
        gates = []
        for kind in FLOP_KINDS:
            q = nl.add_net(f"q_{kind}")
            gates.append(nl.gates[nl.add_gate(
                f"ff_{kind}", kind, [pins[p] for p in LIBRARY[kind].inputs],
                q)])
            nl.mark_output(q)
        sim = CycleSim(CompiledNetlist(nl))
        es = EventSim(nl)
        for q, d, e, r in itertools.product(
                (Logic.X, Logic.L0, Logic.L1), repeat=4):
            for net, value in zip(pins.values(), (d, e, r)):
                sim.set_net(net, value)
                es.values[net] = value
            for gate in gates:
                sim.set_net(gate.output, q)
                es.values[gate.output] = q
            sim.clock_edge()
            for gate in gates:
                assert sim.get_net(gate.output) is es._flop_next(gate), \
                    (gate.kind, q, d, e, r)

    def test_edge_that_changes_no_q_keeps_the_next_settle_a_noop(self):
        nl, sim = self.build_dff("DFFE")
        sim.set_input("d", Logic.L1)
        sim.set_input("e", Logic.L1)
        sim.step()                       # q loads 1
        sim.settle()
        full = sim.full_settles
        sim.clock_edge()                 # loads the same 1
        sim.settle()
        assert sim.full_settles == full
        sim.set_input("e", Logic.X)
        sim.set_input("d", Logic.L0)
        sim.settle()
        sim.clock_edge()                 # X enable, disagreeing d: q -> X
        assert sim.get_net(nl.net_index("q")) is Logic.X
        full = sim.full_settles
        sim.settle()
        assert sim.full_settles == full + 1


class TestForcing:
    def test_force_overrides_driver(self):
        nl = comb_xor_netlist()
        sim = CycleSim(CompiledNetlist(nl))
        sim.set_input("a", Logic.L1)
        sim.set_input("b", Logic.X)
        sim.settle()
        y = nl.net_index("y")
        assert sim.get_net(y) is Logic.X
        sim.force(y, Logic.L1)
        sim.settle()
        assert sim.get_net(y) is Logic.L1
        sim.release(y)
        sim.settle()
        assert sim.get_net(y) is Logic.X

    def test_force_propagates_downstream(self):
        d = Design("t")
        a = d.input("a")
        n = d.name_sig("mid", a)
        d.output("y", ~n)
        nl = d.finalize()
        sim = CycleSim(CompiledNetlist(nl))
        sim.set_input("a", Logic.X)
        sim.settle()
        assert sim.get_net(nl.net_index("y")) is Logic.X
        sim.force(nl.net_index("mid"), Logic.L0)
        sim.settle()
        assert sim.get_net(nl.net_index("y")) is Logic.L1

    def test_force_replaced(self):
        nl = comb_xor_netlist()
        sim = CycleSim(CompiledNetlist(nl))
        y = nl.net_index("y")
        sim.force(y, Logic.L0)
        sim.force(y, Logic.L1)
        sim.settle()
        assert sim.get_net(y) is Logic.L1
        sim.release()
        assert sim._force_nets.size == 0

    def test_force_store_is_dict_backed(self):
        """Repeated force/release is O(1) per call: the store is a dict
        and the packed arrays are rebuilt lazily, not via per-call
        ``.tolist()`` round-trips."""
        nl = comb_xor_netlist()
        sim = CycleSim(CompiledNetlist(nl))
        a, y = nl.net_index("a"), nl.net_index("y")
        sim.force(a, Logic.L0)
        sim.force(y, Logic.L1)
        assert sim._forces == {a: (False, True), y: (True, True)}
        # packed arrays materialize on demand and agree with the dict
        assert sorted(sim._force_nets.tolist()) == sorted([a, y])
        sim.force(y, Logic.L0)           # replace: same net, new value
        assert sim._forces[y] == (False, True)
        assert len(sim._forces) == 2
        sim.release(a)
        assert sim._force_nets.tolist() == [y]

    def test_forced_net_ignores_set_net(self):
        """While forced, a net swallows pokes (matches the event kernel
        and Verilog ``force``): the poked value does not resurface after
        release."""
        nl = comb_xor_netlist()
        sim = CycleSim(CompiledNetlist(nl))
        a = nl.net_index("a")
        sim.set_input("b", Logic.L0)
        sim.force(a, Logic.L1)
        sim.set_net(a, Logic.L0)         # swallowed
        sim.settle()
        assert sim.get_net(a) is Logic.L1
        sim.release(a)
        sim.settle()
        # a is a primary input: it keeps the forced value until re-driven
        assert sim.get_net(a) is Logic.L1

    def test_forced_net_ignores_set_bus(self):
        d = Design("bus")
        d.output("y", ~d.input("d", 4))
        nl = d.finalize()
        sim = CycleSim(CompiledNetlist(nl))
        bus = nl.bus("d", 4)
        sim.force(bus[2], Logic.L1)
        sim.settle()
        sim.set_bus(bus, LVec.from_str("0x00"))   # bit 2 swallowed
        sim.release(bus[2])
        sim.settle()
        # a primary input keeps the forced value until re-driven
        assert str(sim.get_bus(bus)) == "0100"
        assert str(sim.get_bus(nl.bus("y", 4))) == "1011"


class TestSnapshotRestore:
    def make_counter(self):
        d = Design("cnt")
        r = d.reg(4, "cnt", reset=True)
        s, _ = r.q.add(d.const(1, 4))
        r.drive(s)
        d.output("y", r.q)
        nl = d.finalize()
        sim = CycleSim(CompiledNetlist(nl))
        sim.attach_memory(XMemory(4, 8, name="m"))
        sim.set_input("rst", Logic.L1)
        sim.step()
        sim.set_input("rst", Logic.L0)
        return nl, sim

    def test_snapshot_restore_roundtrip(self):
        nl, sim = self.make_counter()
        for _ in range(3):
            sim.step()
        sim.memories["m"].load_word(2, 0xAB)
        snap = sim.snapshot(pc=3)
        for _ in range(5):
            sim.step()
        sim.memories["m"].load_word(2, 0x11)
        sim.restore(snap)
        sim.settle()
        assert sim.get_bus(nl.bus("y", 4)).to_int() == 3
        assert sim.memories["m"].read_concrete(2).to_int() == 0xAB
        assert sim.cycle == snap.cycle

    def test_restore_requires_matching_shape(self):
        _, sim = self.make_counter()
        snap = sim.snapshot()
        other = comb_xor_netlist()
        other_sim = CycleSim(CompiledNetlist(other))
        with pytest.raises(ValueError):
            other_sim.restore(snap)

    def test_restore_clears_forces(self):
        nl, sim = self.make_counter()
        snap = sim.snapshot()
        sim.force(nl.net_index("y[0]"), Logic.L1)
        with pytest.warns(ForcedRestoreWarning):
            sim.restore(snap)
        assert sim._force_nets.size == 0

    def test_restore_drops_forces_even_under_warnings_as_errors(self):
        """Regression: restore() used to warn *before* dropping the
        forces, so under ``-W error`` the raise left the pins (and the
        cached force arrays) live -- the next settle re-asserted a
        phantom force that no longer belonged to any path."""
        import warnings

        d = Design("ph")
        c = d.input("cond")
        d.output("taken", ~c)
        nl = d.finalize()
        sim = CycleSim(CompiledNetlist(nl))
        cond, taken = nl.net_index("cond"), nl.net_index("taken")
        sim.set_net(cond, Logic.L0)
        sim.settle()
        snap = sim.snapshot()
        sim.force(cond, Logic.L1)
        sim.settle()
        assert sim.get_net(taken) is Logic.L0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ForcedRestoreWarning):
                sim.restore(snap)
        # the raise aborted the restore, but the force must be gone
        assert not sim._forces
        assert sim._force_nets.size == 0
        sim.set_net(cond, Logic.L0)
        sim.settle()
        assert sim.get_net(cond) is Logic.L0      # no phantom pin
        assert sim.get_net(taken) is Logic.L1

    def test_restore_then_force_ordering(self):
        """Pin the fork/replay ordering used by
        ``CoAnalysisEngine._simulate_segment``: restore a snapshot
        *first*, then force the branch-decision net.  The force must
        survive the restore (no warning) and steer downstream logic."""
        import warnings

        d = Design("br")
        c = d.input("cond")
        d.output("taken", ~c)
        nl = d.finalize()
        sim = CycleSim(CompiledNetlist(nl))
        cond, taken = nl.net_index("cond"), nl.net_index("taken")
        sim.set_net(cond, Logic.X)
        sim.settle()
        snap = sim.snapshot()
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # any warning -> failure
            sim.restore(snap)
            sim.force(cond, Logic.L1)
            sim.settle()
        assert cond in sim._forces
        assert sim.get_net(cond) is Logic.L1
        assert sim.get_net(taken) is Logic.L0


class TestActivity:
    def test_toggles_recorded_after_arming(self):
        nl, sim = TestSnapshotRestore().make_counter()
        sim.settle()
        sim.arm_activity()
        for _ in range(2):
            sim.step()
        sim.settle()
        sim.record_activity_now()
        assert sim.exercised_nets()[nl.net_index("y[0]")]

    def test_no_activity_before_arming(self):
        nl, sim = TestSnapshotRestore().make_counter()
        for _ in range(3):
            sim.step()
        assert not sim.exercised_nets().any()

    def test_ever_x_counts_as_exercised(self):
        nl = comb_xor_netlist()
        sim = CycleSim(CompiledNetlist(nl))
        sim.set_input("a", Logic.L0)
        sim.set_input("b", Logic.L0)
        sim.settle()
        sim.arm_activity()
        sim.set_input("a", Logic.X)
        sim.settle()
        sim.record_activity_now()
        assert sim.exercised_nets()[nl.net_index("y")]

    def test_reset_activity(self):
        nl, sim = TestSnapshotRestore().make_counter()
        sim.settle()
        sim.arm_activity()
        sim.step()
        sim.reset_activity()
        assert not sim.exercised_nets().any()

    def test_glitch_during_drive_counts_as_toggled(self):
        """Activity contract of ``step(drive=...)``: toggles are recorded
        after *every* settle sweep, so a net that glitches in the first
        sweep and reverts once the drive callback responds still counts
        as exercised (glitches dissipate real power)."""
        nl = comb_xor_netlist()
        sim = CycleSim(CompiledNetlist(nl))
        y = nl.net_index("y")
        sim.set_input("a", Logic.L0)
        sim.set_input("b", Logic.L0)
        sim.settle()
        sim.arm_activity()
        sim.set_input("a", Logic.L1)     # y glitches 0 -> 1 ...
        sim.step(drive=lambda s: s.set_input("a", Logic.L0))
        assert sim.get_net(y) is Logic.L0    # ... and reverts
        assert sim.exercised_nets()[y]       # but was still recorded


class TestIncrementalSettle:
    def make_counter_sim(self):
        d = Design("cnt")
        r = d.reg(8, "cnt", reset=True)
        s, _ = r.q.add(d.const(1, 8))
        r.drive(s)
        d.output("y", r.q)
        nl = d.finalize()
        return nl, CycleSim(compile_netlist(nl))

    def test_level_table_matches_comb_eval(self):
        """All 27 X/0/1 assignments of three inputs, through one gate of
        every table kind in one level: each output equals ``COMB_EVAL``
        on exactly the cell's own ports (a padded port repeats port 0
        and must not enter the evaluation)."""
        assert set(TABLE_KINDS) == COMB_KINDS - TIE_KINDS
        nl = Netlist("kinds")
        ports = [nl.add_net(name) for name in ("a", "b", "s")]
        for net in ports:
            nl.mark_input(net)
        outs = {}
        for kind in TABLE_KINDS:
            outs[kind] = nl.add_net(f"y_{kind}")
            nl.add_gate(f"g_{kind}", kind, ports[:LIBRARY[kind].arity],
                        outs[kind])
            nl.mark_output(outs[kind])
        sim = CycleSim(CompiledNetlist(nl))
        for ins in itertools.product((Logic.X, Logic.L0, Logic.L1),
                                     repeat=3):
            for net, value in zip(ports, ins):
                sim.set_net(net, value)
            sim.settle()
            for kind, y in outs.items():
                want = COMB_EVAL[kind](ins[:LIBRARY[kind].arity])
                assert sim.get_net(y) is want, (kind, ins)

    def test_redundant_settle_is_noop(self):
        nl, sim = self.make_counter_sim()
        sim.set_input("rst", Logic.L1)
        sim.settle()
        before = (sim.full_settles, sim.incremental_settles)
        sim.settle()                     # nothing dirty
        assert (sim.full_settles, sim.incremental_settles) == before
        assert sim.noop_settles >= 1

    def test_unchanged_bus_write_keeps_settle_noop(self):
        nl, sim = self.make_counter_sim()
        sim.set_input("rst", Logic.L1)
        sim.settle()
        y = nl.bus("y", 8)
        sim.set_bus(y, sim.get_bus(y))     # rewrites the same bits
        sim.settle()
        assert (sim.full_settles, sim.noop_settles) == (1, 1)
        sim.set_bus(y, LVec.from_int(5, 8))
        sim.settle()
        assert (sim.full_settles, sim.noop_settles) == (2, 1)

    def test_mark_all_dirty_forces_full_sweep(self):
        nl, sim = self.make_counter_sim()
        sim.set_input("rst", Logic.L1)
        sim.settle()
        full_before = sim.full_settles
        # emulate the engine's bulk plane write (checkpoint resume)
        sim.val[:] = False
        sim.known[:] = False
        sim.mark_all_dirty()
        sim.set_input("rst", Logic.L1)
        sim.settle()
        assert sim.full_settles == full_before + 1

    def test_compile_netlist_cache_and_invalidation(self):
        nl = comb_xor_netlist()
        c1 = compile_netlist(nl)
        assert compile_netlist(nl) is c1
        # structural mutation invalidates the cached compilation
        n = nl.add_net("extra")
        nl.add_gate("gx", "NOT", [nl.net_index("y")], n)
        c2 = compile_netlist(nl)
        assert c2 is not c1
        assert compile_netlist(nl) is c2

    def test_compile_netlist_versionless_is_uncacheable(self):
        """Regression: a netlist without ``_mutation_version`` used to
        fall back to a ``-1`` sentinel, which matched itself forever --
        after the first compile, in-place edits silently served the
        stale schedule.  Version-less netlists must compile fresh."""
        nl = comb_xor_netlist()
        del nl._mutation_version
        c1 = compile_netlist(nl)
        # mutate in place: retarget the gate without bumping a version
        nl.gates[0].kind = "AND"
        c2 = compile_netlist(nl)
        assert c2 is not c1                 # no stale cache hit
        sim = CycleSim(c2)
        a, b, y = (nl.net_index(n) for n in ("a", "b", "y"))
        sim.set_net(a, Logic.L1)
        sim.set_net(b, Logic.L1)
        sim.settle()
        assert sim.get_net(y) is Logic.L1   # AND semantics, not XOR
