"""Property tests: the two simulation engines agree gate-for-gate.

This is the reproduction of the paper's non-interference validation
(section 5.0.1): the enhanced simulator must behave exactly like a
baseline simulator on ordinary stimulus.  Here the vectorized cycle
engine is cross-checked against the event-driven kernel on randomly
generated netlists and random four-valued stimulus.
"""

import warnings

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.logic import Logic, LVec
from repro.netlist import Netlist
from repro.sim import (LANE_CAPACITY, BatchCycleSim, CompiledNetlist,
                       CycleSim, EventSim, ForcedRestoreWarning)

COMB_KINDS = ["AND", "OR", "XOR", "NAND", "NOR", "XNOR", "NOT", "BUF",
              "MUX2"]


@st.composite
def random_netlist(draw):
    """A random feed-forward netlist with a few flops."""
    n_inputs = draw(st.integers(2, 5))
    n_gates = draw(st.integers(3, 18))
    nl = Netlist("rand")
    pool = []
    for i in range(n_inputs):
        net = nl.add_net(f"in{i}")
        nl.mark_input(net)
        pool.append(net)
    for g in range(n_gates):
        kind = draw(st.sampled_from(COMB_KINDS))
        arity = {"NOT": 1, "BUF": 1, "MUX2": 3}.get(kind, 2)
        ins = [pool[draw(st.integers(0, len(pool) - 1))]
               for _ in range(arity)]
        out = nl.add_net(f"n{g}")
        nl.add_gate(f"g{g}", kind, ins, out)
        pool.append(out)
    # a couple of flops fed from the pool (their outputs feed nothing to
    # keep the graph feed-forward and the comparison simple)
    n_flops = draw(st.integers(0, 2))
    for f in range(n_flops):
        d_net = pool[draw(st.integers(0, len(pool) - 1))]
        q = nl.add_net(f"q{f}")
        nl.add_gate(f"ff{f}", "DFF", [d_net], q)
    nl.mark_output(pool[-1])
    return nl


logic_vals = st.sampled_from([Logic.L0, Logic.L1, Logic.X])

FLOP_KINDS = ["DFF", "DFFE", "DFFR", "DFFER"]


@st.composite
def stimulus(draw, n_inputs, n_cycles):
    return [[draw(logic_vals) for _ in range(n_inputs)]
            for _ in range(n_cycles)]


@st.composite
def random_seq_netlist(draw):
    """A random netlist whose flop outputs feed back into later logic.

    Unlike :func:`random_netlist`, enable/reset pins of DFFE/DFFER
    flops connect to arbitrary pool nets, so the engines' X-merging
    ladders (unknown enable, unknown reset) are exercised directly.
    """
    n_inputs = draw(st.integers(2, 4))
    n_ops = draw(st.integers(4, 16))
    nl = Netlist("randseq")
    pool = []
    for i in range(n_inputs):
        net = nl.add_net(f"in{i}")
        nl.mark_input(net)
        pool.append(net)
    for g in range(n_ops):
        if draw(st.integers(0, 3)) == 0:
            kind = draw(st.sampled_from(FLOP_KINDS))
            pins = [pool[draw(st.integers(0, len(pool) - 1))]]
            if "E" in kind:
                pins.append(pool[draw(st.integers(0, len(pool) - 1))])
            if kind.endswith("R"):
                pins.append(pool[draw(st.integers(0, len(pool) - 1))])
            q = nl.add_net(f"q{g}")
            nl.add_gate(f"ff{g}", kind, pins, q)
            pool.append(q)
        else:
            kind = draw(st.sampled_from(COMB_KINDS))
            arity = {"NOT": 1, "BUF": 1, "MUX2": 3}.get(kind, 2)
            ins = [pool[draw(st.integers(0, len(pool) - 1))]
                   for _ in range(arity)]
            out = nl.add_net(f"n{g}")
            nl.add_gate(f"g{g}", kind, ins, out)
            pool.append(out)
    nl.mark_output(pool[-1])
    return nl


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_every_net_matches_across_engines(self, data):
        nl = data.draw(random_netlist())
        n_inputs = len(nl.inputs)
        stim = data.draw(stimulus(n_inputs, n_cycles=4))

        cyc = CycleSim(CompiledNetlist(nl))
        evt = EventSim(nl)
        for cycle_inputs in stim:
            for i, value in zip(nl.inputs, cycle_inputs):
                cyc.set_net(i, value)
                evt.poke(i, value)
            cyc.settle()
            cyc.clock_edge()
            evt.tick()
            for net in range(len(nl.nets)):
                assert cyc.get_net(net) is evt.get_logic(net), \
                    f"net {nl.net_name(net)} diverged"

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_event_count_stable_with_symbolic_tasks(self, data):
        """Registering a (never-firing) symbolic task must not change
        simulated values -- the paper's 'event list matches baseline'
        check."""
        nl = data.draw(random_netlist())
        stim = data.draw(stimulus(len(nl.inputs), n_cycles=3))

        plain = EventSim(nl)
        enhanced = EventSim(nl)
        observed = []
        enhanced.add_symbolic_task(lambda s: observed.append(s.cycle))
        for cycle_inputs in stim:
            for i, value in zip(nl.inputs, cycle_inputs):
                plain.poke(i, value)
                enhanced.poke(i, value)
            plain.tick()
            enhanced.tick()
            for net in range(len(nl.nets)):
                assert plain.get_logic(net) is enhanced.get_logic(net)
        assert observed == list(range(len(stim)))


class TestForcedSequentialEquivalence:
    """Cross-tests with active forces and enable/reset flops -- the
    fork/replay hot path's semantics, pinned against the event kernel."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_forced_nets_and_flops_match_across_engines(self, data):
        nl = data.draw(random_seq_netlist())
        n_nets = len(nl.nets)
        cyc = CycleSim(CompiledNetlist(nl))
        evt = EventSim(nl)
        forced = set()
        for _ in range(5):
            for i in nl.inputs:
                value = data.draw(logic_vals)
                cyc.set_net(i, value)
                evt.poke(i, value)
            op = data.draw(st.integers(0, 3))
            if op == 0:
                net = data.draw(st.integers(0, n_nets - 1))
                value = data.draw(logic_vals)
                cyc.force(net, value)
                evt.force(net, value)
                forced.add(net)
            elif op == 1 and forced:
                net = data.draw(st.sampled_from(sorted(forced)))
                cyc.release(net)
                evt.release(net)
                forced.discard(net)
            cyc.settle()
            cyc.clock_edge()
            cyc.settle()
            evt.tick()
            for net in range(n_nets):
                assert cyc.get_net(net) is evt.get_logic(net), \
                    f"net {nl.net_name(net)} diverged (forced={forced})"

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_settle_vs_event_engine(self, data):
        """The level-table settle agrees with the event kernel under
        pokes, forces, releases, and restores, and never leaves a
        ``val`` bit set on an X net."""
        import warnings as _warnings

        from repro.sim import ForcedRestoreWarning

        nl = data.draw(random_seq_netlist())
        cyc = CycleSim(CompiledNetlist(nl))
        evt = EventSim(nl)
        n_nets = len(nl.nets)
        snaps = []
        forced = set()

        def settled_alike():
            assert not (cyc.val & ~cyc.known).any()
            for net in range(n_nets):
                assert cyc.get_net(net) is evt.get_logic(net), \
                    f"net {nl.net_name(net)} diverged (forced={forced})"

        for _ in range(6):
            for i in nl.inputs:
                value = data.draw(logic_vals)
                cyc.set_net(i, value)
                evt.poke(i, value)
            op = data.draw(st.integers(0, 5))
            if op == 0:
                net = data.draw(st.integers(0, n_nets - 1))
                value = data.draw(logic_vals)
                cyc.force(net, value)
                evt.force(net, value)
                forced.add(net)
            elif op == 1 and forced:
                net = data.draw(st.sampled_from(sorted(forced)))
                cyc.release(net)
                evt.release(net)
                forced.discard(net)
            elif op == 2:
                snaps.append((cyc.snapshot(), evt.save_state()))
            elif op == 3 and snaps:
                sc, se = snaps[data.draw(
                    st.integers(0, len(snaps) - 1))]
                with _warnings.catch_warnings():
                    _warnings.simplefilter("ignore", ForcedRestoreWarning)
                    cyc.restore(sc)
                evt.restore_state(se)
                forced.clear()
            cyc.settle()
            evt.settle()
            settled_alike()
            cyc.clock_edge()
            assert not (cyc.val & ~cyc.known).any()
            cyc.settle()
            evt.tick()
            settled_alike()


class TestResynthesisPreservesSemantics:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_fold_sweep_equivalent_on_concrete_inputs(self, data):
        from repro.bespoke import resynthesize
        nl = data.draw(random_netlist())
        out_net_name = nl.net_name(nl.outputs[0])
        opt = resynthesize(nl)
        stim = data.draw(stimulus(len(nl.inputs), n_cycles=3))
        a = CycleSim(CompiledNetlist(nl))
        b = CycleSim(CompiledNetlist(opt))
        for cycle_inputs in stim:
            for idx, value in zip(nl.inputs, cycle_inputs):
                a.set_net(idx, value)
                name = nl.net_name(idx)
                if opt.has_net(name):
                    b.set_net(opt.net_index(name), value)
            a.settle()
            b.settle()
            va = a.get_net(nl.net_index(out_net_name))
            vb = b.get_net(opt.net_index(out_net_name))
            # resynthesis may only *refine* (X -> known), never disagree
            if va.is_known or vb.is_known:
                from repro.logic import covers
                assert covers(va, vb) or va is vb


class TestBatchLaneEquivalence:
    """The batched engine's lane level tables against the serial level
    table: every live lane is its own serial simulation."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_live_lanes_match_serial_sims(self, data):
        """3-4 live lanes of the 64, each with its own pokes, forces,
        releases, snapshots and restores, advance through shared
        settles and edges.  After each one every lane equals a CycleSim
        driven the same way, and no live lane has a ``val`` bit without
        its ``known`` bit."""
        nl = data.draw(random_seq_netlist())
        compiled = CompiledNetlist(nl)
        n_nets = len(nl.nets)
        lanes = data.draw(st.lists(st.integers(0, LANE_CAPACITY - 1),
                                   min_size=3, max_size=4, unique=True))
        batch = BatchCycleSim(compiled)
        for lane in range(LANE_CAPACITY):
            batch.alloc_lane()
        for lane in range(LANE_CAPACITY):
            if lane not in lanes:
                batch.drop_lane(lane)
        serials = {lane: CycleSim(compiled) for lane in lanes}
        forced = {lane: set() for lane in lanes}
        snaps = {lane: [] for lane in lanes}

        def lanes_alike():
            for lane, serial in serials.items():
                val, known = batch.lane_planes(lane)
                assert not (val & ~known).any(), f"lane {lane}"
                assert (val == serial.val).all(), f"lane {lane}"
                assert (known == serial.known).all(), f"lane {lane}"

        def settle_all():
            batch.settle()
            for serial in serials.values():
                serial.settle()
            lanes_alike()

        for _ in range(5):
            for lane, serial in serials.items():
                values = [data.draw(logic_vals) for _ in nl.inputs]
                if data.draw(st.booleans()):
                    batch.lane_set_bus(lane, nl.inputs, LVec(values))
                else:
                    for net, value in zip(nl.inputs, values):
                        batch.lane_set_net(lane, net, value)
                serial.set_bus(nl.inputs, LVec(values))
                op = data.draw(st.integers(0, 5))
                if op == 0:
                    net = data.draw(st.integers(0, n_nets - 1))
                    value = data.draw(logic_vals)
                    batch.lane_force(lane, net, value)
                    serial.force(net, value)
                    forced[lane].add(net)
                elif op == 1 and forced[lane]:
                    net = data.draw(st.sampled_from(sorted(forced[lane])))
                    batch.lane_release(lane, net)
                    serial.release(net)
                    forced[lane].discard(net)
                elif op == 2:
                    batch.lane_release(lane)
                    serial.release()
                    forced[lane].clear()
                elif op == 3:
                    lane_snap, serial_snap = (batch.lane_snapshot(lane),
                                              serial.snapshot())
                    assert (lane_snap.net_val == serial_snap.net_val).all()
                    assert (lane_snap.net_known
                            == serial_snap.net_known).all()
                    snaps[lane].append((lane_snap, serial_snap))
                elif op == 4 and snaps[lane]:
                    lane_snap, serial_snap = data.draw(
                        st.sampled_from(snaps[lane]))
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", ForcedRestoreWarning)
                        # the lane's restore settles every lane
                        batch.lane_restore(lane, lane_snap)
                        serial.restore(serial_snap)
                    for other in serials.values():
                        other.settle()
                    lanes_alike()
                    forced[lane].clear()
            settle_all()
            batch.clock_edge()
            for serial in serials.values():
                serial.clock_edge()
            lanes_alike()
            settle_all()
