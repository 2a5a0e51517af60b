"""Unit tests for co-analysis of a port-driven design on the event kernel.

Uses the saturating-accumulator FSM from the Listing 1 example: the
accumulator adds an unknown input until it crosses a threshold, so the
``crossed`` control signal goes X and the simulation must fork.  The
FSM is a plain :class:`SymbolicTarget` subclass run by
``CoAnalysisEngine(backend="event")`` -- the same front door, kernel
and segment loop every processor core uses.
"""

import pytest

from repro.coanalysis import CoAnalysisEngine, SymbolicTarget
from repro.coanalysis.results import CoAnalysisError, CoAnalysisResult
from repro.logic import Logic
from repro.rtl import Design, mux


WIDTH = 4


def saturating_acc():
    d = Design("acc")
    din = d.input("din", WIDTH)
    acc = d.reg(WIDTH, "acc", reset=True)
    crossed = d.name_sig("crossed", acc.q.uge(d.const(8, WIDTH)))
    done = d.reg(1, "done_r", reset=True)
    done.drive(d.const(1, 1), enable=crossed)
    nxt, _ = acc.q.add(din)
    acc.drive(mux(crossed, nxt, acc.q))
    d.output("acc_o", acc.q)
    d.output("done_o", done.q)
    return d.finalize()


class AccumulatorTarget(SymbolicTarget):
    """The FSM's testbench: every cycle is a branch point, ``crossed``
    is the monitored signal and the forced decision, and the done bit
    is the control-state key the CSM indexes on."""

    name = "acc"
    drive_rounds = 1

    def __init__(self, netlist, symbolic=True):
        super().__init__(netlist)
        self.symbolic = symbolic
        self.din = netlist.bus("din", WIDTH)
        crossed = netlist.net_index("crossed")
        self.monitored_nets = [crossed]
        self.branch_force_net = crossed
        self.pc_nets = [netlist.net_index("done_r")]

    def reset(self, sim):
        """Listing 1's RST pulse, with the data inputs held at 0."""
        sim.set_input("rst", Logic.L1)
        for net in self.din:
            sim.set_net(net, Logic.L0)
        self.drive_all(sim)
        sim.clock_edge()
        sim.set_input("rst", Logic.L0)

    def apply_symbolic_inputs(self, sim):
        for i, net in enumerate(self.din):
            if self.symbolic:
                value = Logic.X if i < 2 else Logic.L0
            else:
                value = Logic.L1 if i == 0 else Logic.L0   # din = 1
            sim.set_net(net, value)

    def at_branch_point(self, sim):
        return Logic.L1

    def is_done(self, sim):
        return sim.get_net(self.pc_nets[0]) is Logic.L1


class NeverDone(AccumulatorTarget):
    def is_done(self, sim):
        return False


@pytest.fixture(scope="module")
def netlist():
    """The FSM, brought up through reset concretely first."""
    from repro.sim import EventSim
    nl = saturating_acc()
    sim = EventSim(nl)
    sim.poke_by_name("rst", Logic.L1)
    for i in range(WIDTH):
        sim.poke_by_name(f"din[{i}]", Logic.L0)
    sim.tick()
    assert sim.get_logic_by_name("acc[0]") is Logic.L0
    return nl


def analyze(target, backend="event", **kw):
    kw.setdefault("max_cycles_per_path", 500)
    return CoAnalysisEngine(target, backend=backend, **kw).run()


class TestEventCoAnalysis:
    def test_forks_and_converges(self, netlist):
        result = analyze(AccumulatorTarget(netlist))
        # one result type across all backends since the kernel extraction
        assert isinstance(result, CoAnalysisResult)
        assert result.splits >= 1
        assert result.paths_created == 1 + 2 * result.splits
        assert result.simulated_cycles > 0
        # trace-derived metrics agree with the engine's own counters
        assert result.metrics.splits == result.splits
        assert result.metrics.paths_explored == len(result.path_records)
        assert result.metrics.simulated_cycles == result.simulated_cycles

    def test_exercised_nets_cover_symbolic_cone(self, netlist):
        result = analyze(AccumulatorTarget(netlist))
        exercised = result.profile.exercised_nets()
        assert exercised[netlist.net_index("din[0]")]
        assert exercised[netlist.net_index("crossed")]
        gates = result.profile.exercisable_gates()
        assert 0 < len(gates) <= netlist.gate_count()

    def test_concrete_input_single_path(self, netlist):
        result = analyze(AccumulatorTarget(netlist, symbolic=False),
                         max_cycles_per_path=40)
        assert result.paths_created == 1
        assert result.splits == 0

    def test_budget_enforced(self, netlist):
        with pytest.raises(CoAnalysisError):
            analyze(NeverDone(netlist, symbolic=False),
                    max_cycles_per_path=5)

    def test_events_counted(self, netlist):
        result = analyze(AccumulatorTarget(netlist))
        assert result.events_executed > 0

    def test_matches_the_cycle_engine(self, netlist):
        """The event kernel and the vectorized cycle engine run the same
        target to the same dichotomy, path count and cycle count."""
        event = analyze(AccumulatorTarget(netlist))
        cycle = analyze(AccumulatorTarget(netlist), backend="serial")
        assert event.exercisable_gate_count == cycle.exercisable_gate_count
        assert (event.profile.exercisable_gates()
                == cycle.profile.exercisable_gates())
        assert event.paths_created == cycle.paths_created
        assert event.simulated_cycles == cycle.simulated_cycles
