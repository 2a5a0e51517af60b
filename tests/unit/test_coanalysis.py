"""Unit tests for the co-analysis engine on a tiny synthetic target."""

import pytest

from repro.coanalysis import (CoAnalysisEngine, CoAnalysisError,
                              SymbolicTarget)
from repro.csm import ConservativeStateManager, UberConservative
from repro.logic import Logic
from repro.rtl import Design, mux


def toy_design(halt_pc=7, branch_pc=2, taken_pc=5):
    """3-bit PC machine: at ``branch_pc`` the next PC depends on input
    ``d`` (taken -> ``taken_pc``); everywhere else PC increments; parks
    at ``halt_pc``."""
    d = Design("toy")
    din = d.input("d")
    pc = d.reg(3, "pc_r", reset=True)
    at_branch = _pc_is(d, pc.q, branch_pc)
    at_halt = _pc_is(d, pc.q, halt_pc)
    branch_point = d.name_sig("branch_point", at_branch)
    branch_taken = d.name_sig("branch_taken", at_branch & din)
    inc, _ = pc.q.add(d.const(1, 3))
    nxt = mux(branch_taken, inc, d.const(taken_pc, 3))
    nxt = mux(at_halt, nxt, pc.q)
    pc.drive(nxt)
    d.output("pc", pc.q)
    return d.finalize()


def _pc_is(d, pc, value):
    bits = [pc[i] if (value >> i) & 1 else ~pc[i] for i in range(pc.width)]
    acc = bits[0]
    for b in bits[1:]:
        acc = acc & b
    return acc


class ToyTarget(SymbolicTarget):
    name = "toy"
    drive_rounds = 1

    def __init__(self, netlist, halt_pc=7, symbolic_input=True):
        super().__init__(netlist)
        self.halt_pc = halt_pc
        self.symbolic_input = symbolic_input
        self.pc_nets = netlist.bus("pc", 3)
        self.monitored_nets = [netlist.net_index("d")]
        self.branch_point_net = netlist.net_index("branch_point")
        self.branch_force_net = netlist.net_index("branch_taken")

    def apply_symbolic_inputs(self, sim):
        sim.set_input("d", Logic.X if self.symbolic_input else Logic.L0)

    def apply_concrete_inputs(self, sim, inputs):
        sim.set_input("d", Logic.L1 if inputs.get("d") else Logic.L0)

    def is_done(self, sim):
        if self.halt_pc is None:
            return False
        return self.current_pc(sim) == self.halt_pc


class TestEngineBasics:
    def test_single_path_when_no_x(self):
        target = ToyTarget(toy_design(), symbolic_input=False)
        result = CoAnalysisEngine(target, application="toy").run()
        assert result.paths_created == 1
        assert result.splits == 0
        assert result.path_records[0].outcome == "done"

    def test_cycle_is_not_an_engine_name(self):
        # backend takes "serial" / "event" / "batch", as run_one, the
        # CLI, job specs and checkpoints spell them -- checked when the
        # engine is built, not when it runs
        with pytest.raises(ValueError, match="unknown backend 'cycle'; "
                           "known: 'serial', 'event', 'batch'"):
            CoAnalysisEngine(ToyTarget(toy_design()), application="toy",
                             backend="cycle")

    def test_split_on_symbolic_branch(self):
        target = ToyTarget(toy_design())
        result = CoAnalysisEngine(target, application="toy").run()
        assert result.splits == 1
        assert result.paths_created == 3
        outcomes = {r.outcome for r in result.path_records}
        assert outcomes == {"split", "done"}

    def test_both_decisions_explored(self):
        target = ToyTarget(toy_design())
        result = CoAnalysisEngine(target, application="toy").run()
        forced = sorted(r.forced_decision for r in result.path_records
                        if r.forced_decision is not None)
        assert forced == [0, 1]

    def test_exercisable_subset_of_total(self):
        target = ToyTarget(toy_design())
        result = CoAnalysisEngine(target, application="toy").run()
        assert 0 < result.exercisable_gate_count <= result.total_gates
        assert result.reduction_percent >= 0

    def test_simulated_cycles_accumulate(self):
        target = ToyTarget(toy_design())
        result = CoAnalysisEngine(target, application="toy").run()
        assert result.simulated_cycles == \
            sum(r.cycles for r in result.path_records)

    def test_csm_stats_propagated(self):
        target = ToyTarget(toy_design())
        result = CoAnalysisEngine(target, application="toy").run()
        assert result.csm_stats["observed"] >= 1


class TestBudgets:
    def test_strict_budget_raises(self):
        # halt_pc=None: termination never detected -> budget exhausted
        target = ToyTarget(toy_design(), halt_pc=None,
                           symbolic_input=False)
        engine = CoAnalysisEngine(target, application="toy",
                                  max_cycles_per_path=20)
        with pytest.raises(CoAnalysisError, match="analysis unsound"):
            engine.run()

    def test_max_paths_guard(self):
        target = ToyTarget(toy_design())
        engine = CoAnalysisEngine(target, application="toy", max_paths=1)
        with pytest.raises(CoAnalysisError):
            engine.run()


class TestActivitySemantics:
    def test_branch_cone_exercised(self):
        target = ToyTarget(toy_design())
        result = CoAnalysisEngine(target, application="toy").run()
        ex = result.profile.exercised_nets()
        nl = target.netlist
        assert ex[nl.net_index("d")]               # the X input
        assert ex[nl.net_index("branch_taken")]

    def test_concrete_run_narrower_than_symbolic(self):
        target = ToyTarget(toy_design())
        result = CoAnalysisEngine(target, application="toy").run()
        from repro.coanalysis.concrete import run_concrete
        run = run_concrete(target, {"d": 1}, max_cycles=50)
        extra = run.exercised_nets & ~result.profile.exercised_nets()
        assert not extra.any()

    def test_concrete_run_records_its_final_cycle(self):
        """A concrete run records every settled cycle, the one where the
        program is done included, as a symbolic segment ending "done"
        does.  With no X input the symbolic run is that one concrete
        path, so the two exercised sets are equal (the halt decode only
        toggles on the final cycle)."""
        target = ToyTarget(toy_design(), symbolic_input=False)
        result = CoAnalysisEngine(target, application="toy").run()
        from repro.coanalysis.concrete import run_concrete
        run = run_concrete(target, {"d": 0}, max_cycles=50)
        assert run.finished
        assert (run.exercised_nets
                == result.profile.exercised_nets()).all()


class TestMonitorGating:
    def test_no_halt_without_branch_point(self):
        """X on a monitored net away from a branch must not halt."""
        nl = toy_design(branch_pc=6)   # branch very late
        target = ToyTarget(nl)
        # halt_pc=7 still reachable; d is X the whole run but only the
        # branch at pc=6 consults it
        result = CoAnalysisEngine(target, application="toy").run()
        # exactly one split, at pc 6
        assert result.splits == 1
        assert result.path_records[0].end_pc == 6
