"""Unit tests for netlist reports and lockstep comparison."""

import pytest

from repro.logic import Logic
from repro.netlist.stats import block_of, diff_blocks, report
from repro.rtl import Design
from repro.sim.compare import lockstep_compare
from repro.workloads import built_core


def counter(width=4):
    d = Design("cnt")
    en = d.input("en")
    r = d.reg(width, "c", reset=True)
    s, _ = r.q.add(d.const(1, width))
    r.drive(s, enable=en)
    d.output("y", r.q)
    return d.finalize()


class TestNetlistReport:
    def test_block_of(self):
        assert block_of("mpy_op1_ff3") == "mpy_op"
        assert block_of("u123") == "u"
        assert block_of("pc_r_ff0") == "pc_r_ff"

    def test_report_totals(self):
        nl, _ = built_core("omsp430")
        rep = report(nl)
        assert rep.gates == nl.gate_count()
        assert rep.flops == len(nl.seq_gates)
        assert sum(rep.by_kind.values()) == rep.gates
        assert sum(c for c, _ in rep.by_block.values()) == rep.gates
        assert rep.max_fanout >= rep.avg_fanout > 0

    def test_render_contains_blocks(self):
        nl, _ = built_core("omsp430")
        text = report(nl).render()
        assert "Netlist report: omsp430" in text
        assert "cells:" in text

    def test_diff_blocks(self):
        nl = counter()
        rows = diff_blocks(nl, nl)
        assert all(before == after for _, before, after in rows)


class TestLockstep:
    def test_equivalent_engines(self):
        nl = counter()
        stim = [{"rst": Logic.L1, "en": Logic.L0}] + \
               [{"rst": Logic.L0, "en": Logic.L1}] * 5
        result = lockstep_compare(nl, stim)
        assert result.equivalent
        assert result.cycles_run == 6

    def test_x_stimulus_still_equivalent(self):
        nl = counter()
        stim = [{"rst": Logic.L1, "en": Logic.L0},
                {"rst": Logic.L0, "en": Logic.X},
                {"rst": Logic.L0, "en": Logic.L1}]
        assert lockstep_compare(nl, stim).equivalent

    def test_batch_leg_by_name(self):
        """'batch' builds a one-lane BatchCycleSim behind a LaneView."""
        nl = counter()
        stim = [{"rst": Logic.L1, "en": Logic.L0},
                {"rst": Logic.L0, "en": Logic.X}] + \
               [{"rst": Logic.L0, "en": Logic.L1}] * 4
        assert lockstep_compare(nl, stim,
                                engines=("cycle", "batch")).equivalent
        assert lockstep_compare(nl, stim,
                                engines=("event", "batch")).equivalent

    def test_batch_leg_as_lane_view_object(self):
        """A LaneView of a batched sim can be passed in directly."""
        from repro.sim.batch_sim import BatchCycleSim
        from repro.sim.cycle_sim import compile_netlist
        nl = counter()
        sim = BatchCycleSim(compile_netlist(nl))
        view = sim.lane_view(sim.alloc_lane())
        stim = [{"rst": Logic.L1, "en": Logic.L0}] + \
               [{"rst": Logic.L0, "en": Logic.L1}] * 5
        result = lockstep_compare(nl, stim, engines=("cycle", view))
        assert result.equivalent
        assert result.cycles_run == 6

    def test_unknown_engine_name_rejected(self):
        nl = counter()
        with pytest.raises(ValueError, match="unknown engine"):
            lockstep_compare(nl, [], engines=("cycle", "verilator"))

    def test_divergence_reporting_shape(self):
        """Divergence dataclass renders usefully (synthesized case)."""
        from repro.sim.compare import CompareResult, Divergence
        div = Divergence(3, 7, "y[0]", Logic.L1, Logic.X)
        assert "cycle 3" in str(div)
        assert not CompareResult(4, div).equivalent

